"""Seeded protocol generators for the benchmark.

Every generator returns a plain model document (the JSON input format)
and never calls into gspmc, so the program under test only ever sees
the files written from these documents. The random generator is kept
separate from the test suite's generator on purpose: it covers the
whole input language, including maximal actions whose send slots share
a source but not a destination, every sugar type, and guarded
protocols that fail certification.
"""

from __future__ import annotations

import math
import random

SUGAR_TYPES = ("internal", "pairwise", "async", "negotiation", "disjunctive")


def ring_family(k: int, m: int, clocks: int) -> dict:
    """Generalised ``cutoff_witness.json``: a counting ring of length ``k``
    that advances under a maximal action, plus a clock ring of length ``m``.

    ``i`` sends ``clocks`` processes into the clock ring and everyone else
    into the counting ring; each ``a`` advances both rings and drops one
    counting process; ``b`` moves the clock processes into ``s_E`` while
    the counting cluster sits at the end of its ring. By construction
    ``s_E >= count`` is reachable iff ``count <= clocks``, with minimal
    system size ``lcm(k, m) + clocks`` (see :func:`ring_min_n`).
    """
    ring = [f"r{j}" for j in range(k)]
    clock = [f"c{j}" for j in range(m)]
    states = ["s_0", "s_bot", *ring, *clock, "s_E"]
    return {
        "states": states,
        "init": "s_0",
        "guards": {},
        "actions": [
            {"name": "i", "kind": "sender", "arity": clocks,
             "sends": [["s_0", "c0"]] * clocks,
             "receives": [["s_0", "r0"]]},
            {"name": "a", "kind": "maximal", "arity": k,
             "sends": [[r, "s_bot"] for r in ring],
             "receives": ([[ring[j], ring[(j + 1) % k]] for j in range(k)]
                          + [[clock[j], clock[(j + 1) % m]] for j in range(m)])},
            {"name": "b", "kind": "sender", "arity": 1,
             "sends": [[ring[-1], "s_bot"]],
             "receives": [[clock[-1], "s_E"]]},
        ],
    }


def ring_min_n(k: int, m: int, clocks: int, count: int) -> int | None:
    """Minimal system size reaching ``s_E >= count``; None if never."""
    return math.lcm(k, m) + clocks if count <= clocks else None


def ring_trace_steps(k: int, m: int) -> int:
    """Length of the shortest trace at any n >= min_n: i, lcm-1 times a, b."""
    return math.lcm(k, m) + 1


def internal_ring(length: int) -> dict:
    """``length`` states in a cycle of internal steps, plus an isolated
    state ``dead`` that no transition enters.

    Every distribution of n processes over the ring is reachable, so the
    explored state space at size n is C(n + length - 1, length - 1); the
    shortest trace putting ``count`` processes on ring state j has
    ``count * j`` steps, and ``dead`` is never reached.
    """
    ring = [f"r{j}" for j in range(length)]
    return {
        "states": [*ring, "dead"],
        "init": "r0",
        "guards": {},
        "actions": [],
        "sugar": [{"type": "internal", "name": f"t{j}",
                   "from": ring[j], "to": ring[(j + 1) % length]}
                  for j in range(length)],
    }


def internal_ring_configs(length: int, n: int) -> int:
    return math.comb(n + length - 1, length - 1)


def relabel(doc: dict, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """Same protocol with every state renamed under a seeded prefix.

    Declaration order is kept: reordering states changes the hash order
    of counter vectors, and with it how many comparisons the fixpoint's
    antichain minimisation makes, by up to a quarter on the ring family.
    That is work the seed should not decide. Returns the renamed document
    and the old-to-new state name map.
    """
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    fresh = {s: f"{tag}_{s}" for s in doc["states"]}

    def st(s):
        return fresh[s]

    out = {
        "states": [st(s) for s in doc["states"]],
        "init": st(doc["init"]),
        "guards": {g: [st(s) for s in members]
                   for g, members in doc.get("guards", {}).items()},
        "actions": [],
    }
    for a in doc.get("actions", []):
        entry = dict(a)
        entry["sends"] = [[st(s), st(t)] for s, t in a["sends"]]
        if "receives" in a:
            receives = a["receives"]
            if isinstance(receives, dict):
                entry["receives"] = {st(s): st(t) for s, t in receives.items()}
            else:
                entry["receives"] = [[st(s), st(t)] for s, t in receives]
        out["actions"].append(entry)
    if "sugar" in doc:
        out["sugar"] = [_relabel_sugar(d, st) for d in doc["sugar"]]
    if "property" in doc:
        out["property"] = dict(doc["property"],
                               target=st(doc["property"]["target"]))
    return out, fresh


def _relabel_sugar(decl: dict, st) -> dict:
    d = dict(decl)
    for key in ("from", "to"):
        if key in d:
            d[key] = st(d[key])
    for key in ("send", "recv"):
        if key in d:
            d[key] = [st(x) for x in d[key]]
    if "map" in d:
        d["map"] = [[st(s), st(t)] for s, t in d["map"]]
    if "witnesses" in d:
        d["witnesses"] = [st(w) for w in d["witnesses"]]
    return d


def random_model(rng: random.Random) -> dict:
    """One random protocol with a property block.

    4-9 states, 1-3 guards, 1-3 core actions of arity 1-3 and 0-2 sugar
    declarations. Maximal send slots are drawn independently, so two
    slots may share a source and differ in destination. Nothing is
    filtered: uncertified guarded protocols stay in, and ``verify``
    refusing them is their expected result.
    """
    n = rng.randint(4, 9)
    states = [f"S{i}" for i in range(n)]
    guards = {f"G{g}": sorted(rng.sample(states, rng.randint(1, n - 1)),
                              key=states.index)
              for g in range(rng.randint(1, 3))}

    def pick_guard():
        return rng.choice(list(guards)) if rng.random() < 0.6 else None

    def source(gname):
        pool = guards[gname] if gname and rng.random() < 0.9 else states
        return rng.choice(pool)

    actions = []
    for ai in range(rng.randint(1, 3)):
        gname = pick_guard()
        kind = rng.choice(("sender", "maximal"))
        sends = [[source(gname), rng.choice(states)]
                 for _ in range(rng.choice((1, 1, 2, 2, 3)))]
        pairs = [[s, rng.choice(states)] for s in states if rng.random() < 0.35]
        entry = {"name": f"a{ai}", "kind": kind, "sends": sends}
        if rng.random() < 0.5:
            entry["arity"] = len(sends)
        if pairs or rng.random() < 0.5:
            entry["receives"] = (dict(pairs) if rng.random() < 0.3 else pairs)
        if gname:
            entry["guard"] = gname
        actions.append(entry)

    sugar = []
    for si in range(rng.choice((0, 1, 1, 2))):
        kind = rng.choice(SUGAR_TYPES)
        name = f"x{si}"
        gname = pick_guard()
        if kind == "internal":
            decl = {"type": kind, "name": name,
                    "from": source(gname), "to": rng.choice(states)}
        elif kind in ("pairwise", "async"):
            decl = {"type": kind, "name": name,
                    "send": [source(gname), rng.choice(states)],
                    "recv": [source(gname), rng.choice(states)]}
        elif kind == "negotiation":
            srcs = rng.sample(states, rng.randint(1, min(3, n)))
            decl = {"type": kind, "name": name,
                    "map": [[s, rng.choice(states)] for s in srcs]}
        else:
            room = [a for a in actions if len(a["sends"]) < 3]
            if not room:
                continue
            base = rng.choice(room)
            extra = rng.randint(1, 3 - len(base["sends"]))
            decl = {"type": kind, "name": name, "action": base["name"],
                    "witnesses": rng.sample(states, extra)}
            gname = None
        if gname:
            decl["guard"] = gname
        sugar.append(decl)

    doc = {"states": states, "init": states[0], "guards": guards,
           "actions": actions}
    if sugar:
        doc["sugar"] = sugar
    doc["property"] = {"target": rng.choice(states[1:]),
                       "count": rng.choice((1, 1, 2, 2, 3))}
    return doc
