"""Seeded random protocol generation for the oracle-equivalence suites.

Sender sources stay inside their action's guard. Guarded protocols are
rejection-sampled until certification passes, matching the scope of the
guard-refined engine.
"""

from __future__ import annotations

import random

from gspmc import model, wellbehaved


def random_raw(rng: random.Random, *, max_states: int = 5,
               max_actions: int = 4, max_arity: int = 2,
               max_guards: int = 2, min_guards: int = 0,
               guard_bias: float = 0.5) -> dict:
    n = rng.randint(2, max_states)
    states = [f"S{i}" for i in range(n)]
    guards: dict[str, list[str]] = {}
    for gi in range(rng.randint(min_guards, max_guards)):
        guards[f"G{gi}"] = rng.sample(states, rng.randint(1, n))
    actions = []
    for ai in range(rng.randint(1, max_actions)):
        kind = rng.choice(["sender", "maximal"])
        gname = (rng.choice(list(guards))
                 if guards and rng.random() < guard_bias else None)
        pool = guards[gname] if gname else states
        sends = [[rng.choice(pool), rng.choice(states)]]
        while len(sends) < max_arity and rng.random() < 0.5:
            sends.append([rng.choice(pool), rng.choice(states)])
        receives = [[s, rng.choice(states)]
                    for s in states if rng.random() < 0.4]
        entry: dict = {"name": f"a{ai}", "kind": kind, "sends": sends,
                       "receives": receives}
        if gname:
            entry["guard"] = gname
        actions.append(entry)
    return {"states": states, "init": states[0], "guards": guards,
            "actions": actions}


def random_protocol(rng: random.Random, *, certified_only: bool = True,
                    require_guarded: bool = False, **kw) -> model.Protocol:
    if require_guarded:
        kw.setdefault("min_guards", 1)
        kw.setdefault("guard_bias", 0.8)
    while True:
        p = model.validate(random_raw(rng, **kw))
        if require_guarded and p.is_unguarded:
            continue
        if not certified_only or p.is_unguarded:
            return p
        if wellbehaved.certify(p).well_behaved:
            return p


def unguarded_protocol(rng: random.Random, **kw) -> model.Protocol:
    kw.update(max_guards=0, min_guards=0)
    return model.validate(random_raw(rng, **kw))
