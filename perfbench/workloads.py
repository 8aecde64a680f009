"""The benchmark's three query workloads.

Each workload function fills ``files`` with the text of its model files,
named by their paths in a work directory, and returns the fixed query
list for one pass; the caller writes the files. The seed only renames
states and reorders the queries (:func:`protocols.relabel`); the
structural content of every workload is fixed, including the random
corpus of ``guarded-mix``, which is drawn from its own constant
generator seed. This keeps one pass the same amount of work under every
seed: the cost of a random protocol under ``verify`` is heavy-tailed
(a 300-protocol sample drawn per seed varied by more than 50% in total
time), which no bound on a throughput metric could absorb.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import protocols

FIXTURES = ("cutoff_witness.json", "smoke_detector.json",
            "smoke_detector_2sender.json", "smoke_detector_mutant.json")

# (k, m, clocks, count): ring-family verify queries, the shapes with
# k, m <= 5 and at most six clocks whose verify took at most about 0.3 s
# at the commit that introduced the benchmark. Counts above the clock
# count are unreachable. A hundred distinct queries put ten of them
# beyond p90; larger shapes such as (4, 5) and (5, 3) take seconds each
# and would leave too few passes per run for a per-query median.
BACKWARD_RING = (
    (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 1),
    (2, 2, 3, 2), (2, 2, 3, 3), (2, 2, 3, 4), (2, 2, 4, 1), (2, 2, 4, 2), (2, 2, 4, 3),
    (2, 2, 4, 4), (2, 2, 4, 5), (2, 2, 5, 1), (2, 2, 5, 2), (2, 2, 5, 3), (2, 2, 5, 4),
    (2, 2, 5, 5), (2, 2, 5, 6), (2, 2, 6, 1), (2, 2, 6, 2), (2, 2, 6, 3), (2, 2, 6, 4),
    (2, 2, 6, 5), (2, 2, 6, 6), (2, 2, 6, 7), (2, 3, 1, 1), (2, 3, 1, 2), (2, 3, 2, 1),
    (2, 3, 2, 2), (2, 3, 3, 1), (2, 3, 3, 2), (2, 3, 4, 1), (2, 3, 4, 2), (2, 3, 5, 1),
    (2, 3, 5, 2), (2, 4, 1, 1), (2, 4, 1, 2), (2, 4, 2, 1), (2, 4, 2, 2), (2, 4, 3, 1),
    (2, 4, 3, 2), (2, 4, 3, 3), (2, 4, 4, 1), (2, 4, 4, 2), (2, 4, 4, 3), (2, 4, 5, 1),
    (2, 4, 5, 2), (2, 4, 5, 3), (2, 5, 1, 1), (2, 5, 2, 1), (2, 5, 3, 1), (2, 5, 4, 1),
    (2, 5, 5, 1), (3, 2, 1, 1), (3, 2, 2, 1), (3, 2, 2, 2), (3, 2, 3, 1), (3, 2, 3, 2),
    (3, 2, 4, 1), (3, 2, 4, 2), (3, 2, 5, 1), (3, 2, 5, 2), (3, 3, 1, 1), (3, 3, 1, 2),
    (3, 3, 2, 1), (3, 3, 2, 2), (3, 3, 2, 3), (3, 3, 3, 1), (3, 3, 3, 2), (3, 3, 3, 3),
    (3, 3, 4, 1), (3, 3, 4, 2), (3, 3, 4, 3), (3, 3, 4, 4), (3, 3, 5, 1), (3, 3, 5, 2),
    (3, 3, 5, 3), (3, 3, 5, 4), (4, 2, 1, 1), (4, 2, 1, 2), (4, 2, 2, 1), (4, 2, 2, 2),
    (4, 2, 3, 1), (4, 2, 3, 2), (4, 2, 3, 3), (4, 2, 4, 1), (4, 2, 4, 2), (4, 2, 4, 3),
    (4, 2, 5, 1), (4, 2, 5, 2), (4, 2, 5, 3), (4, 4, 1, 1), (4, 4, 2, 1), (4, 4, 2, 2),
    (4, 4, 3, 1), (4, 4, 3, 2), (4, 4, 4, 1), (4, 4, 4, 2), (4, 4, 5, 1), (4, 4, 5, 2),
)

RING_LENGTH = 8
RING_KEYS = ((5, 3, 1), (4, 5, 1), (3, 4, 2), (2, 3, 2), (3, 5, 1),
             (4, 3, 1), (5, 2, 1), (2, 5, 1))


def forward_list():
    """Forward queries: (command, protocol key, n or max_n, target, count).

    The 8-state internal ring (key None; target a ring position, or None
    for the unreachable ``dead`` state) gives full explorations at
    n = 10 and 11, many early exits at n = 10..12 whose shortest trace
    is at most 8 steps long, and sweeps that stop at n = count after 16
    to 24 steps; those sweeps cost about as much as the queries around
    p90, which keeps the tail percentile off a gap between costs. The
    ring family is queried below, at and above its minimal size, with
    counts above its clock count (unreachable at any size), and swept up
    to just past the minimum.
    """
    out = [("mc", None, 10, None, 1), ("mc", None, 11, None, 1),
           ("mc", None, 10, 7, 10), ("mc", None, 12, 4, 6),
           ("mc", None, 11, 3, 5), ("mc", None, 10, 5, 3),
           ("sweep", None, 6, None, 1), ("sweep", None, 10, 7, 8)]
    out += [("sweep", None, 12, pos, c)
            for pos, c in ((3, 6), (4, 4), (4, 5), (5, 4), (6, 3), (6, 4),
                           (7, 3))]
    for n in (10, 11, 12):
        for pos in range(1, RING_LENGTH):
            out += [("mc", None, n, pos, c) for c in range(1, 8 // pos + 1)]
    for key in RING_KEYS:
        k, m, clocks = key
        min_n = protocols.ring_min_n(k, m, clocks, clocks)
        out += [("mc", key, n, "s_E", clocks)
                for n in (min_n - 1, min_n, min_n + 2)]
        out += [("mc", key, min_n + 1, "s_E", clocks + 1),
                ("sweep", key, min_n + 1, "s_E", clocks)]
    return out


GUARDED_CORPUS_SEED = "guarded-mix"
GUARDED_CORPUS_SIZE = 300


@dataclass
class Query:
    """One ``cli.run`` call plus what the checker needs to judge it."""

    qid: str
    argv: list[str]
    model: str
    expect: dict


def _write(files: dict, workdir: Path, name: str, doc: dict) -> str:
    """Add a model file to ``files`` (path -> text) and return its path."""
    path = str(workdir / f"{name}.json")
    files[path] = json.dumps(doc, indent=1)
    return path


def _ring_file(cache, files, rng, workdir, key):
    if key not in cache:
        doc, names = protocols.relabel(protocols.ring_family(*key), rng)
        path = _write(files, workdir, "ring-{}-{}-{}".format(*key), doc)
        cache[key] = (path, names)
    return cache[key]


def backward_ring(seed: int, workdir: Path, root: Path,
                  files: dict) -> list[Query]:
    rng = random.Random(seed)
    rings = {}
    queries = []
    for k, m, clocks, count in BACKWARD_RING:
        path, names = _ring_file(rings, files, rng, workdir, (k, m, clocks))
        queries.append(Query(
            f"ring({k},{m},clocks={clocks}) verify s_E>={count}",
            ["verify", path, "--target", names["s_E"], "--count", str(count),
             "--json"],
            path,
            {"kind": "ring", "k": k, "m": m, "clocks": clocks,
             "count": count, "target": names["s_E"]}))
    rng.shuffle(queries)
    return queries


def forward_bfs(seed: int, workdir: Path, root: Path,
                files: dict) -> list[Query]:
    rng = random.Random(seed)
    doc, ring_names = protocols.relabel(protocols.internal_ring(RING_LENGTH), rng)
    iring = _write(files, workdir, "internal-ring", doc)
    rings = {}
    queries = []
    for cmd, key, size, pos, count in forward_list():
        flag = "--n" if cmd == "mc" else "--max"
        if key is None:
            state = "dead" if pos is None else f"r{pos}"
            path, target = iring, ring_names[state]
            qid = f"internal-ring {cmd} {flag[2:]}={size} {state}>={count}"
            expect = {"kind": "internal-ring", "cmd": cmd, "size": size,
                      "pos": pos, "count": count, "length": RING_LENGTH,
                      "target": target}
        else:
            path, names = _ring_file(rings, files, rng, workdir, key)
            k, m, clocks = key
            target = names["s_E"]
            qid = (f"ring({k},{m},clocks={clocks}) {cmd} "
                   f"{flag[2:]}={size} s_E>={count}")
            expect = {"kind": "ring", "cmd": cmd, "k": k, "m": m,
                      "clocks": clocks, "size": size, "count": count,
                      "target": target}
        queries.append(Query(qid, [cmd, path, flag, str(size), "--target",
                                   target, "--count", str(count), "--json"],
                             path, expect))
    rng.shuffle(queries)
    return queries


def guarded_mix(seed: int, workdir: Path, root: Path,
                files: dict) -> list[Query]:
    rng = random.Random(seed)
    docs = [(f"p{i:03d}", protocols.random_model(
                random.Random(f"{GUARDED_CORPUS_SEED}-{i}")))
            for i in range(GUARDED_CORPUS_SIZE)]
    fixtures = root / "src" / "gspmc" / "fixtures"
    for name in FIXTURES:
        docs.append((name.removesuffix(".json"), json.loads(
            (fixtures / name).read_text(encoding="utf-8"))))
    rng.shuffle(docs)
    queries = []
    for name, doc in docs:
        relabelled, _ = protocols.relabel(doc, rng)
        path = _write(files, workdir, name, relabelled)
        for cmd in ("certify", "verify", "cutoff"):
            queries.append(Query(f"{name} {cmd}", [cmd, path, "--json"], path,
                                 {"kind": "mix", "cmd": cmd, "protocol": name}))
    return queries


WORKLOADS = {
    "backward-ring": backward_ring,
    "forward-bfs": forward_bfs,
    "guarded-mix": guarded_mix,
}
