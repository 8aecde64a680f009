"""Independent reference implementations used to cross-check the engines.

The multiset simulator re-derives firing semantics directly from the
action data (sends, receive map, guard) over explicit per-process state
multisets, sharing no code with the package's counter-vector paths.
The backward fixpoint reference is the textbook loop: each round unites
the basis with the predecessors of every basis element and re-minimizes
the union pairwise.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

from gspmc import semantics, wsts
from gspmc.model import SENDER


def multiset_enabled(states: Counter, action) -> bool:
    if not set(states) <= action.guard.members:
        return False
    need = Counter(s.src for s in action.sends)
    if action.kind == SENDER:
        return all(states[s] >= c for s, c in need.items())
    return any(states[s.src] > 0 for s in action.sends)


def multiset_fire(states: Counter, action) -> Counter:
    pool = Counter(states)
    landed: Counter = Counter()
    by_src: dict[int, list[int]] = {}
    for send in action.sends:  # declaration order = ascending send index
        by_src.setdefault(send.src, []).append(send.dst)
    for src, dsts in by_src.items():
        take = len(dsts) if action.kind == SENDER else min(pool[src], len(dsts))
        assert pool[src] >= take, "fired while not enabled"
        for dst in dsts[:take]:
            pool[src] -= 1
            landed[dst] += 1
    for s, c in pool.items():
        if c > 0:
            landed[action.receive_map[s]] += c
    return +landed


def multiset_successors(protocol, states: Counter):
    for action in protocol.actions:
        if multiset_enabled(states, action):
            yield action.name, multiset_fire(states, action)


def as_counter(q) -> Counter:
    return Counter({s: c for s, c in enumerate(q) if c})


def multiset_bfs(protocol, n: int, target: int, threshold: int,
                 max_states: int = 10**6):
    """Shortest distance (in steps) to >= threshold processes in target,
    or None when unreachable; explores the whole space."""
    start = Counter({protocol.init: n})

    def key(c: Counter):
        return tuple(sorted(c.items()))

    if start[target] >= threshold:
        return 0
    seen = {key(start)}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for cur in frontier:
            for _, succ in multiset_successors(protocol, cur):
                k = key(succ)
                if k in seen:
                    continue
                if succ[target] >= threshold:
                    return depth
                seen.add(k)
                nxt.append(succ)
                if len(seen) > max_states:
                    raise RuntimeError("oracle state budget exceeded")
        frontier = nxt
    return None


def reference_bfs(protocol, n: int, target: int, threshold: int):
    """(trace, explored) of the breadth-first search that the explicit
    engine specifies, over the multiset simulator.

    Configurations are expanded in the order they were discovered, and
    the successors of one in action declaration order; the first
    configuration to discover another is its parent. ``trace`` is
    ``[(None, q0), (action, q1), ...]`` as counter vectors, or None when
    the target count is unreachable; ``explored`` counts the
    configurations discovered when the search stops.
    """
    def vec(c: Counter):
        return tuple(c[s] for s in range(protocol.n_states))

    start = Counter({protocol.init: n})
    q0 = vec(start)
    if start[target] >= threshold:
        return [(None, q0)], 1
    parent = {q0: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for name, succ in multiset_successors(protocol, cur):
            key = vec(succ)
            if key in parent:
                continue
            parent[key] = (vec(cur), name)
            if succ[target] >= threshold:
                trace = []
                while parent[key] is not None:
                    prev, action = parent[key]
                    trace.append((action, key))
                    key = prev
                trace.append((None, q0))
                return trace[::-1], len(parent)
            queue.append(succ)
    return None, len(parent)


def grid_predecessors(protocol, wqo, b, limit: int = 6):
    """All grid vectors whose upward closure reaches the upward closure
    of ``b`` in at most one step, via the forward firing oracle."""
    n = protocol.n_states
    preds = set()
    for q in itertools.product(range(limit + 1), repeat=n):
        if not any(q):
            continue
        if wqo.leq(b, q):
            preds.add(q)
            continue
        for action in protocol.actions:
            if semantics.enabled(protocol, q, action):
                if wqo.leq(b, semantics.fire(protocol, q, action).successor):
                    preds.add(q)
                    break
    return preds


def pairwise_minimize(wqo, vectors):
    """Sorted minimal elements, comparing every pair with ``wqo.leq``."""
    vs = set(vectors)
    basis = [v for v in vs
             if not any(u != v and wqo.leq(u, v) for u in vs)]
    return tuple(sorted(basis))


def pred_basis(protocol, wqo, ucs):
    """Basis of Pred(U) united with U itself: one backward step of the
    engine, ``wsts._insert_preds`` into a ``wsts.Antichain``, for the
    grid oracles above to check."""
    chain = wsts.Antichain(wqo, ucs.basis)
    wsts._insert_preds(protocol, wqo, chain, ucs.basis, {})
    return wsts.Ucs(wqo, chain.basis())


def from_scratch_fixpoint(protocol, target, threshold):
    """(basis, iterations, min_n, witness) of the backward fixpoint,
    re-minimizing the whole predecessor set every round.

    Predecessors through one action come from the engine's own
    ``wsts._action_preds``, which the grid oracles check separately;
    this reference checks only the loop and the antichain around it.
    """
    wqo = wsts.wqo_for(protocol)
    start = wsts.target_basis(protocol, wqo, target, threshold).basis
    memo = {}
    basis = start
    iterations = 0
    while True:
        iterations += 1
        candidates = set(basis)
        for b in basis:
            for ai, action in enumerate(protocol.actions):
                if (ai, b) not in memo:
                    memo[ai, b] = wsts._action_preds(wqo, action, b)
                candidates |= memo[ai, b]
        step = pairwise_minimize(wqo, candidates)
        if step == basis:
            break
        basis = step
    covering = [b for b in basis
                if not any(c for s, c in enumerate(b) if s != protocol.init)]
    if not covering:
        return basis, iterations, None, None
    best = min(covering, key=lambda b: b[protocol.init])
    provenance = dict.fromkeys(start)
    for (ai, b), preds in memo.items():
        for c in preds:
            provenance.setdefault(c, (protocol.actions[ai].name, b))
    witness = []
    cur = best
    while provenance[cur] is not None:
        name, cur = provenance[cur]
        witness.append(name)
    return basis, iterations, best[protocol.init], tuple(witness)
