"""Cutoff detection: when checking m processes suffices for all n >= m.

A local transition is *free* when firing it never requires cooperation
from other processes beyond guard satisfaction: internal moves, the
send edges of single-sender and maximal actions, and receive edges
backed by a matching send of a negotiation sibling. Siblings are read
off the protocol's structure: single-send actions that share their
guard and receive map are siblings of each other, and a multi-send
action is its own only sibling. Reaching a target state along free
transitions only cannot be blocked by adding processes, so under any of
three structural conditions the parameterized query "m processes in the
target" collapses to an explicit check with exactly n = m processes:

- L1: every action is internal or negotiation-shaped;
- L2: every path from the initial state to the target is free;
- L3: some simple free paths exist and every broadcast interacts with
  them only in recoverable ways (receives stay on the paths, or an
  internal move re-enters them, or the detour region is free, acyclic
  and always leads back).

Nothing here depends on how the model file was written: a model and
its desugared core form get the same verdict. The lemmas assume a
certified well-behaved protocol; :func:`certified_cutoff_check`
certifies before it applies them.
"""

from __future__ import annotations

from dataclasses import dataclass

from gspmc import explicit, wellbehaved
from gspmc.model import MAXIMAL, Protocol, is_internal, reachable

DEFAULT_PATH_BUDGET = 10**5

FREE_INTERNAL = "internal"
FREE_SEND = "send-of-broadcast-or-maximal"
FREE_NEGOTIATION = "negotiation-style-receive"


class PathBudgetExceeded(Exception):
    def __init__(self, budget: int):
        super().__init__(f"more than {budget} simple free paths")
        self.budget = budget


@dataclass(frozen=True)
class Edge:
    """One local transition: a send slot or a state-changing receive."""

    action: str
    role: str  # "send" | "receive"
    src: int
    dst: int
    free: bool
    reason: str | None  # set when free
    index: int  # send slot, or receive source (disambiguates parallels)


@dataclass(frozen=True)
class CutoffVerdict:
    """Outcome of the end-to-end cutoff pipeline for one query."""

    amenable: bool
    lemma: str | None
    cutoff: int | None
    holds: bool | None  # the lifted verdict, valid for every n >= cutoff
    result: explicit.FixedResult | None
    witness: str | None


def _sibling_sends(protocol: Protocol) -> dict[str, set[tuple[int, int]]]:
    """For each action name, the (src, dst) moves sent by its siblings.

    Single-send actions sharing guard and receive map are siblings (a
    negotiation, however it was written); a multi-send action only
    matches its own sends.
    """
    def key(a):
        return (a.guard.members, a.receive_map) if len(a.sends) == 1 else a.name

    by_key: dict = {}
    for a in protocol.actions:
        by_key.setdefault(key(a), set()).update((s.src, s.dst) for s in a.sends)
    return {a.name: by_key[key(a)] for a in protocol.actions}


def classify_free(protocol: Protocol) -> tuple[Edge, ...]:
    """Classify every local transition of the protocol.

    Receive self-loops are omitted: they move no process and play no
    role in the path conditions.
    """
    siblings = _sibling_sends(protocol)
    edges = []
    for a in protocol.actions:
        if is_internal(a):
            send_free, reason = True, FREE_INTERNAL
        elif a.kind == MAXIMAL or a.arity == 1:
            send_free, reason = True, FREE_SEND
        else:
            send_free, reason = False, None
        for i, s in enumerate(a.sends):
            edges.append(Edge(a.name, "send", s.src, s.dst,
                              send_free, reason, i))
        for src, dst in enumerate(a.receive_map):
            if src == dst:
                continue
            matched = (src, dst) in siblings[a.name]
            edges.append(Edge(a.name, "receive", src, dst, matched,
                              FREE_NEGOTIATION if matched else None, src))
    return tuple(edges)


def check_lemma1(protocol: Protocol) -> bool:
    """Every action internal or negotiation-shaped: every state's
    reachability is then synchronization-independent.

    A negotiation-shaped action has one send, which is one of its own
    receive moves, and its siblings send every one of those moves.
    """
    siblings = _sibling_sends(protocol)

    def shaped(a):
        moves = {(src, dst) for src, dst in enumerate(a.receive_map)
                 if src != dst}
        return (len(a.sends) == 1 and (a.sends[0].src, a.sends[0].dst) in moves
                and moves <= siblings[a.name])

    return all(is_internal(a) or shaped(a) for a in protocol.actions)


def check_lemma2(protocol: Protocol, target: int) -> bool:
    """No non-free edge lies on any initial-to-target path in the local
    transition graph."""
    edges = classify_free(protocol)
    n = protocol.n_states
    fwd = [set() for _ in range(n)]
    back = [set() for _ in range(n)]
    for e in edges:
        fwd[e.src].add(e.dst)
        back[e.dst].add(e.src)
    from_init = reachable(fwd, protocol.init)
    to_target = reachable(back, target)
    return not any(e.src in from_init and e.dst in to_target
                   for e in edges if not e.free)


def _free_paths(protocol, edges, target, budget):
    """All simple paths from the initial state to the target over free
    edges. Parallel edges (distinct action/slot labels between the same
    states) yield distinct paths."""
    by_src: dict[int, list[Edge]] = {}
    for e in edges:
        if e.free:
            by_src.setdefault(e.src, []).append(e)
    paths = []

    def dfs(state, path, visited):
        if state == target:
            paths.append(tuple(path))
            if len(paths) > budget:
                raise PathBudgetExceeded(budget)
            return
        for e in by_src.get(state, ()):
            if e.dst in visited:
                continue
            path.append(e)
            visited.add(e.dst)
            dfs(e.dst, path, visited)
            visited.discard(e.dst)
            path.pop()

    dfs(protocol.init, [], {protocol.init})
    return paths


def _region_recovers(src, path_states, out_edges) -> bool:
    """Check the detour region entered at ``src``: every continuation
    must re-enter the path states along free edges, with no sinks and
    no cycles off the paths."""
    visited = set()
    stack = [src]
    while stack:
        u = stack.pop()
        if u in visited:
            continue
        visited.add(u)
        outs = out_edges[u]
        if not outs:
            return False  # stuck off the paths
        for e in outs:
            if not e.free:
                return False
            if e.dst not in path_states and e.dst not in visited:
                stack.append(e.dst)
    # any cycle within the off-path region never leads back
    state = {u: 0 for u in visited}  # 0 new, 1 on stack, 2 done

    def cyclic(u):
        state[u] = 1
        for e in out_edges[u]:
            if e.dst in path_states:
                continue
            if state.get(e.dst) == 1:
                return True
            if state.get(e.dst) == 0 and cyclic(e.dst):
                return True
        state[u] = 2
        return False

    return not any(state[u] == 0 and cyclic(u) for u in sorted(visited))


def check_lemma3(protocol: Protocol, target: int, *,
                 path_budget: int = DEFAULT_PATH_BUDGET) -> str | None:
    """Free-path analysis: does every send transition interact with the
    simple free paths only in recoverable ways? Returns ``None`` when
    lemma L3 applies, else the obstruction.

    For a send off the paths, every receive moving a process away from
    a path state must keep it on the path states. For a send on the
    paths, a receive leaving the path states needs either an internal
    move from the receive's source back onto them, or a detour region
    that is free, acyclic and always returns.
    """
    names = protocol.state_names
    edges = classify_free(protocol)
    paths = _free_paths(protocol, edges, target, path_budget)
    if not paths:
        return f"no simple free path from the initial state to {names[target]}"
    path_edges = {(e.src, e.dst) for p in paths for e in p}
    path_states = {protocol.init} | {e.dst for p in paths for e in p}
    out_edges = [[] for _ in range(protocol.n_states)]
    for e in edges:
        out_edges[e.src].append(e)
    internal_moves = {(e.src, e.dst) for e in edges
                      if e.reason == FREE_INTERNAL}

    for send in (e for e in edges if e.role == "send"):
        receives = [e for e in edges
                    if e.role == "receive" and e.action == send.action
                    and e.src in path_states]
        if (send.src, send.dst) not in path_edges:
            for r in receives:
                if r.dst not in path_states:
                    return (f"send {names[send.src]}->{names[send.dst]} of "
                            f"{send.action} is off the free paths but its "
                            f"receive {names[r.src]}->{names[r.dst]} drags a "
                            f"path state off them")
            continue
        for r in receives:
            if (r.src, r.dst) in path_edges or r.dst in path_states:
                continue
            if any(d in path_states for s, d in internal_moves
                   if s == r.src):
                continue  # the process can dodge the receive by moving
                # internally back onto the paths before the send fires
            if not _region_recovers(r.dst, path_states, out_edges):
                return (f"receive {names[r.src]}->{names[r.dst]} of "
                        f"{send.action} leaves the free paths without a free "
                        f"way back")
    return None


def certified_cutoff_check(protocol: Protocol, target: int, threshold: int, *,
                           state_budget: int = explicit.DEFAULT_STATE_BUDGET,
                           path_budget: int = DEFAULT_PATH_BUDGET) -> CutoffVerdict:
    """Decide "at least ``threshold`` processes reach ``target``" for every
    system size at once, when a cutoff lemma applies.

    The query is checked first and certification runs next; then the
    cheapest applicable lemma (L1, then L2, then L3) justifies checking
    exactly ``threshold`` processes and lifting that verdict to all
    larger systems.
    """
    query = explicit.ReachQuery(target, threshold, threshold)
    if not wellbehaved.certify(protocol).well_behaved:
        return CutoffVerdict(False, None, None, None, None,
                             "protocol is not certified well-behaved")
    if check_lemma1(protocol):
        lemma = "L1"
    elif check_lemma2(protocol, target):
        lemma = "L2"
    else:
        obstruction = check_lemma3(protocol, target, path_budget=path_budget)
        if obstruction is not None:
            return CutoffVerdict(False, None, None, None, None, obstruction)
        lemma = "L3"
    fixed = explicit.check_fixed(protocol, query, state_budget=state_budget)
    return CutoffVerdict(True, lemma, threshold, fixed.reachable, fixed, None)
