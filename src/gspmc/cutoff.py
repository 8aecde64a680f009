"""Cutoff detection: when checking m processes suffices for all n >= m.

A local transition is *free* when firing it never requires cooperation
from other processes beyond guard satisfaction: internal moves, the
send edges of single-sender and maximal actions, and receive edges
backed by a matching send of a negotiation sibling. Siblings are
single-send actions that share their guard and receive map; a
multi-send action has none. A maximal action's send slot is not free
when its source has a slot to another destination, as the number of
processes there decides which slots fire. Reaching a target state along
free transitions only cannot be blocked by adding processes, so under
any of three structural conditions the parameterized query "m processes
in the target" collapses to an explicit check with exactly n = m
processes:

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

from typing import NamedTuple

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


class Edge(NamedTuple):
    """One local transition: a send slot or a state-changing receive."""

    action: str
    role: str  # "send" | "receive"
    src: int
    dst: int
    free: bool
    reason: str | None  # set when free
    index: int  # send slot, or receive source (disambiguates parallels)


class CutoffVerdict(NamedTuple):
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
    negotiation, however it was written); a multi-send action has none.
    """
    def key(a):
        return (a.guard.members, a.moves) if len(a.sends) == 1 else a.name

    by_key: dict = {}
    for a in protocol.actions:
        if len(a.sends) == 1:
            by_key.setdefault(key(a), set()).update(a.sends)
    return {a.name: by_key.get(key(a), set()) for a in protocol.actions}


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
            free = send_free and not (a.kind == MAXIMAL and any(
                o.src == s.src and o.dst != s.dst for o in a.sends))
            edges.append(Edge(a.name, "send", s.src, s.dst,
                              free, reason if free else None, i))
        for src, dst in a.moves:
            matched = (src, dst) in siblings[a.name]
            edges.append(Edge(a.name, "receive", src, dst, matched,
                              FREE_NEGOTIATION if matched else None, src))
    return tuple(edges)


def check_lemma1(protocol: Protocol) -> bool:
    """Every action internal or negotiation-shaped: every state's
    reachability is then synchronization-independent.

    A negotiation-shaped action has one send, which is one of its own
    receive moves, and its siblings send every one of those moves.

    L1 implies L2 at every target, so it only picks the label. An
    internal action's send is ``FREE_INTERNAL`` and it has no receive
    move. A negotiation-shaped action's one send is a free arity-1
    send, and each of its receive moves is sent by a sibling, so it is
    a free negotiation-style receive. Every local edge is then free,
    and no non-free edge lies on any path.
    """
    siblings = _sibling_sends(protocol)

    def shaped(a):
        moves = set(a.moves)
        return len(a.sends) == 1 and a.sends[0] in moves and moves <= siblings[a.name]

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
    paths, path, visited = [], [], {protocol.init}
    stack = []  # the out-edges left to try, per state on the path

    def enter(state):
        if state == target:
            paths.append(tuple(path))
            if len(paths) > budget:
                raise PathBudgetExceeded(budget)
            return False
        stack.append(iter(by_src.get(state, ())))
        return True

    enter(protocol.init)
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if path:
                visited.discard(path.pop().dst)
        elif e.dst not in visited:
            path.append(e)
            if enter(e.dst):
                visited.add(e.dst)
            else:
                path.pop()
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
    state = dict.fromkeys(visited, 0)  # 0 new, 1 on stack, 2 done
    for root in sorted(visited):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(out_edges[root]))]
        while stack:
            u, outs = stack[-1]
            e = next(outs, None)
            if e is None:
                state[u] = 2
                stack.pop()
            elif e.dst not in path_states:
                if state.get(e.dst) == 1:
                    return False
                if state.get(e.dst) == 0:
                    state[e.dst] = 1
                    stack.append((e.dst, iter(out_edges[e.dst])))
    return True


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

    The query and the budgets are checked first and certification runs
    next; then the cheapest applicable lemma (L1, then L2, then L3)
    justifies checking exactly ``threshold`` processes and lifting that
    verdict to all larger systems.
    """
    query = explicit.ReachQuery(target, threshold, threshold)
    explicit.require_budget(state_budget, "state")
    explicit.require_budget(path_budget, "path")
    if not wellbehaved.certify(protocol, verdict_only=True):
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
