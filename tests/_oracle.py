"""Independent reference implementations used to cross-check the engines.

The multiset simulator re-derives firing semantics directly from the
action data (sends, receive map, guard) over explicit per-process state
multisets, sharing no code with the package's counter-vector paths.
The backward fixpoint reference is the textbook loop: each round unites
the basis with the predecessors of every basis element and re-minimizes
the union pairwise. The guard-inclusion preorder is restated as a
boolean matrix over the used guards. The guard-refined predecessor
enumeration over every surplus support, the component-wise placement
enumeration, the target basis over every 0/1 occupancy of the other
states, and the antichain that scans a whole profile group per insert,
are the engine's earlier forms, kept as references for the one
predecessor construction, the bounded target basis and the
support-bucketed antichain. The two-pass certifier (strong conditions,
then the weak ones in a second walk, then C3w) is the earlier form of
``wellbehaved.certify``'s single walk; it reads the preorder matrix and
an internal-move search of its own, not the package's ``StateOrder``
and ``InternalReach``. The per-entry successor evaluation is the
packed kernel's loop over ``rest``, applied to every table, and the
reference for its nonzero-digit memo over ``head``; the same scan,
naming the first action that makes a step, is the reference for the
trace's step names. The packed tables built from ``Action.outcomes``
for every action are the reference for the single-source senders'
tables built from their sends. The generic firing rule, a product of
every source's slot combinations with a tally of its own, is the
reference for ``Action.outcomes``, which counts whole sources into one
base. The participations, ``(u, uplus, allowed)`` per outcome of every
key of the caps box that takes no sender from outside the guard, are
the reference for the keys ``wsts._pred_table`` enumerates and the
outcomes it reads from ``Action.outcomes``, and the support bound stepped
through every one of them is the reference for ``wsts.support_bound``,
which takes one dominating step per action. The entry mask read off
each action's sends and receive map is the reference for the one that
``wsts.decide`` takes from its support-bound pass.
The compositions of a total into parts are every tuple of the box up
to the total that sums to it, the reference for ``wsts._placements``'s
stars and bars. ``validate`` is the earlier form of ``model.validate``,
which reads each field through a helper that names its context and
expands each sugar declaration through ``desugar``: the reference for
the one-pass validator's protocols, messages and check order.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from operator import le

from dataclasses import dataclass

from gspmc import semantics, wsts
from gspmc.model import (MAXIMAL, SENDER, TRIVIAL_GUARD_NAME, Action, Guard,
                         Protocol, Send, ValidationError, is_internal)
from gspmc.wellbehaved import ActionStatus, GuardCompatReport, Violation


def multiset_fire(states: Counter, action) -> list[Counter]:
    """Every distinct successor multiset of firing the action from
    ``states``, empty when it is disabled.

    A source state with c processes and k send slots offers min(c, k)
    senders (a sender action needs all k), and those senders take any
    min(c, k) of its slots. Outcomes come in the order the engine
    documents: the slot choices of the sources in ascending state order,
    each source's choices as combinations of its slots in declaration
    order, the first choice reaching a successor kept.
    """
    if not set(states) <= action.guard.members:
        return []
    slots: dict[int, list[int]] = {}
    for send in action.sends:  # declaration order = ascending send index
        slots.setdefault(send.src, []).append(send.dst)
    sources = sorted(slots)
    takes = []
    for src in sources:
        take = min(states[src], len(slots[src]))
        if action.kind == SENDER and take < len(slots[src]):
            return []
        takes.append(take)
    if not any(takes):
        return []
    out: list[Counter] = []
    for choice in itertools.product(*(
            itertools.combinations(slots[src], take)
            for src, take in zip(sources, takes))):
        pool = Counter(states)
        landed: Counter = Counter()
        for src, dsts in zip(sources, choice):
            for dst in dsts:
                pool[src] -= 1
                landed[dst] += 1
        for s, c in pool.items():
            if c > 0:
                landed[action.receive_map[s]] += c
        landed = +landed
        if landed not in out:
            out.append(landed)
    return out


def multiset_successors(protocol, states: Counter):
    for action in protocol.actions:
        for succ in multiset_fire(states, action):
            yield action.name, succ


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


def per_entry_successors(packed, code):
    """``semantics.successors`` as each action's table says, tested one
    table at a time in declaration order: the kernel's loop over
    ``rest``, which its nonzero-digit memo over ``head`` must reproduce."""
    out = []
    for outside, field, need, moved, deltas, _ in packed.actions:
        if code & outside:
            continue
        if need:
            if code & field < need:
                continue
        else:
            deltas = deltas[code & field]
        base = code + sum((code >> shift & packed.mask) * step
                          for shift, step in moved)
        out += [base + delta for delta in deltas]
    return out


def firing_action(packed, code, succ):
    """Name of the first action, in declaration order, one of whose
    outcomes takes ``code`` to ``succ``, every table scanned as the
    kernel scans ``rest``: the reference for ``semantics.step_names``."""
    for outside, field, need, moved, deltas, name in packed.actions:
        if code & outside or code & field < need:
            continue
        if not need:
            deltas = deltas[code & field]
        base = code + sum((code >> shift & packed.mask) * step
                          for shift, step in moved)
        if succ - base in deltas:
            return name


def packed_action(action, width):
    """``semantics._packed_action`` as it was built from the firing rule
    itself: ``outside`` and ``moved`` from a walk over every state,
    ``field`` from ``Action.sources``, and a single-source sender's
    ``need`` and one delta from its ``caps`` and ``Action.outcomes``."""
    mask = (1 << width) - 1
    outside = field = 0
    moved = []
    for s, r in enumerate(action.receive_map):
        if s not in action.guard.members:
            outside |= mask << width * s
        if r != s:
            moved.append((width * s, (1 << width * r) - (1 << width * s)))
    for s in action.sources:
        field |= mask << width * s
    if action.kind == SENDER and len(action.sources) == 1:
        (s,), (cap,) = action.sources, action.caps
        ((_, uplus),) = action.outcomes(action.caps)
        delta = (sum(c << width * t for t, c in enumerate(uplus))
                 - (cap << width * action.receive_map[s]))
        return outside, field, cap << width * s, tuple(moved), (delta,), action.name
    return (outside, field, 0, tuple(moved), semantics._Deltas(action, width),
            action.name)


def reference_outcomes(action, key):
    """``Action.outcomes`` by its generic formula, read off ``sends``
    alone: one tally per element of the :func:`itertools.product` over
    every source (ascending state) of the :func:`itertools.combinations`
    of its slots (ascending send index), whole sources included, the
    first of each distinct ``uplus`` kept; none for the zero key, nor
    for a sender action's key below some source's slot count."""
    slots = {}
    for send in action.sends:
        slots.setdefault(send.src, []).append(send.dst)
    sources = sorted(slots)
    if not any(key) or (action.kind == SENDER and list(key) != [
            len(slots[s]) for s in sources]):
        return ()
    n = len(action.receive_map)
    u = [0] * n
    for s, k in zip(sources, key):
        u[s] = k
    out = {}
    for taken in itertools.product(*(itertools.combinations(slots[s], k)
                                     for s, k in zip(sources, key))):
        uplus = [0] * n
        for slot_dsts in taken:
            for t in slot_dsts:
                uplus[t] += 1
        out.setdefault(tuple(uplus))
    return tuple((tuple(u), uplus) for uplus in out)


def participations(action):
    """``(u, uplus, allowed)`` per outcome of ``action``, by calling
    ``outcomes`` on every key of the caps box and dropping each key that
    takes a sender from outside the guard; ``allowed`` lists the guard's
    states that no key below its source's cap pins."""
    guard = action.guard.members
    out = []
    for key in itertools.product(*(range(c + 1) for c in action.caps)):
        if any(k and s not in guard for s, k in zip(action.sources, key)):
            continue
        pinned = {s for s, k, c in zip(action.sources, key, action.caps)
                  if k < c}
        allowed = tuple(sorted(guard - pinned))
        for u, uplus in action.outcomes(key):
            out.append((u, uplus, allowed))
    return tuple(out)


def nonzero(b):
    """The (state, count) pairs of b's non-zero entries: the ``need``
    that ``wsts._action_preds`` reads."""
    return [(t, x) for t, x in enumerate(b) if x]


def compositions(total, parts):
    """Every way to split ``total`` into ``parts`` non-negative summands,
    in lexicographic order, read off the whole box."""
    return [c for c in itertools.product(range(total + 1), repeat=parts)
            if sum(c) == total]


def unfiltered_table(action):
    """``wsts._pred_table`` of ``action`` under the one-element bound of
    every state, which keeps every key the action fires on and cuts no
    allowed state."""
    return wsts._pred_table(action, ((1 << len(action.receive_map)) - 1,))


def support_bound(protocol):
    """``wsts.support_bound`` stepped through :func:`participations`:
    from {init}, each element M and each participation with supp(u)
    inside M give supp(uplus) | R(M & allowed), R the receive map, and
    only the maximal masks are kept, ascending."""
    def mask(states):
        return sum(1 << s for s in set(states))

    steps = {(mask(s for s, c in enumerate(u) if c),
              mask(s for s, c in enumerate(uplus) if c),
              mask(allowed), action.receive_map)
             for action in protocol.actions
             for u, uplus, allowed in participations(action)}
    bound, work = {1 << protocol.init}, [1 << protocol.init]
    while work:
        m = work.pop()
        if m not in bound:
            continue
        for used, sent, allowed, rmap in steps:
            if used & ~m:
                continue
            succ = sent | mask(rmap[s] for s in range(len(rmap))
                               if (m & allowed) >> s & 1)
            if any(not succ & ~e for e in bound):
                continue
            bound = {e for e in bound if e & ~succ}
            bound.add(succ)
            work.append(succ)
    return tuple(sorted(bound))


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
            if any(wqo.leq(b, succ)
                   for succ in semantics.fire(q, action)):
                preds.add(q)
                break
    return preds


def state_order_matrix(protocol):
    """``m[t][s]``: whether every used guard that contains s also
    contains t, the guard-inclusion preorder as an n-by-n matrix."""
    guards = [g.members for g in protocol.used_guards()]
    n = protocol.n_states
    return [[all(t in g for g in guards if s in g) for s in range(n)]
            for t in range(n)]


def state_order_below_set(protocol, t, dests):
    """Whether every used guard that contains all of ``dests`` contains t."""
    ds = set(dests)
    return all(t in g.members for g in protocol.used_guards() if ds <= g.members)


def internal_reach(protocol, bound):
    """``reach[s]``: the set of states that internal moves whose guard
    holds every state of ``bound`` lead to from s, s included, by a
    depth-first search from each state."""
    succ = [[] for _ in range(protocol.n_states)]
    for a in protocol.actions:
        if is_internal(a) and bound <= a.guard.members:
            succ[a.sends[0].src].append(a.sends[0].dst)
    reach = []
    for s in range(protocol.n_states):
        seen, stack = {s}, [s]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    return reach


def pairwise_minimize(wqo, vectors):
    """Sorted minimal elements, comparing every pair with ``wqo.leq``."""
    vs = set(vectors)
    basis = [v for v in vs
             if not any(u != v and wqo.leq(u, v) for u in vs)]
    return tuple(sorted(basis))


class LinearAntichain:
    """Minimal elements of the inserted vectors, one flat list per guard
    profile, scanned whole for "covered" and for eviction."""

    def __init__(self, wqo, vectors=()):
        self._profile = wqo.profile
        self._groups = {}
        for q in vectors:
            self.insert(q)

    def insert(self, q):
        group = self._groups.setdefault(self._profile(q), [])
        if any(all(map(le, b, q)) for b in group):
            return
        group[:] = [b for b in group if not all(map(le, q, b))]
        group.append(q)

    def basis(self):
        return tuple(sorted(itertools.chain.from_iterable(self._groups.values())))


def full_target_basis(protocol, wqo, target, threshold):
    """Basis of {q : q(target) >= threshold}: the threshold on the
    target and every 0/1 occupancy of the other states, minimized."""
    n = protocol.n_states
    others = [s for s in range(n) if s != target]
    candidates = []
    for bits in itertools.product((0, 1), repeat=len(others)):
        q = [0] * n
        q[target] = threshold
        for s, bit in zip(others, bits):
            q[s] = bit
        candidates.append(tuple(q))
    return LinearAntichain(wqo, candidates).basis()


def componentwise_preds(action, b):
    """Component-wise predecessors of ``b`` through one action: per
    participation, the senders plus each deficit spread over its
    allowed preimages in every way. Not minimized."""
    found = set()
    for u, uplus, allowed in participations(action):
        per_dest = []
        for t, (x, y) in enumerate(zip(b, uplus)):
            if x > y:
                slots = [s for s in allowed if action.receive_map[s] == t]
                if not slots:
                    break
                per_dest.append((slots, compositions(x - y, len(slots))))
        else:
            for choice in itertools.product(*(o for _, o in per_dest)):
                q = list(u)
                for (slots, _), counts in zip(per_dest, choice):
                    for s, c in zip(slots, counts):
                        q[s] += c
                found.add(tuple(q))
    return found


def exhaustive_refined_preds(wqo, action, b):
    """Guard-refined predecessors of ``b`` through one action over every
    surplus support rho of every participation: a receiver on each
    state of rho, each deficit covered by rho's preimages of its
    destination (one per slot, or every positive split when there are
    fewer slots than the deficit), kept when the successor's support
    ``supp(uplus) | R(rho)`` has b's guard profile. Not minimized."""
    profile = wqo.profile(b)
    found = set()
    for u, uplus, allowed in participations(action):
        deficits = [x - y if x > y else 0 for x, y in zip(b, uplus)]
        sent = sum(1 << t for t, c in enumerate(uplus) if c)
        for r_size in range(len(allowed) + 1):
            for rho in itertools.combinations(allowed, r_size):
                per_dest = []
                reached = 0
                for t, deficit in enumerate(deficits):
                    slots = [s for s in rho if action.receive_map[s] == t]
                    if deficit and not slots:
                        break
                    if slots:
                        per_dest.append((slots, [
                            tuple(c + 1 for c in comp) for comp in
                            compositions(max(deficit - len(slots), 0),
                                         len(slots))]))
                        reached |= 1 << t
                else:
                    if wqo.support_profile(sent | reached) != profile:
                        continue
                    for choice in itertools.product(*(o for _, o in per_dest)):
                        q = list(u)
                        for (slots, _), counts in zip(per_dest, choice):
                            for s, c in zip(slots, counts):
                                q[s] += c
                        found.add(tuple(q))
    return found


def entry_mask(action):
    """The states the action moves a process into: its send destinations
    and the images of the states its receive map moves. The reference
    for the entry masks that ``wsts.decide`` takes from its support-bound
    pass over each action."""
    return sum(1 << t for t in {send.dst for send in action.sends}.union(
        t for s, t in enumerate(action.receive_map) if s != t))


def pred_basis(protocol, wqo, ucs):
    """Basis of Pred(U) united with U itself: one backward step of the
    engine, ``wsts._insert_preds`` into a ``wsts.Antichain`` with no
    support pruning, for the grid oracles above to check. Under the
    component-wise order it skips the actions whose entry mask misses an
    element's support, as ``wsts.decide`` does."""
    chain = wsts.Antichain(wqo, ucs.basis)
    tables = [(a, unfiltered_table(a), -1 if wqo.guards else entry_mask(a))
              for a in protocol.actions]
    wsts._insert_preds(wqo, tables, chain, ucs.basis,
                       provenance=dict.fromkeys(ucs.basis),
                       keep=lambda supp: True)
    return wsts.Ucs(wqo, chain.basis())


def from_scratch_fixpoint(protocol, target, threshold, supports=None):
    """(basis, iterations, min_n, witness) of the backward fixpoint,
    re-minimizing the whole predecessor set every round.

    Predecessors through one action come from the engine's own
    ``wsts._action_preds``, which the grid oracles check separately;
    this reference checks only the loop and the antichain around it.
    With ``supports``, a list of state bitmasks, it keeps only the
    target-basis elements and predecessors whose occupied states all
    lie in one of them; without, it is the unpruned fixpoint.
    """
    def kept(q):
        return supports is None or any(
            all(not c or m >> s & 1 for s, c in enumerate(q)) for m in supports)

    wqo = wsts.wqo_for(protocol)
    start = tuple(filter(kept, wsts.target_basis(
        protocol, wqo, target, threshold).basis))
    memo = {}
    basis = start
    iterations = 0
    while basis:  # an empty basis is a fixpoint before any round
        iterations += 1
        candidates = set(basis)
        for b in basis:
            for ai, action in enumerate(protocol.actions):
                if (ai, b) not in memo:
                    memo[ai, b] = set(filter(
                        kept, wsts._action_preds(wqo, action, b, nonzero(b),
                                                 unfiltered_table(action))))
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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one condition family: its violations, in used-guard order."""

    condition: str
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class _Context:
    """What every check on one protocol reads, built once per
    :func:`two_pass_certify`."""

    guards: tuple
    below: list  # state_order_matrix
    unguarded: list  # internal_reach over trivially guarded moves


def _context(protocol) -> _Context:
    return _Context(protocol.used_guards(), state_order_matrix(protocol),
                    internal_reach(protocol, frozenset(range(protocol.n_states))))


def check_action(protocol, a, *, weak: bool) -> CheckResult:
    """Strong (C1, C2.1, C2.2) or weak (C1w, C2.1w, C2.2w) conditions.

    For each used guard G':

    - C1 (k-sender): if every send destination lies in G', every
      receiver starting inside the action's own guard must be mapped
      into G' as well.
    - C2.1 (k-maximal): if any send destination lies in G', receivers
      from the action's guard minus the sender sources must land in G'
      (sender sources may fire instead of receiving, so they are exempt
      here).
    - C2.2 (k-maximal): for sender sources with comparable guard
      profiles (s_i below s_j, including i = j) whose higher destination
      enters G', the lower send must enter G' and the lower source's
      receive must stay in G' — otherwise a configuration holding fewer
      senders could be forced out of the guard.

    ``weak`` allows the internal-path escape: a receiver may leave G' if
    an unguarded internal path takes it to a state below the relevant
    send destinations. For C2.1w the destination comparison quantifies
    over *all* send destinations; when restricting it to destinations
    inside G' would have certified the action, a note records that the
    strict reading was the deciding factor.
    """
    return _check_action(protocol, a, weak, _context(protocol))


def _check_action(protocol, a, weak, ctx):
    names = protocol.state_names
    below, unguarded = ctx.below, ctx.unguarded
    w = "w" if weak else ""
    violations = []
    notes = []

    def escapes(s, ok_dest) -> bool:
        t = a.receive_map[s]
        return weak and any(ok_dest(sp) for sp in unguarded[t])

    if a.kind == SENDER:
        dests = {s.dst for s in a.sends}
        for gp in ctx.guards:
            if dests <= gp.members:
                for s in sorted(a.guard.members):
                    t = a.receive_map[s]
                    if t in gp.members or escapes(
                            s, lambda sp: state_order_below_set(protocol, sp, dests)):
                        continue
                    violations.append(Violation(
                        "C1" + w, gp.name, (names[s], names[t]),
                        "no unguarded internal path to a state below "
                        "the send destinations" if weak else
                        f"receiver {names[s]} leaves {gp.name} while all "
                        f"send destinations lie inside it"))
        return CheckResult("C1" + w, tuple(violations))

    sources = {s.src for s in a.sends}
    rest = sorted(a.guard.members - sources)
    all_dests = [s.dst for s in a.sends]
    for gp in ctx.guards:
        in_guard_dests = [d for d in all_dests if d in gp.members]
        if in_guard_dests:
            for s in rest:
                t = a.receive_map[s]
                if t in gp.members or escapes(
                        s, lambda sp: all(below[sp][d] for d in all_dests)):
                    continue
                if escapes(s, lambda sp: all(below[sp][d]
                                             for d in in_guard_dests)):
                    notes.append(
                        f"{a.name}/{gp.name}: C2.1w fails only under the "
                        f"all-destinations reading (receiver {names[s]})")
                violations.append(Violation(
                    "C2.1" + w, gp.name, (names[s], names[t]),
                    "no unguarded internal path to a state below every "
                    "send destination" if weak else
                    f"receiver {names[s]} leaves {gp.name} while some "
                    f"send destination enters it"))
        for i, si in enumerate(a.sends):
            for j, sj in enumerate(a.sends):
                if not (below[si.src][sj.src] and sj.dst in gp.members):
                    continue
                if si.dst not in gp.members:
                    violations.append(Violation(
                        "C2.2" + w, gp.name, (names[si.src], names[si.dst]),
                        f"send #{i} misses {gp.name} although the comparable "
                        f"send #{j} enters it"))
                t = a.receive_map[si.src]
                if t in gp.members or escapes(
                        si.src, lambda sp: below[sp][si.dst]):
                    continue
                violations.append(Violation(
                    "C2.2" + w, gp.name, (names[si.src], names[t]),
                    "no unguarded internal path to a state below the "
                    "sender's own destination" if weak else
                    f"receive from sender source {names[si.src]} leaves "
                    f"{gp.name} although send #{j} enters it"))
    return CheckResult(f"C2.1{w}∧C2.2{w}", tuple(violations), tuple(notes))


def check_c3w(protocol, a) -> CheckResult:
    """Weak condition for internal actions that enter a guard.

    When the move s -> s' enters G' from outside, every state t of the
    action's own guard needs an internal path (enabled while the
    support stays within guard(a) plus the states below s') to some t'
    below s'; a smaller configuration can then mimic the guard change.
    """
    if not is_internal(a):
        raise ValueError(f"check_c3w applies to internal actions, got {a.name!r}")
    return _check_c3w(protocol, a, _context(protocol))


def _check_c3w(protocol, a, ctx):
    names = protocol.state_names
    n = protocol.n_states
    src, dst = a.sends[0].src, a.sends[0].dst
    below_dst = {t for t in range(n) if ctx.below[t][dst]}
    reach = internal_reach(protocol, frozenset(a.guard.members | below_dst))
    violations = []
    for gp in ctx.guards:
        if src not in gp.members and dst in gp.members:
            for t in sorted(a.guard.members):
                if not below_dst & reach[t]:
                    violations.append(Violation(
                        "C3w", gp.name, (names[src], names[dst]),
                        f"state {names[t]} has no internal path (under the "
                        f"guard bound) to any state below {names[dst]}"))
    return CheckResult("C3w", tuple(violations))


def two_pass_certify(protocol) -> GuardCompatReport:
    """Certify every action, preferring the strongest passing condition.

    Strong checks run first so the report cites the strongest
    certificate; weak checks are the fallback, and internal actions get
    the dedicated entering-a-guard condition as a last resort. The
    protocol is well-behaved iff no action ends in violation.
    """
    ctx = _context(protocol)
    statuses = []
    notes = []
    for a in protocol.actions:
        strong = _check_action(protocol, a, False, ctx)
        if strong.ok:
            statuses.append(ActionStatus(a.name, "strong", strong.condition))
            continue
        weak = _check_action(protocol, a, True, ctx)
        notes.extend(weak.notes)
        if weak.ok:
            statuses.append(ActionStatus(a.name, "weak", weak.condition,
                                         notes=weak.notes))
            continue
        if is_internal(a):
            c3 = _check_c3w(protocol, a, ctx)
            if c3.ok:
                statuses.append(ActionStatus(a.name, "weak", "C3w"))
                continue
        statuses.append(ActionStatus(a.name, "violation", None,
                                     violations=strong.violations,
                                     notes=weak.notes))
    return GuardCompatReport(all(s.status != "violation" for s in statuses),
                             tuple(statuses), tuple(notes))

def _complete_receives(named, state, identity, what: str):
    """Receive pairs of state names -> total map, self-loops on missing
    sources. Every name is resolved before a repeated source is reported,
    by ``what`` (the declaration) and its state's name."""
    pairs = [(state(s), state(t)) for s, t in named]
    rmap = list(identity)
    seen = set()
    for (name, _), (src, dst) in zip(named, pairs):
        if src in seen:
            raise ValidationError(f"{what}: two receive targets declared for state {name!r}")
        seen.add(src)
        rmap[src] = dst
    return tuple(rmap)


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _where(what: str, key=None, entries: bool = False) -> str:
    """The name of a checked value: ``what``, or its entry ``key``, or
    (``entries``) the members of that; built only for an error message."""
    if key is not None:
        what = f"{what}: {key!r}"
    return f"{what} entries" if entries else what


def _typed(value, kind, what: str, key=None, entries: bool = False):
    """``value`` itself when it has JSON type ``kind``, else a ValidationError
    naming it by ``_where(what, key, entries)``."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ValidationError(f"{_where(what, key, entries)} must be {_JSON_TYPES[kind]}, "
                          f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")


def _field(spec: dict, key: str, kind, what: str):
    """Required entry ``key`` of the object ``spec``, type-checked."""
    if key not in spec:
        raise ValidationError(f"{what}: missing {key!r}")
    return _typed(spec[key], kind, what, key)


def _names(value, what: str, key=None, entries: bool = False) -> list[str]:
    """A list of names, itself named as by :func:`_typed`."""
    for s in _typed(value, list, what, key, entries):
        if not isinstance(s, str):
            _typed(s, str, what, key, True)
    return value


def _pair(value, what: str, key=None, entries: bool = False) -> tuple[str, str]:
    names = _names(value, what, key, entries)
    if len(names) != 2:
        got = f"{len(names)} name" + "s" * (len(names) != 1)
        raise ValidationError(
            f"{_where(what, key, entries)} must be a [from, to] pair, got {got}")
    return names[0], names[1]


def _pairs(value, what: str, key: str, *, mapping: bool = False) -> list:
    """Entry ``key`` of ``what``: a list of [from, to] pairs, or (when
    ``mapping``) an object from -> to, as a list of pairs."""
    if mapping and isinstance(value, dict):
        for t in value.values():
            if not isinstance(t, str):
                _typed(t, str, what, key, True)
        return list(value.items())
    for p in _typed(value, list, what, key):
        if not (isinstance(p, list) and len(p) == 2
                and isinstance(p[0], str) and isinstance(p[1], str)):
            _pair(p, what, key, True)
    return value


def desugar(decl: dict, state, guard, actions: dict, identity) -> list[Action]:
    """Expand one sugar declaration into core actions.

    ``state`` and ``guard`` resolve state and guard names (``guard`` also
    takes the context for its error message), ``actions`` maps defined
    action names to Action records (needed by disjunctive-guard
    declarations, which return a raised-arity replacement for the action
    they reference; callers substitute it by name), ``identity`` is the
    identity receive map."""
    kind = decl.get("type")
    what = f"sugar {kind!r}"
    if kind not in ("internal", "pairwise", "async", "negotiation", "disjunctive"):
        raise ValidationError(f"unknown sugar type {kind!r}")
    extra = set(decl) - _SUGAR_KEYS[kind]
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)} in sugar {kind!r}")

    if kind == "disjunctive":
        ref = _field(decl, "action", str, what)
        if ref not in actions:
            raise ValidationError(f"disjunctive guard references unknown action {ref!r}")
        witnesses = _names(decl.get("witnesses", []), what, "witnesses")
        if not witnesses:
            raise ValidationError("disjunctive guard needs at least one witness state")
        base = actions[ref]
        extra = tuple(Send(state(w), base.receive_map[state(w)]) for w in witnesses)
        return [Action(base.name, base.kind, base.sends + extra, base.receive_map, base.guard)]

    name = _field(decl, "name", str, what)
    gname = decl.get("guard")
    g = guard(TRIVIAL_GUARD_NAME if gname is None else gname, what)

    if kind == "internal":
        src = state(_field(decl, "from", str, what))
        dst = state(_field(decl, "to", str, what))
        return [Action(name, SENDER, (Send(src, dst),), identity, g)]

    if kind == "negotiation":
        items = _pairs(decl.get("map"), what, "map", mapping=True)
        if not items:
            raise ValidationError("negotiation map must be non-empty")
        pairs = [(state(s), state(t)) for s, t in items]
        rmap = _complete_receives(items, state, identity, f"negotiation {name!r}")
        return [
            Action(f"{name}#{i}", SENDER, (Send(src, dst),), rmap, g)
            for i, (src, dst) in enumerate(pairs, start=1)
        ]

    # pairwise / async rendezvous
    s_from, s_to = map(state, _pair(decl.get("send"), what, "send"))
    r_from, r_to = map(state, _pair(decl.get("recv"), what, "recv"))
    core_kind = SENDER if kind == "pairwise" else MAXIMAL
    return [Action(name, core_kind, (Send(s_from, s_to), Send(r_from, r_to)),
                   identity, g)]


_RAW_KEYS = {"states", "init", "guards", "actions", "sugar", "property"}
_ACTION_KEYS = {"name", "kind", "arity", "sends", "receives", "guard"}
_SUGAR_KEYS = {
    "internal": {"type", "name", "from", "to", "guard"},
    "pairwise": {"type", "name", "send", "recv", "guard"},
    "async": {"type", "name", "send", "recv", "guard"},
    "negotiation": {"type", "name", "map", "guard"},
    "disjunctive": {"type", "name", "action", "witnesses"},
}


def validate(raw: dict) -> Protocol:
    """The earlier form of ``model.validate``: builds a Protocol from a
    parsed description, checking every invariant.

    Checks (in order): every section has its JSON type, state names
    distinct, init known, the property's keys known, guards non-empty and
    made of known states, core actions structurally sound (arity,
    send/receive states, functional receive map, unique names), then
    sugar declarations, each with the keys of its type, expanded in file
    order. Receive maps are completed with self-loops.
    """
    extra = set(raw) - _RAW_KEYS
    if extra:
        raise ValidationError(f"unknown top-level keys: {sorted(extra)}")

    state_names = tuple(_names(raw.get("states", []), "'states'"))
    if not state_names:
        raise ValidationError("protocol needs at least one state")
    if len(set(state_names)) != len(state_names):
        dup = next(s for i, s in enumerate(state_names) if s in state_names[:i])
        raise ValidationError(f"duplicate state name {dup!r}")
    index = {s: i for i, s in enumerate(state_names)}
    identity = tuple(range(len(state_names)))

    def state(name):
        if name not in index:
            raise ValidationError(f"unknown state {name!r}")
        return index[name]

    def guard(gname, what):
        if _typed(gname, str, what, "guard") not in guards:
            raise ValidationError(f"{what}: unknown guard {gname!r}")
        return guards[gname]

    if "init" not in raw:
        raise ValidationError("missing init state")
    init = state(_typed(raw["init"], str, "'init'"))

    prop = raw.get("property")
    if prop is None:
        prop = {}
    extra = set(_typed(prop, dict, "'property'")) - {"target", "count"}
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)} in 'property'")
    if "target" in prop:
        _typed(prop["target"], str, "'property'", "target")
    if "count" in prop:
        _typed(prop["count"], int, "'property'", "count")

    trivial = Guard(TRIVIAL_GUARD_NAME, frozenset(identity))
    guards: dict[str, Guard] = {TRIVIAL_GUARD_NAME: trivial}
    for gname, members in _typed(raw.get("guards", {}), dict, "'guards'").items():
        if gname == TRIVIAL_GUARD_NAME:
            raise ValidationError(f"{TRIVIAL_GUARD_NAME!r} is reserved for the trivial guard")
        member_set = frozenset(state(s) for s in _names(members, f"guard {gname!r}"))
        if not member_set:
            raise ValidationError(f"guard {gname!r} is empty")
        guards[gname] = Guard(gname, member_set)

    actions: dict[str, Action] = {}

    def add(action):
        if action.name in actions:
            raise ValidationError(f"duplicate action name {action.name!r}")
        actions[action.name] = action

    for i, spec in enumerate(_typed(raw.get("actions", []), list, "'actions'")):
        what = f"actions[{i}]"
        spec = _typed(spec, dict, what)
        if not _ACTION_KEYS.issuperset(spec):
            raise ValidationError(f"unknown keys {sorted(set(spec) - _ACTION_KEYS)} "
                                  f"in action {spec.get('name')!r}")
        name = _field(spec, "name", str, what)
        kind = spec.get("kind", SENDER)
        if kind not in (SENDER, MAXIMAL):
            raise ValidationError(f"action {name!r}: unknown kind {kind!r}")
        sends = tuple(Send(state(s), state(t))
                      for s, t in _pairs(spec.get("sends", []), what, "sends"))
        if not sends:
            raise ValidationError(f"action {name!r} declares no send")
        if "arity" in spec and _field(spec, "arity", int, what) != len(sends):
            raise ValidationError(
                f"action {name!r}: declared arity {spec['arity']} but {len(sends)} sends")
        pairs = _pairs(spec.get("receives", []), what, "receives", mapping=True)
        rmap = _complete_receives(pairs, state, identity, f"action {name!r}")
        g = guard(spec.get("guard", TRIVIAL_GUARD_NAME), f"action {name!r}")
        add(Action(name, kind, sends, rmap, g))

    for i, decl in enumerate(_typed(raw.get("sugar", []), list, "'sugar'")):
        decl = _typed(decl, dict, f"sugar[{i}]")
        produced = desugar(decl, state, guard, actions, identity)
        if decl.get("type") == "disjunctive":
            # replacement for an existing action, same name
            actions[produced[0].name] = produced[0]
        else:
            for action in produced:
                add(action)

    return Protocol(state_names, init, tuple(guards.values()), tuple(actions.values()))
