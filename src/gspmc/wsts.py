"""Parameterized reachability: backward closure over upward-closed sets.

The decision procedure represents upward-closed sets of counter vectors
by their finite antichain of minimal elements and iterates a predecessor
computation until the basis stabilizes. Two orders are supported:

- component-wise (``q <= p`` pointwise), sound for unguarded protocols;
- guard-refined: component-wise AND the two vectors satisfy exactly the
  same guards (support contained in the same members of the used guard
  set). Sound for protocols whose guard-compatibility has been certified.

With n processes all starting in the initial state, the target count is
reachable for *some* n iff the backward closure of the target set
contains a vector supported on the initial state alone; the smallest
such vector's initial-state count is the minimal witness size.

The fixpoint runs in frontier form (Abdulla et al., LICS 1996): one
:class:`Antichain` holds the current basis, and each round computes the
predecessors of only the elements the previous round added and inserts
them one at a time. The predecessors of an element that survived from
an earlier round already lie above the basis, so each round yields the
same basis as re-minimizing the whole predecessor set would, and the
loop stops after the first round that adds nothing. The antichain
groups vectors by guard profile, since the guard-refined order never
relates vectors whose profiles differ, and compares component-wise
within a group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import le

from gspmc import semantics, wellbehaved
from gspmc.model import Protocol, ValidationError


class NotCertifiedWellBehaved(Exception):
    """Refused to run the guard-refined engine without certification."""


@dataclass(frozen=True)
class Wqo:
    """Ordering on counter vectors; ``guards`` is None for component-wise."""

    guards: tuple[frozenset[int], ...] | None
    # per guard, the bitmask of the states outside it
    _outside: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_outside", tuple(
            ~sum(1 << s for s in g) for g in self.guards or ()))

    def profile(self, q):
        """Which guards contain the support of q."""
        supp = 0
        for s, c in enumerate(q):
            if c:
                supp |= 1 << s
        return tuple(not supp & out for out in self._outside)

    def leq(self, q, p):
        """Whether q is below p; both have one entry per protocol state."""
        if any(a > b for a, b in zip(q, p)):
            return False
        if self.guards is None:
            return True
        return self.profile(q) == self.profile(p)


COMPONENT_WISE = Wqo(None)


def guard_refined(protocol: Protocol) -> Wqo:
    return Wqo(tuple(g.members for g in protocol.used_guards()))


def wqo_for(protocol: Protocol) -> Wqo:
    return COMPONENT_WISE if protocol.is_unguarded else guard_refined(protocol)


@dataclass(frozen=True)
class Ucs:
    """Upward-closed set: canonical antichain basis, lexicographically sorted."""

    wqo: Wqo
    basis: tuple[tuple[int, ...], ...]


class Antichain:
    """Minimal elements of the vectors inserted so far under one order.

    Vectors are grouped by guard profile (a single group under the
    component-wise order); two vectors are related only inside a group,
    and there exactly when they are component-wise.
    """

    def __init__(self, wqo, vectors=()):
        self._profile = wqo.profile if wqo.guards is not None else None
        self._groups = {}
        for q in vectors:
            self.insert(q)

    def insert(self, q):
        """Add q unless an element is below it, evicting the elements above it."""
        key = self._profile(q) if self._profile else None
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = [q]
            return
        for b in group:
            if all(map(le, b, q)):
                return
        group[:] = [b for b in group if not all(map(le, q, b))]
        group.append(q)

    def basis(self):
        """The elements, lexicographically sorted."""
        groups = self._groups.values()
        return tuple(sorted(itertools.chain.from_iterable(groups)))


def minimize(wqo, vectors):
    """Canonical antichain of minimal elements (unique by antisymmetry)."""
    return Antichain(wqo, vectors).basis()


def target_basis(protocol, wqo, target, threshold):
    """Basis of {q : q(target) >= threshold} under the given order.

    Component-wise, the single minimal element puts the threshold on the
    target and zero elsewhere. Guard-refined, every support pattern of
    the other states induces its own guard profile, so candidates range
    over 0/1 occupancy of the non-target states before minimizing.
    """
    if threshold < 1:
        raise ValidationError("threshold must be at least 1")
    n = protocol.n_states
    if wqo.guards is None:
        base = tuple(threshold if s == target else 0 for s in range(n))
        return Ucs(wqo, (base,))
    others = [s for s in range(n) if s != target]
    candidates = []
    for bits in itertools.product((0, 1), repeat=len(others)):
        q = [0] * n
        q[target] = threshold
        for s, bit in zip(others, bits):
            q[s] = bit
        candidates.append(tuple(q))
    return Ucs(wqo, minimize(wqo, candidates))


def _compositions(total, parts):
    """All ways to split ``total`` into ``parts`` non-negative summands."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _receiver_options(deficit, slots):
    """Minimal receiver placements for one destination.

    ``slots`` are the predecessor states whose surplus must be >= 1 (the
    chosen support). When there are at least ``deficit`` slots, one
    process per slot is the unique minimum; otherwise every split of the
    deficit into positive parts is minimal.
    """
    if not slots:
        return [()] if deficit == 0 else []
    if deficit <= len(slots):
        return [(1,) * len(slots)]
    return [tuple(c + 1 for c in comp)
            for comp in _compositions(deficit - len(slots), len(slots))]


def _componentwise_placements(pre, deficits, allowed):
    """The one receiver placement of the component-wise order: each
    destination's deficit spread over its allowed preimages in every way."""
    per_dest = []
    for t, deficit in enumerate(deficits):
        if deficit == 0:
            continue
        slots = [s for s in pre[t] if s in allowed]
        if not slots:
            return
        per_dest.append((slots, list(_compositions(deficit, len(slots)))))
    yield per_dest


def _refined_placements(pre, deficits, allowed):
    """Receiver placements of the guard-refined order, one per surplus
    support rho drawn from the allowed states."""
    for r_size in range(len(allowed) + 1):
        for rho in itertools.combinations(allowed, r_size):
            per_dest = []
            for t, deficit in enumerate(deficits):
                slots = [s for s in pre[t] if s in rho]
                options = _receiver_options(deficit, slots)
                if not options:
                    break
                if slots:
                    per_dest.append((slots, options))
            else:
                yield per_dest


def _action_preds(wqo, action, b):
    """Minimal predecessors of the upward closure of ``b`` through one action.

    Candidates place the participating senders (``u``) plus surplus
    receivers distributed so that each destination's deficit against
    ``b`` is covered by its receive-map preimages. Under the
    guard-refined order the surplus support itself matters: a minimal
    predecessor may need receivers in zero-deficit states so that its
    own support (and the successor's) realizes the right guard profile,
    so candidates additionally range over surplus-support subsets.
    Receivers only go to the participation's ``allowed`` states
    (unpinned, inside the action's guard), so every candidate's support
    lies in the guard. Every candidate is verified by firing it forward,
    with the participation's stored ``moves``, through :func:`semantics.route`.
    """
    pre = action.preimages
    placements = (_componentwise_placements if wqo.guards is None
                  else _refined_placements)

    found = set()
    for u, uplus, moves, allowed in action.participations:
        deficits = [x - y if x > y else 0 for x, y in zip(b, uplus)]
        for per_dest in placements(pre, deficits, allowed):
            for choice in itertools.product(*(opts for _, opts in per_dest)):
                q = list(u)
                for (slots, _), counts in zip(per_dest, choice):
                    for s, c in zip(slots, counts):
                        q[s] += c
                q = tuple(q)
                if wqo.leq(b, semantics.route(action, q, u, moves)):
                    found.add(q)
    return found


def _insert_preds(protocol, wqo, chain, frontier, memo):
    """Insert the minimal predecessors of each ``frontier`` element into
    ``chain``, computing them through ``memo``, which maps (action index,
    element) to the element's minimal predecessors through that action."""
    for b in frontier:
        for ai, action in enumerate(protocol.actions):
            key = (ai, b)
            preds = memo.get(key)
            if preds is None:
                preds = memo[key] = _action_preds(wqo, action, b)
            for q in preds:
                chain.insert(q)


@dataclass
class ParamVerdict:
    reachable: bool
    min_n: int | None
    witness: tuple[str, ...] | None  # action sequence, forward order
    basis: Ucs  # fixpoint basis (unreachability certificate)
    iterations: int


def decide(protocol, target, threshold):
    """Parameterized verdict for "at least ``threshold`` processes in ``target``".

    Guarded protocols are analyzed under the guard-refined order, which
    is only sound for certified guard-compatible protocols, so they are
    certified first and refused when certification fails.
    Iterates the backward closure to the full fixpoint so the returned
    minimal witness size is exact.
    """
    wqo = wqo_for(protocol)
    if wqo.guards is not None and not wellbehaved.certify(protocol).well_behaved:
        raise NotCertifiedWellBehaved(
            "guarded protocol failed guard-compatibility certification")

    start = target_basis(protocol, wqo, target, threshold)
    memo = {}
    chain = Antichain(wqo, start.basis)
    basis = frontier = start.basis
    iterations = 0
    while frontier:
        iterations += 1
        _insert_preds(protocol, wqo, chain, frontier, memo)
        step = chain.basis()
        frontier = sorted(set(step).difference(basis))
        basis = step
    fixpoint = Ucs(wqo, basis)

    covering = [b for b in fixpoint.basis
                if all(c == 0 for s, c in enumerate(b) if s != protocol.init)]
    if not covering:
        return ParamVerdict(False, None, None, fixpoint, iterations)
    best = min(covering, key=lambda b: b[protocol.init])
    min_n = best[protocol.init]
    assert min_n >= 1
    # each vector's parent is the first (action, element) pair, in the
    # order the steps computed them, that produced it as a predecessor
    provenance = {b: None for b in start.basis}
    for (ai, b), preds in memo.items():
        for c in preds:
            provenance.setdefault(c, (protocol.actions[ai].name, b))
    witness = []
    cur = best
    while provenance[cur] is not None:
        action_name, parent = provenance[cur]
        witness.append(action_name)
        cur = parent
    return ParamVerdict(True, min_n, tuple(witness), fixpoint, iterations)
