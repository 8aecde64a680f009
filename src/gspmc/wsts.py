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

Predecessors are built, not searched for: each is an outcome's senders
plus receivers placed so that firing it covers the element, so no
candidate is fired forward (:func:`_action_preds`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import le

from gspmc import wellbehaved
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
        return self.support_profile(sum(1 << s for s, c in enumerate(q) if c))

    def support_profile(self, supp):
        """Which guards contain the states of the bitmask ``supp``."""
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
    """The one receiver placement of the component-wise order, each
    deficit spread over its allowed preimages in every way, with the
    bitmask of the destinations it reaches."""
    per_dest = []
    reached = 0
    for t, deficit in enumerate(deficits):
        if deficit == 0:
            continue
        slots = [s for s in pre[t] if s in allowed]
        if not slots:
            return
        per_dest.append((slots, list(_compositions(deficit, len(slots)))))
        reached |= 1 << t
    yield per_dest, reached


def _refined_placements(pre, deficits, allowed):
    """Receiver placements of the guard-refined order, one per surplus
    support rho drawn from the allowed states, each with the bitmask of
    the destinations it reaches (the receive-map image of rho)."""
    for r_size in range(len(allowed) + 1):
        for rho in itertools.combinations(allowed, r_size):
            per_dest = []
            reached = 0
            for t, deficit in enumerate(deficits):
                slots = [s for s in pre[t] if s in rho]
                options = _receiver_options(deficit, slots)
                if not options:
                    break
                if slots:
                    per_dest.append((slots, options))
                    reached |= 1 << t
            else:
                yield per_dest, reached


def _action_preds(wqo, action, b):
    """Minimal predecessors of the upward closure of ``b`` through one action.

    A candidate is a participation's senders ``u`` plus receivers P on
    receive-map preimages of each destination, covering its deficit
    ``max(b - uplus, 0)``: its successor ``uplus + R(P)`` (R applying
    the receive map) lies component-wise above b, by construction.
    Receivers only go to the participation's ``allowed`` states
    (unpinned, inside the action's guard). Under the guard-refined order
    candidates also range over the surplus support rho, since receivers
    in zero-deficit states may be needed to realize b's guard profile.
    Every state of rho holds a receiver, so the successor's support is
    that of ``uplus`` with the receive-map image of rho, and its profile
    is compared with b's once per (participation, rho).
    """
    pre = action.preimages
    if wqo.guards is None:
        placements, profile = _componentwise_placements, None
    else:
        placements, profile = _refined_placements, wqo.profile(b)
    found = set()
    for u, uplus, allowed in action.participations:
        deficits = [x - y if x > y else 0 for x, y in zip(b, uplus)]
        if profile is not None:
            sent = sum(1 << t for t, c in enumerate(uplus) if c)
        for per_dest, reached in placements(pre, deficits, allowed):
            if (profile is not None
                    and wqo.support_profile(sent | reached) != profile):
                continue
            for choice in itertools.product(*(opts for _, opts in per_dest)):
                q = list(u)
                for (slots, _), counts in zip(per_dest, choice):
                    for s, c in zip(slots, counts):
                        q[s] += c
                found.add(tuple(q))
    return found


def _insert_preds(protocol, wqo, chain, frontier, provenance):
    """Insert the minimal predecessors of each ``frontier`` element into
    ``chain``. ``provenance`` keeps, per predecessor, the first (action
    name, element) pair that produced it, in the order they are computed."""
    for b in frontier:
        for action in protocol.actions:
            for q in _action_preds(wqo, action, b):
                chain.insert(q)
                provenance.setdefault(q, (action.name, b))


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
    provenance = dict.fromkeys(start.basis)
    chain = Antichain(wqo, start.basis)
    basis = frontier = start.basis
    iterations = 0
    while frontier:
        iterations += 1
        _insert_preds(protocol, wqo, chain, frontier, provenance)
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
    witness = []
    cur = best
    while provenance[cur] is not None:
        action_name, parent = provenance[cur]
        witness.append(action_name)
        cur = parent
    return ParamVerdict(True, min_n, tuple(witness), fixpoint, iterations)
