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
within a group, where it buckets them by support bitmask: b <= q needs
supp(b) to lie inside supp(q), so an insert only visits the buckets
whose mask is a subset or a superset of its own.

Predecessors are built, not searched for: each is an outcome's senders
plus receivers placed so that firing it covers the element, so no
candidate is fired forward (:func:`_action_preds`).

Under the guard-refined order a predecessor of b through a participation
(u, uplus) also fixes a surplus support rho, the allowed states holding
a receiver; its support is supp(u) | rho and its successor's is
supp(uplus) | R(rho), R being the receive map's image. rho is a bitmask,
enumerated by increasing size, and only a rho that meets the preimages
of every destination with a nonzero deficit, gives the successor b's
profile, and has no removable state gets any placement built. A state s
of rho, t = R(s), is removable when t keeps a slot per missing process
without s (deficit(t) < |pre(t) & rho|) and dropping s keeps the profile
of supp(u) | rho. Then every candidate q from rho puts exactly one
receiver on s, and q - e_s is a candidate from rho - {s} with q's
profile, so by induction some candidate from an irredundant subset of
rho lies strictly below q. Once that one is inserted, q can never enter
the basis: leaving q out changes no basis and no provenance that a
witness follows. The successor's profile needs no test of its own:
supp(b) lies inside supp(uplus) | R(rho - {s}), which lies inside
supp(uplus) | R(rho), and the profiles of b and of the latter agree, so
the middle one's does too. In an irredundant rho each state is needed
by a deficit (at most sum(deficits) of them) or is the one state of
supp(u) | rho outside some guard, so rho has at most
sum(deficits) + |guards| states, and the enumeration stops there.
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
    component-wise order), and inside a group bucketed by support
    bitmask. Two vectors are related only inside a group, and there
    exactly when they are component-wise, which needs the smaller one's
    support to lie inside the larger one's: an insert compares q only
    with the buckets whose mask is a subset (could cover q) or a
    superset (could be evicted by q) of q's support.
    """

    def __init__(self, wqo, vectors=()):
        self._profile = wqo.support_profile
        self._groups = {}  # profile -> {support mask: [vectors]}
        for q in vectors:
            self.insert(q)

    def insert(self, q):
        """Add q unless an element is below it, evicting the elements above it."""
        supp = 0
        for s, c in enumerate(q):
            if c:
                supp |= 1 << s
        group = self._groups.setdefault(self._profile(supp), {})
        for m, bucket in group.items():
            if not m & ~supp:
                for b in bucket:
                    if all(map(le, b, q)):
                        return
        for m in [m for m in group if not supp & ~m]:
            kept = [b for b in group[m] if not all(map(le, q, b))]
            if kept:
                group[m] = kept
            else:
                del group[m]
        group.setdefault(supp, []).append(q)

    def basis(self):
        """The elements, lexicographically sorted."""
        return tuple(sorted(itertools.chain.from_iterable(
            bucket for group in self._groups.values()
            for bucket in group.values())))


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
    chosen support, not empty). When there are at least ``deficit``
    slots, one process per slot is the unique minimum; otherwise every
    split of the deficit into positive parts is minimal.
    """
    if deficit <= len(slots):
        return [(1,) * len(slots)]
    return [tuple(c + 1 for c in comp)
            for comp in _compositions(deficit - len(slots), len(slots))]


def _componentwise_placements(pre, deficits, allowed):
    """The one receiver placement of the component-wise order, each
    deficit spread over its allowed preimages in every way."""
    per_dest = []
    for t, deficit in enumerate(deficits):
        if deficit == 0:
            continue
        slots = [s for s in pre[t] if s in allowed]
        if not slots:
            return
        per_dest.append((slots, list(_compositions(deficit, len(slots)))))
    yield per_dest


def _refined_placements(wqo, action, u, uplus, deficits, allowed, profile):
    """Receiver placements of the guard-refined order, one per surplus
    support rho drawn from the allowed states whose successors have b's
    guard ``profile`` and that has no removable state (module
    docstring), in increasing size up to the irredundance bound."""
    rmap, pre = action.receive_map, action.preimages
    allowed_mask = sum(1 << s for s in allowed)
    premask = [sum(1 << s for s in ss) & allowed_mask for ss in pre]
    needed = [premask[t] for t, d in enumerate(deficits) if d]
    if not all(needed):
        return
    usupp = sum(1 << s for s, c in enumerate(u) if c)
    sent = sum(1 << t for t, c in enumerate(uplus) if c)
    profile_of = wqo.support_profile
    bound = sum(deficits) + len(wqo.guards)
    for size in range(min(bound, len(allowed)) + 1):
        for states in itertools.combinations(allowed, size):
            rho = reached = 0
            for s in states:
                rho |= 1 << s
                reached |= 1 << rmap[s]
            if (not all(rho & m for m in needed)
                    or profile_of(sent | reached) != profile):
                continue
            q_profile = profile_of(usupp | rho)
            for s in states:  # a removable s
                k = (premask[rmap[s]] & rho).bit_count()
                if (deficits[rmap[s]] < k
                        and profile_of(usupp | rho & ~(1 << s)) == q_profile):
                    break
            else:
                per_dest = []
                for t, deficit in enumerate(deficits):
                    if premask[t] & rho:
                        slots = [s for s in pre[t] if rho >> s & 1]
                        per_dest.append((slots, _receiver_options(deficit, slots)))
                yield per_dest


def _action_preds(wqo, action, b):
    """Minimal predecessors of the upward closure of ``b`` through one action.

    A candidate is a participation's senders ``u`` plus receivers P on
    receive-map preimages of each destination, covering its deficit
    ``max(b - uplus, 0)``: its successor ``uplus + R(P)`` (R applying
    the receive map) lies component-wise above b, by construction.
    Receivers only go to the participation's ``allowed`` states
    (unpinned, inside the action's guard). Under the guard-refined order
    candidates also range over the irredundant surplus supports rho
    (:func:`_refined_placements`), since receivers in zero-deficit
    states may be needed to realize b's guard profile.
    """
    profile = None if wqo.guards is None else wqo.profile(b)
    found = set()
    for u, uplus, allowed in action.participations:
        deficits = [x - y if x > y else 0 for x, y in zip(b, uplus)]
        if profile is None:
            placements = _componentwise_placements(
                action.preimages, deficits, allowed)
        else:
            placements = _refined_placements(
                wqo, action, u, uplus, deficits, allowed, profile)
        for per_dest in placements:
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
