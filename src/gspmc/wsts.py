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
loop stops after the first round that adds nothing. The next frontier
is the round's added elements still in the antichain, sorted: a vector
once covered stays covered, so none is added twice, and these are the
elements the basis gained. The antichain groups vectors by guard
profile, since the guard-refined order never relates vectors whose
profiles differ, and compares component-wise within a group, where it
buckets them by support bitmask: b <= q needs supp(b) to lie inside
supp(q), so an insert only visits the buckets whose mask is a subset or
a superset of its own.

Predecessors are built, not searched for: each is an outcome's senders
plus receivers placed so that firing it covers the element, so no
candidate is fired forward (:func:`_action_preds`). One construction
serves both orders; the component-wise order is the guard-refined one
with no guards. A participation is an outcome (u, uplus) of a key the
action fires on (:func:`_pred_table`), with the states that key leaves
allowed: inside the guard and not pinned. Through a participation, each deficit
max(b - uplus, 0) is split over the allowed preimages of its
destination in every way, zeros allowed. A split P gives the candidate
u + P, whose surplus support rho_D = supp(P) the receive map sends onto
the destinations with a nonzero deficit. Component-wise, that is all.
With guards, b's profile may need further receivers, so a candidate
also puts one receiver on each state of a set X of at most |guards|
allowed states outside rho_D and outside some guard. u + P + 1_X, whose
surplus support is rho = rho_D | X, is kept when the successor's support
supp(uplus) | R(rho), R being the receive map's image, has b's profile.
With no guards, X is only the empty set and the test holds vacuously.

This loses no minimal predecessor. Take any surplus support rho and its
minimal placements: per destination with slots pre(t) & rho, every
split of the deficit into positive parts, or one receiver per slot when
there are more slots than the deficit. Call s in rho, t = R(s),
redundant when t keeps a slot per missing process without s
(deficit(t) < |pre(t) & rho|) and dropping s keeps the profile of
supp(u) | rho. Each such candidate q then puts one receiver on s, and
q - e_s is one from rho - {s} with q's profile; its successor's support
lies between supp(b) and that of q's, so it has b's profile too. By
induction a candidate from an irredundant subset of rho lies strictly
below q. In an irredundant rho, a slot of a destination with more
slots than its deficit d, and a state of a destination with no deficit,
is the one state of supp(u) | rho outside some guard, a distinct guard
each. So putting d of such a destination's slots into rho_D, one
receiver each, and the rest into X gives |X| <= |guards|: every minimal
candidate of an irredundant rho is some u + P + 1_X the loop keeps. Any
other candidate it keeps lies strictly above one of those, with the
same profile, so the antichain covers or evicts it within the same
round: it reaches no frontier, nor a provenance that a witness follows.

Under the component-wise order a round skips each (element b, action)
pair whose action's entry mask, its send destinations and the images
of the states its receive map moves, misses supp(b). No process enters
supp(b) then: each of its states t has uplus(t) = 0 and at most t as a
preimage, so every candidate of the pair is u + b. It lies above b, and
so above an element of the antichain: it is never added, and only
added vectors get a provenance. Under the
guard-refined order such a candidate can have another guard profile
than b, so b need not cover it, and no pair is skipped.

The fixpoint keeps only vectors whose support a run can occupy, the
forward-invariant restriction of Ganty, Raskin & Van Begin (VMCAI 2006),
with a monotone bound in place of the exact set of reachable supports.
:func:`support_bound` starts from {init} and takes, from each of its
elements M, one step per action: that of its dominating key, which
takes every source of M inside the guard at its cap (for a sender, its
full key, fired only when all its sources lie in M and in the guard).
The step goes to dsts(used) | R(M & guard), dsts(used) being the
destinations of the send slots of the sources ``used`` that key takes,
and R the receive map applied to the mask: the states it fixes pass as
one mask, and only those it moves are mapped bit by bit. A result
inside an element is skipped; otherwise it is added, and the elements
inside it are evicted. A configuration with support inside M that fires
on any key takes no sender from outside the guard and keeps its
non-senders on allowed states, so its successor's support lies inside
sent | R(M & allowed), and that lies inside the dominating step's: the
key's ``used`` lies inside the dominating key's, its ``pinned`` (the
sources below their cap) contains the dominating key's, and its
destinations ``sent`` lie inside dsts(used). The bound is the set of
maximal elements of the one downward-closed set that holds {init} and
is closed under every key's step, whatever the order of the steps, so
the dominated steps change no element. The step is monotone in M, so
an evicted element's successors lie inside its evictor's: keeping only
maximal elements loses nothing, and an element stepped after it is
evicted adds only masks that the evictor's steps cover. The exact set
can be exponential where the bound is not: on a cycle of 24 internal
steps every subset of the cycle is a reachable support, and the bound
is the one mask of the whole cycle.

:func:`decide` drops every target-basis element and predecessor whose
support lies inside no bound element, before it reaches the antichain
or the provenance. The test is component-wise under both orders, which
is sound for the guard-refined one too: a vector with no reachable
configuration above it component-wise has none above it in the refined
order, which implies the component-wise one. Dropping changes no
verdict, ``min_n`` or witness. The dropped vectors form an upward-closed
set, since a vector above one has a larger support, so a dropped vector
never covers or evicts a kept one. The kept ones are closed under
successors, as the bound is closed under the step, and a predecessor's
successor covers its element: so every predecessor of a dropped vector
is dropped too, and the kept elements, their provenance and the order
they are inserted in are those of the unpruned loop. A vector on the
initial state alone is always kept, and so is every element of a
witness chain, which covers a configuration reached from the initial
vector. The basis is the unpruned basis's kept elements, and the loop
stops no later.

Every target-basis element puts the threshold on the target, so the
target lies in its support. When the target lies in no bound element,
the bound drops the whole target basis, no round runs and the basis is
empty: :func:`decide` returns that verdict before it builds the target
basis. Otherwise the threshold on the target alone is a minimal
target-basis element whose support, the target, lies in a bound
element, so the rounds always start from a kept element.

Most dropped predecessors are never built. A candidate through a
participation (u, uplus, allowed) lies above u and is positive on every
state it puts a receiver on, so its support is supp(u) | rho, rho being
those states. The bound keeps it only when some element contains that
support, and such an element contains supp(u). So :func:`decide` builds
predecessors from :func:`_pred_table` tables that leave out every key
with supp(u) inside no element, before its outcomes are built, and
cut the allowed states to reach(u), the union of the elements that
contain supp(u). A candidate that is no longer built puts a receiver
outside reach(u), so its support lies inside no element containing
supp(u), and so inside none. The profile test reads rho and never
``allowed``, so the candidates that are built are exactly the
unfiltered ones with rho inside reach(u). The keep test still runs, as a
support can lie inside reach(u) and yet span two elements. Each
candidate carries its support supp(u) | rho from where it is built into
that test and the antichain.

The bound, the entry masks and the :func:`_pred_table` of each action
are built once per protocol value and kept in one bounded memo keyed by
the validated protocol (:func:`_compiled`), which compares and hashes by
its state names, initial state, guards and actions, each action by its
name, kind, sends, receive map and guard. Keying by value is sound
because every one of those tables is a function of that value alone:
two equal protocols, each validated by its own query, have the same
bound, masks and tables, and an action's name, the one thing a witness
reads of it, is part of the key. The entry holds the first protocol
object seen with that value, so the actions that the tables read have
their compiled fields (``premasks`` and the rest) filled already. The
bound is built when the entry is made, the tables only when rounds
first run, so a query that the bound alone answers costs no more than
with no memo. Certification, the target basis and the rounds still run
on every query, and no verdict is kept. A process that answers one
query, such as one ``gspmc`` command, builds the tables once either way
and gains nothing from the memo.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import le

from gspmc import wellbehaved
from gspmc.model import (MEMO_SIZE, SENDER, Frozen, Protocol, ValidationError,
                         cached_property)


class NotCertifiedWellBehaved(Exception):
    """Refused to run the guard-refined engine without certification."""


def _support(q):
    """The bitmask of the states q occupies."""
    supp = 0
    for s, c in enumerate(q):
        if c:
            supp |= 1 << s
    return supp


class Wqo(Frozen):
    """Ordering on counter vectors: component-wise, with the same guard
    profile on both sides; ``guards`` is empty for component-wise."""

    _fields = ("guards",)

    def __init__(self, guards: tuple[frozenset[int], ...]):
        # _outside: per guard, the bitmask of the states outside it
        vars(self).update(guards=guards, _outside=tuple(~sum(1 << s for s in g) for g in guards))

    def profile(self, q):
        """Which guards contain the support of q."""
        return self.support_profile(_support(q))

    def support_profile(self, supp):
        """Which guards contain the states of the bitmask ``supp``."""
        return tuple(not supp & out for out in self._outside)

    def leq(self, q, p):
        """Whether q is below p; both have one entry per protocol state."""
        if any(a > b for a, b in zip(q, p)):
            return False
        return self.profile(q) == self.profile(p)


COMPONENT_WISE = Wqo(())


def wqo_for(protocol: Protocol) -> Wqo:
    """The order refined by the protocol's used guards, component-wise
    when it uses none."""
    guards = tuple(g.members for g in protocol.used_guards())
    return Wqo(guards) if guards else COMPONENT_WISE


class Ucs(namedtuple("Ucs", "wqo basis")):
    """Upward-closed set: canonical antichain basis, lexicographically sorted."""

    __slots__ = ()


class Antichain:
    """Minimal elements of the vectors inserted so far under one order.

    Vectors are grouped by guard profile, and inside a group bucketed by
    support bitmask. Two vectors are related only inside a group, and
    there exactly when they are component-wise, which needs the smaller
    one's support to lie inside the larger one's: an insert compares q
    only with the buckets whose mask is a subset (could cover q) or a
    superset (could be evicted by q) of q's support. Under the
    component-wise order every profile is the empty tuple, so there is
    one group, ``_one``, and no profile is computed.
    """

    def __init__(self, wqo, vectors=()):
        self._profile = wqo.support_profile
        # profile -> {support mask: [vectors]}
        self._one = None if wqo.guards else {}
        self._groups = {} if wqo.guards else {(): self._one}
        for q in vectors:
            self.insert(q)

    def insert(self, q, supp=None):
        """Add q unless an element is below it, evicting the elements above
        it, and say whether q was added; ``supp`` is q's support bitmask,
        computed when not given."""
        if supp is None:
            supp = _support(q)
        group = self._one
        if group is None:
            group = self._groups.setdefault(self._profile(supp), {})
        for m, bucket in group.items():
            if not m & ~supp:
                for b in bucket:
                    if all(map(le, b, q)):
                        return False
        for m in [m for m in group if not supp & ~m]:
            kept = [b for b in group[m] if not all(map(le, q, b))]
            if kept:
                group[m] = kept
            else:
                del group[m]
        group.setdefault(supp, []).append(q)
        return True

    def __contains__(self, q):
        """Whether q is an element."""
        supp = _support(q)
        group = self._one
        if group is None:
            group = self._groups.get(self._profile(supp), {})
        return q in group.get(supp, ())

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

    Candidates put the threshold on the target and 1 on each of at most
    len(wqo.guards) other states, and are minimized. In a minimal element
    each other state is the one state of its support outside some guard,
    a distinct guard each, so the bound is exact: component-wise, the
    threshold on the target alone is the one candidate.
    """
    if threshold < 1:
        raise ValidationError("threshold must be at least 1")
    n = protocol.n_states
    others = [s for s in range(n) if s != target]
    candidates = []
    for size in range(min(len(wqo.guards), len(others)) + 1):
        for extra in itertools.combinations(others, size):
            q = [0] * n
            for s in extra:
                q[s] = 1
            q[target] = threshold
            candidates.append(tuple(q))
    return Ucs(wqo, minimize(wqo, candidates))


def _pred_table(action, bound):
    """The entry ``(u, uplus, supp(u), amask)`` that :func:`_action_preds`
    reads per outcome (u, uplus) of each key the action fires on, in
    :func:`itertools.product` order over the sources, with supp(u)
    inside an element of the support bitmasks ``bound``, and none for
    the other keys. A key takes no sender from outside the guard; every
    entry comes from ``action.outcomes``, which tallies it and gives
    none to a key with no sender, nor to a sender action's key below its
    caps. ``amask`` holds the allowed states, inside the guard and not
    pinned (below their cap), that lie in an element containing supp(u)
    (module docstring). The bound of every state keeps every key whole.
    """
    guard, sources, caps = action.guard.members, action.sources, action.caps
    sender = action.kind == SENDER
    counts = [(((c,) if sender else range(c + 1))
               if s in guard else (0,)) for s, c in zip(sources, caps)]
    table = []
    for key in itertools.product(*counts):
        used = pinned = 0
        for s, k, c in zip(sources, key, caps):
            if k:
                used |= 1 << s
            if k < c:
                pinned |= 1 << s
        reach = 0
        for e in bound:
            if not used & ~e:
                reach |= e
        if not reach:
            continue
        amask = action.guardmask & ~pinned & reach
        for u, uplus in action.outcomes(key):
            table.append((u, uplus, used, amask))
    return table


def _placements(slots, deficit):
    """Every split of ``deficit`` over the k states of the non-empty
    bitmask ``slots``, zeros allowed, each once by stars and bars (the
    parts are the gaps between k - 1 bars among deficit + k - 1 places),
    as the (state, count) pairs of its non-zero parts and the bitmask of
    their states."""
    states = []
    while slots:
        bit = slots & -slots
        slots ^= bit
        states.append(bit.bit_length() - 1)
    end = deficit + len(states) - 1
    out = []
    for bars in itertools.combinations(range(end), len(states) - 1):
        adds, bits, last = [], 0, -1
        for s, bar in zip(states, bars + (end,)):
            if bar > last + 1:
                adds.append((s, bar - last - 1))
                bits |= 1 << s
            last = bar
        out.append((adds, bits))
    return out


def _action_preds(wqo, action, b, need, table):
    """The minimal predecessors of the upward closure of ``b`` through one
    action, with some predecessors above them (module docstring), each
    mapped to its support bitmask.

    A candidate is a participation's senders ``u`` plus receivers P on
    receive-map preimages of each destination, covering its deficit
    ``max(b - uplus, 0)``: its successor ``uplus + R(P)`` (R applying
    the receive map) lies component-wise above b, by construction.
    Receivers only go to the participation's ``allowed`` states
    (unpinned, inside the action's guard). Under an order with guards a
    candidate also takes one receiver on each of at most
    ``len(wqo.guards)`` guard-breaking states outside supp(P), kept when
    its successor's support has b's profile.
    ``need`` lists b's (state, count) pairs with a non-zero count. The
    participations come from ``table``, a :func:`_pred_table` of the
    action. A deficit with one allowed preimage goes there whole;
    only two or more are split by :func:`_placements`.
    """
    guards, premask = wqo.guards, action.premasks
    if guards:
        profile_of, rmap = wqo.support_profile, action.receive_map
        profile = wqo.profile(b)
        outside = 0  # the states outside some guard
        for out in wqo._outside:
            outside |= out
    found = {}
    for u, uplus, usupp, amask in table:
        per_dest = []
        for t, x in need:
            if x > uplus[t]:
                slots = premask[t] & amask
                if slots & (slots - 1):
                    per_dest.append(_placements(slots, x - uplus[t]))
                elif slots:  # one state takes the whole deficit
                    per_dest.append(
                        (([(slots.bit_length() - 1, x - uplus[t])], slots),))
                else:
                    break
        else:
            if guards:
                sent = _support(uplus)
                reached_d = sum(1 << t for t, x in need if x > uplus[t])
                breakers = [s for s in range(len(b))
                            if (amask & outside) >> s & 1]
            for choice in itertools.product(*per_dest):
                q = list(u)
                rho_d = 0
                for adds, bits in choice:
                    rho_d |= bits
                    for s, c in adds:
                        q[s] += c
                if not guards:
                    found[tuple(q)] = usupp | rho_d
                    continue
                free = [s for s in breakers if not rho_d >> s & 1]
                for size in range(min(len(guards), len(free)) + 1):
                    for extra in itertools.combinations(free, size):
                        rho, reached = rho_d, sent | reached_d
                        for s in extra:
                            rho |= 1 << s
                            reached |= 1 << rmap[s]
                        if profile_of(reached) != profile:
                            continue
                        qx = q[:]
                        for s in extra:
                            qx[s] += 1
                        found[tuple(qx)] = usupp | rho
    return found


def _insert_preds(wqo, tables, chain, frontier, provenance, keep):
    """Insert the minimal predecessors of each ``frontier`` element whose
    support passes ``keep`` into ``chain``, built from ``tables``, one
    (action, :func:`_pred_table`, mask) triple per action; an action
    whose mask misses the element's support is skipped (module
    docstring). ``provenance`` maps each added predecessor to the
    (action name, element) pair that added it. Returns the added ones."""
    added = []
    for b in frontier:
        need = [(t, x) for t, x in enumerate(b) if x]
        supp_b = sum(1 << t for t, _ in need)
        for action, table, entry in tables:
            if not entry & supp_b:
                continue
            for q, supp in _action_preds(wqo, action, b, need, table).items():
                if keep(supp) and chain.insert(q, supp):
                    provenance[q] = (action.name, b)
                    added.append(q)
    return added


def support_bound(protocol):
    """The maximal support bitmasks of a monotone forward
    over-approximation, ascending: the support of every configuration
    reachable from the initial state, at any system size, lies inside
    one of them (module docstring)."""
    return _compiled(protocol).supports


def _bound_and_entries(protocol):
    """:func:`support_bound`, and per action its entry mask (module
    docstring), both from one pass over its sends and moved states."""
    steps, entries = [], []
    for action in protocol.actions:
        dsts = {}  # per source bit, the destinations of its send slots
        entry = moved = 0
        for src, dst in action.sends:
            dsts[1 << src] = dsts.get(1 << src, 0) | 1 << dst
            entry |= 1 << dst
        for s, t in action.moves:
            moved |= 1 << s
            entry |= 1 << t
        entries.append(entry)
        steps.append((action.kind == SENDER, sum(dsts), tuple(dsts.items()),
                      action.guardmask, moved, action.receive_map))
    start = 1 << protocol.init
    bound, work = {start}, [start]
    while work:
        m = work.pop()
        for sender, sources, dsts, guard, moved, rmap in steps:
            live = m & guard
            # a sender needs every source live, a maximal action one
            if sources & ~live if sender else not sources & live:
                continue
            succ, rest = live & ~moved, live & moved
            for bit, d in dsts:
                if live & bit:
                    succ |= d
            while rest:
                bit = rest & -rest
                rest ^= bit
                succ |= 1 << rmap[bit.bit_length() - 1]
            if any(not succ & ~e for e in bound):
                continue
            bound = {e for e in bound if e & ~succ}
            bound.add(succ)
            work.append(succ)
    return tuple(sorted(bound)), entries


def _inside(bound):
    """The test whether a support bitmask lies inside an element of
    ``bound``. It keeps no memo: a support recurs too rarely, and a hit
    would save only a scan of the few elements of ``bound``."""
    return lambda supp: any(not supp & ~e for e in bound)


class _Compiled:
    """What :func:`decide` reads of a protocol alone: the first protocol
    object seen with its value, whose actions every table reads, its
    :func:`support_bound` and each action's entry mask, both built at
    once, and ``tables``, built on first use."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.supports, self.entries = _bound_and_entries(protocol)

    @cached_property
    def tables(self):
        """Per action, the ``(action, _pred_table, mask)`` triple that
        :func:`_insert_preds` reads; with guards no action is skipped."""
        guarded = bool(self.protocol.used_guards())
        return tuple((a, _pred_table(a, self.supports), -1 if guarded else entry)
                     for a, entry in zip(self.protocol.actions, self.entries))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _compiled(protocol):
    """The protocol's :class:`_Compiled` tables, built once per protocol
    value (module docstring)."""
    return _Compiled(protocol)


class ParamVerdict(namedtuple(
        "ParamVerdict", "reachable min_n witness basis iterations supports")):
    """A parameterized verdict. ``witness`` is the action sequence in
    forward order, ``basis`` the fixpoint basis (a :class:`Ucs`) pruned
    to ``supports``, and ``supports`` the :func:`support_bound` of the
    protocol; with ``basis``, the unreachability certificate."""

    __slots__ = ()


def decide(protocol, target, threshold):
    """Parameterized verdict for "at least ``threshold`` processes in ``target``".

    Guarded protocols are analyzed under the guard-refined order, which
    is only sound for certified guard-compatible protocols, so they are
    certified first and refused when certification fails.
    Iterates the backward closure, pruned to the vectors whose support
    lies inside an element of :func:`support_bound`, to the full
    fixpoint so the returned minimal witness size is exact. A target
    in no bound element is answered from the bound alone, with the
    empty basis and no iteration that the pruned fixpoint gives it
    (module docstring). A threshold below 1 is refused first, then a
    failed certification.
    """
    if threshold < 1:
        raise ValidationError("threshold must be at least 1")
    wqo = wqo_for(protocol)
    if wqo.guards and not wellbehaved.certify(protocol, verdict_only=True):
        raise NotCertifiedWellBehaved(
            "guarded protocol failed guard-compatibility certification")

    compiled = _compiled(protocol)
    supports = compiled.supports
    keep = _inside(supports)
    # a target in no bound element is in the support of no run: the bound
    # drops every target-basis element, and no round runs
    if not keep(1 << target):
        return ParamVerdict(False, None, None, Ucs(wqo, ()), 0, supports)
    start = tuple(q for q in target_basis(protocol, wqo, target, threshold).basis
                  if keep(_support(q)))
    tables = compiled.tables
    provenance = dict.fromkeys(start)
    chain = Antichain(wqo, start)
    frontier = start
    iterations = 0
    while frontier:
        iterations += 1
        added = _insert_preds(wqo, tables, chain, frontier, provenance, keep)
        frontier = sorted(q for q in added if q in chain)
    fixpoint = Ucs(wqo, chain.basis())

    covering = [b for b in fixpoint.basis if b[protocol.init] == sum(b)]
    if not covering:
        return ParamVerdict(False, None, None, fixpoint, iterations, supports)
    best = min(covering, key=lambda b: b[protocol.init])
    min_n = best[protocol.init]
    assert min_n >= 1
    witness = []
    cur = best
    while provenance[cur] is not None:
        action_name, parent = provenance[cur]
        witness.append(action_name)
        cur = parent
    return ParamVerdict(True, min_n, tuple(witness), fixpoint, iterations,
                        supports)
