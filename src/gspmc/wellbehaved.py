"""Syntactic guard-compatibility certification.

The guard-refined order used by the parameterized engine is only sound
when every action of the protocol is (weakly) guard-compatible: firing
an action from a larger configuration must be reproducible, possibly
with auxiliary internal moves, from any smaller configuration that
satisfies the same guards. These checks certify that property
syntactically, in time polynomial in states x actions x guards, without
exploring any global state.

Conditions come in strong and weak flavors per action shape:

- C1 (k-sender): if all send destinations lie inside a guard, every
  receiver from the action's own guard must land inside it too.
- C2.1/C2.2 (k-maximal): as C1 for non-sending states, plus a coherence
  requirement between comparable sender sources.
- C1w/C2.1w/C2.2w: each is its strong condition plus an escape: a
  receiver may miss the guard if an unguarded internal path leads it
  to a state below the send destinations.
- C3w (internal actions): entering a guard can be mimicked by the
  smaller configuration via internal paths available under a bound
  computed from the action's guard.

Because each weak condition only forgives failures of its strong one,
:func:`certify` walks an action's conditions once: the walk lists each
strong failure with whether it escapes, and the action is strong with
no failure, weak when every failure escapes, and otherwise (failing C3w
too, for an internal action) a violation citing the strong failures.
"""

from __future__ import annotations

from collections import namedtuple

from gspmc.model import SENDER, Protocol, is_internal


class StateOrder:
    """The guard-inclusion preorder on local states.

    ``below(t, s)`` holds iff every used non-trivial guard containing
    ``s`` also contains ``t`` — processes in ``t`` never block a guard
    that processes in ``s`` satisfy. ``below_common(dests)`` is the set
    form, as a bitmask: the states t that every guard containing all of
    ``dests`` contains. ``below_each(dests)`` is the bitmask of the
    states below every state of ``dests``.

    Each state keeps one bitmask of the used guards that contain it, bit
    i for ``guards[i]``, so each test is a few ``&``.
    """

    def __init__(self, protocol: Protocol):
        self.guards = guards = protocol.used_guards()
        self._all = (1 << len(guards)) - 1
        held = [0] * protocol.n_states
        for i, g in enumerate(guards):
            for s in g.members:
                held[s] |= 1 << i
        self._in = tuple(held)

    def below(self, t: int, s: int) -> bool:
        return not self._in[s] & ~self._in[t]

    def below_common(self, dests) -> int:
        need = self._all
        for d in dests:
            need &= self._in[d]
        return self._holding(need)

    def below_each(self, dests) -> int:
        need = 0
        for d in dests:
            need |= self._in[d]
        return self._holding(need)

    def _holding(self, need: int) -> int:
        """Bitmask of the states in every used guard of bitmask ``need``."""
        mask = 0
        for t, held in enumerate(self._in):
            if not need & ~held:
                mask |= 1 << t
        return mask


class InternalReach:
    """Reachability along internal transitions, filtered by guard bounds.

    ``closure(bound)[s]`` is the bitmask of the states reachable from
    ``s`` using only internal sends whose guard contains every state in
    ``bound`` (so the moves stay enabled while the configuration's
    support is contained in ``bound``). ``unguarded_masks`` is the
    special case bound = all states, i.e. only trivially guarded
    internal transitions qualify, computed once since every failure
    reads it. Any other bound is computed afresh on each call: only C3w
    asks for one, and too rarely twice for a cache to pay.
    """

    def __init__(self, protocol: Protocol):
        self._n = protocol.n_states
        self._edges = tuple((a.sends[0].src, a.sends[0].dst, a.guard.members)
                            for a in protocol.actions if is_internal(a))
        self.unguarded_masks = self.closure(frozenset(range(self._n)))

    def closure(self, bound: frozenset[int]) -> list[int]:
        """Per state s, the bitmask of the states internal moves enabled
        under ``bound`` reach from s."""
        edges = [(src, dst) for src, dst, members in self._edges
                 if bound <= members]
        reach = [1 << s for s in range(self._n)]
        changed = bool(edges)
        while changed:
            changed = False
            for src, dst in edges:
                if reach[dst] & ~reach[src]:
                    reach[src] |= reach[dst]
                    changed = True
        return reach


class Violation(namedtuple("Violation", "condition guard transition detail",
                           defaults=("",))):
    """One failed check: the condition, the guard, and the local move."""

    __slots__ = ()


class ActionStatus(namedtuple("ActionStatus",
                              "action status condition violations notes",
                              defaults=((), ()))):
    """One action's certification: ``status`` is "strong", "weak" or
    "violation"."""

    __slots__ = ()


class GuardCompatReport(namedtuple("GuardCompatReport", "well_behaved actions notes",
                                   defaults=((),))):
    """The certification report: the verdict and each action's status."""

    __slots__ = ()


_LEAVES_ALL = "receiver {src} leaves {guard} while all send destinations lie inside it"
_LEAVES_SOME = "receiver {src} leaves {guard} while some send destination enters it"
_MISSES = "send #{i} misses {guard} although the comparable send #{j} enters it"
_SOURCE_LEAVES = ("receive from sender source {src} leaves {guard} although "
                  "send #{j} enters it")


def _violation(names, condition, gp, src, dst, detail, i=0, j=0) -> Violation:
    return Violation(condition, gp.name, (names[src], names[dst]),
                     detail.format(src=names[src], guard=gp.name, i=i, j=j))


def _failures(protocol, a, guards, order, reach):
    """Every failure of the action's strong condition, in used-guard order.

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

    Each failure is ``(violation, escapes, note)``. ``escapes`` says
    whether the weak variant forgives it: an unguarded internal path
    takes the receiver to a state below the relevant send destinations
    (a C2.2 send that misses G' never escapes), tested as the receiver's
    unguarded-reach mask against a below-mask. For C2.1w the comparison
    quantifies over *all* send destinations; when it fails but
    restricting it to the destinations inside G' would have escaped,
    ``note`` records that the strict reading was the deciding factor.
    ``violation`` holds the arguments of :func:`_violation`, whose text
    is built only for an action that ends in violation.
    """
    if not guards:
        return  # every condition quantifies over the used guards
    names = protocol.state_names
    free = reach.unguarded_masks

    if a.kind == SENDER:
        dests = {dst for _, dst in a.sends}
        ok = order.below_common(dests)
        members = sorted(a.guard.members)
        for gp in guards:
            if dests <= gp.members:
                for s in members:
                    t = a.receive_map[s]
                    if t not in gp.members:
                        yield ("C1", gp, s, t, _LEAVES_ALL), free[t] & ok, None
        return

    sources = {src for src, _ in a.sends}
    rest = sorted(a.guard.members - sources)
    all_dests = [dst for _, dst in a.sends]
    ok = order.below_each(all_dests)
    comparable = [(i, src, dst, j, dst_j) for i, (src, dst) in enumerate(a.sends)
                  for j, (src_j, dst_j) in enumerate(a.sends) if order.below(src, src_j)]
    for gp in guards:
        in_guard_dests = [d for d in all_dests if d in gp.members]
        if in_guard_dests:
            for s in rest:
                t = a.receive_map[s]
                if t in gp.members:
                    continue
                escaped = free[t] & ok
                note = None
                if not escaped and free[t] & order.below_each(in_guard_dests):
                    note = (f"{a.name}/{gp.name}: C2.1w fails only under the "
                            f"all-destinations reading (receiver {names[s]})")
                yield ("C2.1", gp, s, t, _LEAVES_SOME), escaped, note
        for i, src, dst, j, dst_j in comparable:
            if dst_j not in gp.members:
                continue
            if dst not in gp.members:
                yield ("C2.2", gp, src, dst, _MISSES, i, j), False, None
            t = a.receive_map[src]
            if t not in gp.members:
                yield (("C2.2", gp, src, t, _SOURCE_LEAVES, i, j),
                       free[t] & order.below_each((dst,)), None)


def _c3w(a, guards, order, reach, n) -> bool:
    """Weak condition for an internal action that enters a guard.

    When the move s -> s' enters some G' from outside, every state t of
    the action's own guard needs an internal path (enabled while the
    support stays within guard(a) plus the states below s') to some t'
    below s'; a smaller configuration can then mimic the guard change.
    """
    src, dst = a.sends[0]
    if not any(src not in gp.members and dst in gp.members for gp in guards):
        return True
    below_dst = order.below_each((dst,))
    bound = a.guard.members.union(t for t in range(n) if below_dst >> t & 1)
    reach_from = reach.closure(bound)
    return all(reach_from[t] & below_dst for t in a.guard.members)


def _weak_condition(protocol, a, failures, guards, order, reach):
    """The weak condition that forgives every one of the action's strong
    ``failures`` (read only up to the first that does not escape), or
    None: its weak variant when every failure escapes, else C3w for an
    internal action that meets it."""
    if all(escaped for _, escaped, _ in failures):
        return "C1w" if a.kind == SENDER else "C2.1w∧C2.2w"
    if is_internal(a) and _c3w(a, guards, order, reach, protocol.n_states):
        return "C3w"
    return None


def certify(protocol: Protocol, *,
            verdict_only: bool = False) -> GuardCompatReport | bool:
    """Certify every action, preferring the strongest passing condition.

    One walk per action lists the failures of its strong condition. With
    none the action is strong; when every failure escapes it is weak;
    an internal action that is neither gets the entering-a-guard
    condition C3w as a last resort. Otherwise the action ends in
    violation and the report cites its strong violations. The protocol
    is well-behaved iff no action ends in violation.

    With ``verdict_only`` the same walk stops at the first action in
    violation, builds no report and returns only the flag, ``certify(p,
    verdict_only=True) == certify(p).well_behaved``.
    """
    order = StateOrder(protocol)
    guards = order.guards
    # with no used guard no action can fail, and nothing reads the reach
    reach = InternalReach(protocol) if guards else None
    if verdict_only:
        return all(_weak_condition(protocol, a,
                                   _failures(protocol, a, guards, order, reach),
                                   guards, order, reach)
                   for a in protocol.actions)
    statuses = []
    notes = []
    for a in protocol.actions:
        failures = list(_failures(protocol, a, guards, order, reach))
        if not failures:
            statuses.append(ActionStatus(
                a.name, "strong", "C1" if a.kind == SENDER else "C2.1∧C2.2"))
            continue
        # a note only comes with a failure that does not escape
        action_notes = tuple(note for _, _, note in failures if note)
        notes.extend(action_notes)
        weak = _weak_condition(protocol, a, failures, guards, order, reach)
        if weak:
            statuses.append(ActionStatus(a.name, "weak", weak))
        else:
            statuses.append(ActionStatus(
                a.name, "violation", None,
                violations=tuple(_violation(protocol.state_names, *v)
                                 for v, _, _ in failures),
                notes=action_notes))
    return GuardCompatReport(all(s.status != "violation" for s in statuses),
                             tuple(statuses), tuple(notes))
