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

from dataclasses import dataclass

from gspmc.model import SENDER, Protocol, is_internal, reachable


class StateOrder:
    """The guard-inclusion preorder on local states.

    ``below(t, s)`` holds iff every used non-trivial guard containing
    ``s`` also contains ``t`` — processes in ``t`` never block a guard
    that processes in ``s`` satisfy. ``below_set(t, dests)`` is the set
    form: every guard containing all of ``dests`` contains ``t``.

    Each state keeps one bitmask of the used guards that contain it, bit
    i for the i-th used guard, so both tests are a few ``&``.
    """

    def __init__(self, protocol: Protocol):
        guards = protocol.used_guards()
        self._all = (1 << len(guards)) - 1
        self._in = tuple(sum(1 << i for i, g in enumerate(guards) if s in g.members)
                         for s in range(protocol.n_states))

    def below(self, t: int, s: int) -> bool:
        return not self._in[s] & ~self._in[t]

    def below_set(self, t: int, dests) -> bool:
        common = self._all
        for d in dests:
            common &= self._in[d]
        return not common & ~self._in[t]


class InternalReach:
    """Reachability along internal transitions, filtered by guard bounds.

    ``guarded(s, t, bound)`` holds iff ``t`` is reachable from ``s``
    using only internal sends whose guard contains every state in
    ``bound`` (so the moves stay enabled while the configuration's
    support is contained in ``bound``). ``unguarded(s, t)`` is the
    special case bound = all states, i.e. only trivially guarded
    internal transitions qualify.
    """

    def __init__(self, protocol: Protocol):
        self._n = protocol.n_states
        self._edges = tuple((a.sends[0].src, a.sends[0].dst, a.guard.members)
                            for a in protocol.actions if is_internal(a))
        self._cache: dict[frozenset[int], list[set[int]]] = {}

    def _closure(self, bound: frozenset[int]) -> list[set[int]]:
        reach = self._cache.get(bound)
        if reach is None:
            adj = [set() for _ in range(self._n)]
            for src, dst, members in self._edges:
                if bound <= members:
                    adj[src].add(dst)
            reach = [reachable(adj, s) for s in range(self._n)]
            self._cache[bound] = reach
        return reach

    def unguarded(self, s: int, t: int) -> bool:
        return t in self._closure(frozenset(range(self._n)))[s]

    def guarded(self, s: int, t: int, bound) -> bool:
        return t in self._closure(frozenset(bound))[s]


@dataclass(frozen=True)
class Violation:
    """One failed check: the condition, the guard, and the local move."""

    condition: str
    guard: str
    transition: tuple[str, str]
    detail: str = ""


@dataclass(frozen=True)
class ActionStatus:
    action: str
    status: str  # "strong" | "weak" | "violation"
    condition: str | None
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GuardCompatReport:
    well_behaved: bool
    actions: tuple[ActionStatus, ...]
    notes: tuple[str, ...] = ()


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
    (a C2.2 send that misses G' never escapes). For C2.1w the
    comparison quantifies over *all* send destinations; when it fails
    but restricting it to the destinations inside G' would have
    escaped, ``note`` records that the strict reading was the deciding
    factor.
    """
    names = protocol.state_names
    n = protocol.n_states

    def escapes(t, ok_dest) -> bool:
        return any(ok_dest(sp) and reach.unguarded(t, sp) for sp in range(n))

    if a.kind == SENDER:
        dests = {s.dst for s in a.sends}
        for gp in guards:
            if dests <= gp.members:
                for s in sorted(a.guard.members):
                    t = a.receive_map[s]
                    if t not in gp.members:
                        yield (Violation(
                            "C1", gp.name, (names[s], names[t]),
                            f"receiver {names[s]} leaves {gp.name} while all "
                            f"send destinations lie inside it"),
                            escapes(t, lambda sp: order.below_set(sp, dests)),
                            None)
        return

    sources = {s.src for s in a.sends}
    rest = sorted(a.guard.members - sources)
    all_dests = [s.dst for s in a.sends]
    for gp in guards:
        in_guard_dests = [d for d in all_dests if d in gp.members]
        if in_guard_dests:
            for s in rest:
                t = a.receive_map[s]
                if t in gp.members:
                    continue
                escaped = escapes(
                    t, lambda sp: all(order.below(sp, d) for d in all_dests))
                note = None
                if not escaped and escapes(
                        t, lambda sp: all(order.below(sp, d)
                                          for d in in_guard_dests)):
                    note = (f"{a.name}/{gp.name}: C2.1w fails only under the "
                            f"all-destinations reading (receiver {names[s]})")
                yield (Violation(
                    "C2.1", gp.name, (names[s], names[t]),
                    f"receiver {names[s]} leaves {gp.name} while some "
                    f"send destination enters it"), escaped, note)
        for i, si in enumerate(a.sends):
            for j, sj in enumerate(a.sends):
                if not (order.below(si.src, sj.src) and sj.dst in gp.members):
                    continue
                if si.dst not in gp.members:
                    yield (Violation(
                        "C2.2", gp.name, (names[si.src], names[si.dst]),
                        f"send #{i} misses {gp.name} although the comparable "
                        f"send #{j} enters it"), False, None)
                t = a.receive_map[si.src]
                if t not in gp.members:
                    yield (Violation(
                        "C2.2", gp.name, (names[si.src], names[t]),
                        f"receive from sender source {names[si.src]} leaves "
                        f"{gp.name} although send #{j} enters it"),
                        escapes(t, lambda sp: order.below(sp, si.dst)), None)


def _c3w(a, guards, order, reach, n) -> bool:
    """Weak condition for an internal action that enters a guard.

    When the move s -> s' enters some G' from outside, every state t of
    the action's own guard needs an internal path (enabled while the
    support stays within guard(a) plus the states below s') to some t'
    below s'; a smaller configuration can then mimic the guard change.
    """
    src, dst = a.sends[0].src, a.sends[0].dst
    if not any(src not in gp.members and dst in gp.members for gp in guards):
        return True
    below_dst = [t for t in range(n) if order.below(t, dst)]
    bound = a.guard.members.union(below_dst)
    return all(any(reach.guarded(t, tp, bound) for tp in below_dst)
               for t in a.guard.members)


def certify(protocol: Protocol) -> GuardCompatReport:
    """Certify every action, preferring the strongest passing condition.

    One walk per action lists the failures of its strong condition. With
    none the action is strong; when every failure escapes it is weak;
    an internal action that is neither gets the entering-a-guard
    condition C3w as a last resort. Otherwise the action ends in
    violation and the report cites its strong violations. The protocol
    is well-behaved iff no action ends in violation.
    """
    guards = protocol.used_guards()
    order, reach = StateOrder(protocol), InternalReach(protocol)
    statuses = []
    notes = []
    for a in protocol.actions:
        failures = list(_failures(protocol, a, guards, order, reach))
        strong, weak = (("C1", "C1w") if a.kind == SENDER
                        else ("C2.1∧C2.2", "C2.1w∧C2.2w"))
        if not failures:
            statuses.append(ActionStatus(a.name, "strong", strong))
            continue
        # a note only comes with a failure that does not escape
        action_notes = tuple(note for _, _, note in failures if note)
        notes.extend(action_notes)
        if all(escaped for _, escaped, _ in failures):
            statuses.append(ActionStatus(a.name, "weak", weak))
        elif is_internal(a) and _c3w(a, guards, order, reach, protocol.n_states):
            statuses.append(ActionStatus(a.name, "weak", "C3w"))
        else:
            statuses.append(ActionStatus(
                a.name, "violation", None,
                violations=tuple(v for v, _, _ in failures),
                notes=action_notes))
    return GuardCompatReport(all(s.status != "violation" for s in statuses),
                             tuple(statuses), tuple(notes))
