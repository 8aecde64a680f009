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
- C1w/C2.1w/C2.2w: weak variants that allow a receiver to miss the
  guard if an unguarded internal path leads it to a state below the
  send destinations.
- C3w (internal actions): entering a guard can be mimicked by the
  smaller configuration via internal paths available under a bound
  computed from the action's guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from gspmc.model import SENDER, Action, Protocol, is_internal, reachable


class StateOrder:
    """The guard-inclusion preorder on local states.

    ``below(t, s)`` holds iff every used non-trivial guard containing
    ``s`` also contains ``t`` — processes in ``t`` never block a guard
    that processes in ``s`` satisfy. ``below_set(t, dests)`` is the set
    form: every guard containing all of ``dests`` contains ``t``.
    """

    def __init__(self, protocol: Protocol):
        self._guards = tuple(g.members for g in protocol.used_guards())
        n = protocol.n_states
        self._lt = [[all(t in g for g in self._guards if s in g)
                     for s in range(n)] for t in range(n)]

    def below(self, t: int, s: int) -> bool:
        return self._lt[t][s]

    def below_set(self, t: int, dests) -> bool:
        ds = set(dests)
        return all(t in g for g in self._guards if ds <= g)


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
class CheckResult:
    """Outcome of one condition family: its violations, in used-guard order."""

    condition: str
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


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


def check_action(protocol: Protocol, a: Action, *, weak: bool) -> CheckResult:
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
    names = protocol.state_names
    n = protocol.n_states
    order = StateOrder(protocol)
    reach = InternalReach(protocol) if weak else None
    w = "w" if weak else ""
    violations = []
    notes = []

    def escapes(s, ok_dest) -> bool:
        t = a.receive_map[s]
        return weak and any(ok_dest(sp) and reach.unguarded(t, sp)
                            for sp in range(n))

    if a.kind == SENDER:
        dests = {s.dst for s in a.sends}
        for gp in protocol.used_guards():
            if dests <= gp.members:
                for s in sorted(a.guard.members):
                    t = a.receive_map[s]
                    if t in gp.members or escapes(
                            s, lambda sp: order.below_set(sp, dests)):
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
    for gp in protocol.used_guards():
        in_guard_dests = [d for d in all_dests if d in gp.members]
        if in_guard_dests:
            for s in rest:
                t = a.receive_map[s]
                if t in gp.members or escapes(
                        s, lambda sp: all(order.below(sp, d) for d in all_dests)):
                    continue
                if escapes(s, lambda sp: all(order.below(sp, d)
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
                if not (order.below(si.src, sj.src) and sj.dst in gp.members):
                    continue
                if si.dst not in gp.members:
                    violations.append(Violation(
                        "C2.2" + w, gp.name, (names[si.src], names[si.dst]),
                        f"send #{i} misses {gp.name} although the comparable "
                        f"send #{j} enters it"))
                t = a.receive_map[si.src]
                if t in gp.members or escapes(
                        si.src, lambda sp: order.below(sp, si.dst)):
                    continue
                violations.append(Violation(
                    "C2.2" + w, gp.name, (names[si.src], names[t]),
                    "no unguarded internal path to a state below the "
                    "sender's own destination" if weak else
                    f"receive from sender source {names[si.src]} leaves "
                    f"{gp.name} although send #{j} enters it"))
    return CheckResult(f"C2.1{w}∧C2.2{w}", tuple(violations), tuple(notes))


def check_c3w(protocol: Protocol, a: Action) -> CheckResult:
    """Weak condition for internal actions that enter a guard.

    When the move s -> s' enters G' from outside, every state t of the
    action's own guard needs an internal path (enabled while the
    support stays within guard(a) plus the states below s') to some t'
    below s'; a smaller configuration can then mimic the guard change.
    """
    if not is_internal(a):
        raise ValueError(f"check_c3w applies to internal actions, got {a.name!r}")
    names = protocol.state_names
    order = StateOrder(protocol)
    reach = InternalReach(protocol)
    n = protocol.n_states
    src, dst = a.sends[0].src, a.sends[0].dst
    below_dst = {t for t in range(n) if order.below(t, dst)}
    bound = frozenset(a.guard.members | below_dst)
    violations = []
    for gp in protocol.used_guards():
        if src not in gp.members and dst in gp.members:
            for t in sorted(a.guard.members):
                if not any(order.below(tp, dst) and reach.guarded(t, tp, bound)
                           for tp in range(n)):
                    violations.append(Violation(
                        "C3w", gp.name, (names[src], names[dst]),
                        f"state {names[t]} has no internal path (under the "
                        f"guard bound) to any state below {names[dst]}"))
    return CheckResult("C3w", tuple(violations))


def certify(protocol: Protocol) -> GuardCompatReport:
    """Certify every action, preferring the strongest passing condition.

    Strong checks run first so the report cites the strongest
    certificate; weak checks are the fallback, and internal actions get
    the dedicated entering-a-guard condition as a last resort. The
    protocol is well-behaved iff no action ends in violation.
    """
    statuses = []
    notes = []
    for a in protocol.actions:
        strong = check_action(protocol, a, weak=False)
        if strong.ok:
            statuses.append(ActionStatus(a.name, "strong", strong.condition))
            continue
        weak = check_action(protocol, a, weak=True)
        notes.extend(weak.notes)
        if weak.ok:
            statuses.append(ActionStatus(a.name, "weak", weak.condition,
                                         notes=weak.notes))
            continue
        if is_internal(a):
            c3 = check_c3w(protocol, a)
            if c3.ok:
                statuses.append(ActionStatus(a.name, "weak", "C3w"))
                continue
        statuses.append(ActionStatus(a.name, "violation", None,
                                     violations=strong.violations,
                                     notes=weak.notes))
    return GuardCompatReport(all(s.status != "violation" for s in statuses),
                             tuple(statuses), tuple(notes))
