"""Protocol data model: validation and desugaring.

A protocol is one process template. Global actions come in two core kinds:

- ``sender`` (k-sender): fires only when k senders are available, and
  consumes exactly k of them (one per send index);
- ``maximal`` (k-maximal): fires as soon as at least one potential sender
  is present, with min(available, declared) senders participating per
  source state.

Every process that is not a sender reacts through the action's receive
map, a total function on states (missing entries are completed as
self-loops during validation). Derived primitives — internal steps,
pairwise/asynchronous rendezvous, negotiations, disjunctive guards — are
rewritten into core actions by :func:`desugar`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property

SENDER = "sender"
MAXIMAL = "maximal"

TRIVIAL_GUARD_NAME = "ALL"


class ValidationError(Exception):
    """A protocol description violates a structural requirement."""


@dataclass(frozen=True)
class Guard:
    name: str
    members: frozenset[int]


@dataclass(frozen=True)
class Send:
    """One send index: the sender moves from ``src`` to ``dst``."""

    src: int
    dst: int


@dataclass(frozen=True)
class Action:
    name: str
    kind: str  # SENDER or MAXIMAL
    sends: tuple[Send, ...]
    receive_map: tuple[int, ...]  # total: source state index -> target index
    guard: Guard

    @property
    def arity(self) -> int:
        return len(self.sends)

    @cached_property
    def senders_from(self) -> tuple[int, ...]:
        """``senders_from[s]`` counts the send indices leaving state s."""
        return tally(len(self.receive_map), (s.src for s in self.sends))

    @cached_property
    def senders_to(self) -> tuple[int, ...]:
        """``senders_to[t]`` counts the send indices arriving in state t."""
        return tally(len(self.receive_map), (s.dst for s in self.sends))

    # Compiled once per action, so that firing and predecessor search
    # read flat tuples instead of re-deriving them per configuration.

    @cached_property
    def outside_mask(self) -> int:
        """Bitmask of the states outside the guard: a configuration whose
        occupied-state mask meets it does not satisfy the guard."""
        return sum(1 << s for s in range(len(self.receive_map))
                   if s not in self.guard.members)

    @cached_property
    def sources(self) -> tuple[tuple[int, int], ...]:
        """``(state, count)`` for every state some send index leaves."""
        return tuple((s, c) for s, c in enumerate(self.senders_from) if c)

    @cached_property
    def delta(self) -> tuple[tuple[int, int], ...]:
        """The nonzero entries of ``senders_to - senders_from`` as
        ``(state, change)`` pairs: the senders' net move when every send
        index fires."""
        return tuple((s, t - f) for s, (f, t)
                     in enumerate(zip(self.senders_from, self.senders_to))
                     if t != f)

    @cached_property
    def moved(self) -> tuple[tuple[int, int], ...]:
        """``(s, receive_map[s])`` for the states the receive map moves."""
        return tuple((s, r) for s, r in enumerate(self.receive_map) if r != s)

    @cached_property
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """``preimages[t]``: the states the receive map sends to t."""
        pre: list[list[int]] = [[] for _ in self.receive_map]
        for s, r in enumerate(self.receive_map):
            pre[r].append(s)
        return tuple(map(tuple, pre))

    @cached_property
    def send_dsts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(source, destinations)`` per source state, the destinations in
        ascending send index: a maximal action with c processes in the
        source fires the first min(c, len) of them."""
        by_src: dict[int, list[int]] = {}
        for send in self.sends:
            by_src.setdefault(send.src, []).append(send.dst)
        return tuple((s, tuple(d)) for s, d in sorted(by_src.items()))

    @cached_property
    def participations(self) -> tuple[tuple, ...]:
        """``(u, uplus, moves, allowed)`` per sender subset a predecessor
        search considers, without repeats.

        Sender actions fire with every declared send. Maximal actions
        fire with any non-empty index subset, provided the source states
        of the missing indices hold no further processes: those states
        are pinned, and ``allowed`` lists the states inside the guard
        that are not, where further (receiving) processes may sit.
        Subsets whose senders ``u`` occupy a state outside the guard
        are dropped, since the action never fires with them.

        ``u`` and ``uplus`` count the senders per source and destination
        state. ``moves``, their net move as the nonzero ``(state, change)``
        pairs, is stored so that candidate predecessors are fired through
        :func:`gspmc.semantics.route` without re-deriving it per candidate.
        """
        n = len(self.receive_map)
        v = self.senders_from
        k = len(self.sends)
        guard = self.guard.members
        seen = set()
        out = []
        for size in (range(1, k + 1) if self.kind == MAXIMAL else (k,)):
            for sigma in itertools.combinations(self.sends, size):
                u = tally(n, (s.src for s in sigma))
                uplus = tally(n, (s.dst for s in sigma))
                if (u, uplus) in seen:
                    continue
                seen.add((u, uplus))
                if any(c and s not in guard for s, c in enumerate(u)):
                    continue
                moves = tuple((s, b - a) for s, (a, b)
                              in enumerate(zip(u, uplus)) if a != b)
                allowed = tuple(s for s in range(n)
                                if u[s] >= v[s] and s in guard)
                out.append((u, uplus, moves, allowed))
        return tuple(out)


@dataclass(frozen=True)
class Protocol:
    state_names: tuple[str, ...]
    init: int
    guards: tuple[Guard, ...]
    actions: tuple[Action, ...]

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown state {name!r}") from None

    def action(self, name: str) -> Action:
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)

    def used_guards(self) -> tuple[Guard, ...]:
        """Non-trivial guards attached to at least one action.

        This is the guard set that drives the refined order and the
        guard-compatibility conditions; a registered guard that no action
        uses does not constrain anything.
        """
        full = frozenset(range(self.n_states))
        seen: list[Guard] = []
        for a in self.actions:
            g = a.guard
            if g.members != full and g not in seen:
                seen.append(g)
        return tuple(seen)

    @property
    def is_unguarded(self) -> bool:
        return not self.used_guards()


def is_internal(action: Action) -> bool:
    """Structural test: arity 1 and identity receive map.

    Internal steps move one process and leave everyone else in place, so
    this shape is definitive regardless of how the action was authored.
    """
    identity = tuple(range(len(action.receive_map)))
    return len(action.sends) == 1 and action.receive_map == identity


def tally(n_states: int, states) -> tuple[int, ...]:
    """Count vector of the given state indices."""
    counts = [0] * n_states
    for s in states:
        counts[s] += 1
    return tuple(counts)


def reachable(adj, start: int) -> set[int]:
    """States reachable from ``start`` (included) in a local transition
    graph given as one successor set per state."""
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in adj[frontier.pop()] - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def _complete_receives(pairs, n_states):
    """Receive pairs -> total map, self-loops on missing sources."""
    rmap = list(range(n_states))
    seen = set()
    for src, dst in pairs:
        if src in seen:
            raise ValidationError(
                f"two receive targets declared for one source state (index {src})"
            )
        seen.add(src)
        rmap[src] = dst
    return tuple(rmap)


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _typed(value, kind, what: str):
    """``value`` itself when it has JSON type ``kind``, else a ValidationError."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ValidationError(f"{what} must be {_JSON_TYPES[kind]}, "
                          f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")


def _field(spec: dict, key: str, kind, what: str):
    """Required entry ``key`` of the object ``spec``, type-checked."""
    if key not in spec:
        raise ValidationError(f"{what}: missing {key!r}")
    return _typed(spec[key], kind, f"{what}: {key!r}")


def _names(value, what: str) -> list[str]:
    return [_typed(s, str, f"{what} entries") for s in _typed(value, list, what)]


def _pair(value, what: str) -> tuple[str, str]:
    names = _names(value, what)
    if len(names) != 2:
        raise ValidationError(f"{what} must be a [from, to] pair, got {len(names)} names")
    return names[0], names[1]


def _pairs(value, what: str, *, mapping: bool = False) -> list[tuple[str, str]]:
    """A list of [from, to] pairs, or (when ``mapping``) an object from -> to."""
    if mapping and isinstance(value, dict):
        return [(s, _typed(t, str, f"{what} entries")) for s, t in value.items()]
    return [_pair(p, f"{what} entries") for p in _typed(value, list, what)]


def desugar(decl: dict, state, guard, actions: dict, n_states: int) -> list[Action]:
    """Expand one sugar declaration into core actions.

    ``state`` and ``guard`` resolve state and guard names (``guard`` also
    takes the context for its error message), ``actions`` maps already
    defined action names to Action records (needed by disjunctive-guard
    declarations, which return a raised-arity replacement for the action
    they reference; callers substitute it by name).
    """
    kind = decl.get("type")
    what = f"sugar {kind!r}"
    if kind not in ("internal", "pairwise", "async", "negotiation", "disjunctive"):
        raise ValidationError(f"unknown sugar type {kind!r}")

    if kind == "disjunctive":
        ref = _field(decl, "action", str, what)
        if ref not in actions:
            raise ValidationError(f"disjunctive guard references unknown action {ref!r}")
        witnesses = _names(decl.get("witnesses", []), f"{what}: 'witnesses'")
        if not witnesses:
            raise ValidationError("disjunctive guard needs at least one witness state")
        base = actions[ref]
        extra = tuple(Send(state(w), base.receive_map[state(w)]) for w in witnesses)
        return [dataclasses.replace(base, sends=base.sends + extra)]

    name = _field(decl, "name", str, what)
    gname = decl.get("guard")
    g = guard(TRIVIAL_GUARD_NAME if gname is None else gname, what)
    identity = tuple(range(n_states))

    if kind == "internal":
        src = state(_field(decl, "from", str, what))
        dst = state(_field(decl, "to", str, what))
        return [Action(name, SENDER, (Send(src, dst),), identity, g)]

    if kind == "negotiation":
        items = _pairs(decl.get("map"), f"{what}: 'map'", mapping=True)
        if not items:
            raise ValidationError("negotiation map must be non-empty")
        pairs = [(state(s), state(t)) for s, t in items]
        rmap = _complete_receives(pairs, n_states)
        return [
            Action(f"{name}#{i}", SENDER, (Send(src, dst),), rmap, g)
            for i, (src, dst) in enumerate(pairs, start=1)
        ]

    # pairwise / async rendezvous
    s_from, s_to = map(state, _pair(decl.get("send"), f"{what}: 'send'"))
    r_from, r_to = map(state, _pair(decl.get("recv"), f"{what}: 'recv'"))
    core_kind = SENDER if kind == "pairwise" else MAXIMAL
    return [Action(name, core_kind, (Send(s_from, s_to), Send(r_from, r_to)),
                   identity, g)]


_RAW_KEYS = {"states", "init", "guards", "actions", "sugar", "property"}
_ACTION_KEYS = {"name", "kind", "arity", "sends", "receives", "guard"}


def validate(raw: dict) -> Protocol:
    """Build a Protocol from a parsed description, checking every invariant.

    Checks (in order): every section has its JSON type, state names
    distinct, init known, guards non-empty and made of known states, core
    actions structurally sound (arity, send/receive states, functional
    receive map, unique names), then sugar declarations expanded in file
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
    n = len(state_names)

    def state(name):
        if name not in index:
            raise ValidationError(f"unknown state {name!r}")
        return index[name]

    def guard(gname, what):
        if _typed(gname, str, f"{what}: 'guard'") not in guards:
            raise ValidationError(f"{what}: unknown guard {gname!r}")
        return guards[gname]

    if "init" not in raw:
        raise ValidationError("missing init state")
    init = state(_typed(raw["init"], str, "'init'"))

    prop = raw.get("property")
    if prop is None:
        prop = {}
    if "target" in _typed(prop, dict, "'property'"):
        _typed(prop["target"], str, "'property': 'target'")
    if "count" in prop:
        _typed(prop["count"], int, "'property': 'count'")

    trivial = Guard(TRIVIAL_GUARD_NAME, frozenset(range(n)))
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
        extra = set(spec) - _ACTION_KEYS
        if extra:
            raise ValidationError(
                f"unknown keys {sorted(extra)} in action {spec.get('name')!r}")
        name = _field(spec, "name", str, what)
        kind = spec.get("kind", SENDER)
        if kind not in (SENDER, MAXIMAL):
            raise ValidationError(f"action {name!r}: unknown kind {kind!r}")
        sends = tuple(Send(state(s), state(t))
                      for s, t in _pairs(spec.get("sends", []), f"{what}: 'sends'"))
        if not sends:
            raise ValidationError(f"action {name!r} declares no send")
        if "arity" in spec and _field(spec, "arity", int, what) != len(sends):
            raise ValidationError(
                f"action {name!r}: declared arity {spec['arity']} but {len(sends)} sends")
        pairs = _pairs(spec.get("receives", []), f"{what}: 'receives'", mapping=True)
        rmap = _complete_receives([(state(s), state(t)) for s, t in pairs], n)
        g = guard(spec.get("guard", TRIVIAL_GUARD_NAME), f"action {name!r}")
        add(Action(name, kind, sends, rmap, g))

    for i, decl in enumerate(_typed(raw.get("sugar", []), list, "'sugar'")):
        decl = _typed(decl, dict, f"sugar[{i}]")
        produced = desugar(decl, state, guard, actions, n)
        if decl.get("type") == "disjunctive":
            # replacement for an existing action, same name
            actions[produced[0].name] = produced[0]
        else:
            for action in produced:
                add(action)

    return Protocol(state_names, init, tuple(guards.values()), tuple(actions.values()))
