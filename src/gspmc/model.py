"""Protocol data model: validation and desugaring.

A protocol is one process template. Global actions come in two core kinds:

- ``sender`` (k-sender): fires only when k senders are available, and
  consumes exactly k of them (one per send index);
- ``maximal`` (k-maximal): fires as soon as at least one potential sender
  is present, with min(available, declared) senders participating per
  source state; which of a state's send slots they take is a
  nondeterministic choice. :meth:`Action.outcomes` states this rule once,
  as the senders' ``(u, uplus)`` counts, for the forward engine (memoised
  in ``Action.packed_tables``) and the backward one, which reads it only
  on the keys that its support bound keeps (``wsts._pred_table``).

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

SENDER = "sender"
MAXIMAL = "maximal"

TRIVIAL_GUARD_NAME = "ALL"


class ValidationError(Exception):
    """A protocol description violates a structural requirement."""


class cached_property:
    """A method computed on first access and stored in the instance
    ``__dict__``, where later lookups find it before this descriptor.
    Unlike :class:`functools.cached_property` it takes no lock, and it
    writes past a frozen dataclass's ``__setattr__``."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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

    # Compiled once per action, so that firing and predecessor search
    # read flat tuples instead of re-deriving them per configuration.

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """The states some send slot leaves, ascending."""
        return tuple(sorted({send.src for send in self.sends}))

    @cached_property
    def caps(self) -> tuple[int, ...]:
        """``caps[i]``: the number of send slots leaving the i-th
        ``sources`` state, the most senders it can give."""
        return tuple(map(len, self._slots))

    @cached_property
    def premasks(self) -> tuple[int, ...]:
        """``premasks[t]``: the bitmask of the states the receive map
        sends to t, its preimages."""
        masks = [0] * len(self.receive_map)
        for s, r in enumerate(self.receive_map):
            masks[r] |= 1 << s
        return tuple(masks)

    @cached_property
    def packed_tables(self) -> dict:
        """Per digit width, the action's tables for packed configurations,
        filled by :mod:`gspmc.semantics` on first use of that width."""
        return {}

    @cached_property
    def _slots(self) -> tuple[tuple[int, ...], ...]:
        """Per ``sources`` state, the destinations of its send slots in
        ascending send index."""
        return tuple(tuple(send.dst for send in self.sends if send.src == s)
                     for s in self.sources)

    def outcomes(self, key: tuple[int, ...]) -> tuple[tuple, ...]:
        """The distinct ``(u, uplus)`` outcomes of firing with
        ``key[i]`` senders from the i-th ``sources`` state.

        With c processes in a source state that has k send slots,
        min(c, k) of them take part: that count is the state's entry of
        the key. Sender actions fire only on the full key, with every
        send slot. Maximal actions fire on every non-zero key, once per
        distinct multiset of destinations the taken slots reach, in the
        order of :func:`itertools.product` over the sources (ascending
        state) of the :func:`itertools.combinations` of each source's
        slots (ascending send index). The guard is not checked here.
        ``u`` and ``uplus`` count the senders per source and destination.
        """
        if not any(key) or (self.kind == SENDER and key != self.caps):
            return ()
        n = len(self.receive_map)
        u = [0] * n
        for s, k in zip(self.sources, key):
            u[s] = k
        u = tuple(u)
        uplus = dict.fromkeys(
            tally(n, itertools.chain.from_iterable(taken))
            for taken in itertools.product(
                *map(itertools.combinations, self._slots, key)))
        return tuple((u, x) for x in uplus)

    @cached_property
    def guardmask(self) -> int:
        """The bitmask of the states inside the guard."""
        return sum(1 << s for s in self.guard.members)


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


def _complete_receives(pairs, identity):
    """Receive pairs -> total map, self-loops on missing sources."""
    rmap = list(identity)
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

    if kind == "disjunctive":
        ref = _field(decl, "action", str, what)
        if ref not in actions:
            raise ValidationError(f"disjunctive guard references unknown action {ref!r}")
        witnesses = _names(decl.get("witnesses", []), what, "witnesses")
        if not witnesses:
            raise ValidationError("disjunctive guard needs at least one witness state")
        base = actions[ref]
        extra = tuple(Send(state(w), base.receive_map[state(w)]) for w in witnesses)
        return [dataclasses.replace(base, sends=base.sends + extra)]

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
        rmap = _complete_receives(pairs, identity)
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
    if "target" in _typed(prop, dict, "'property'"):
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
        rmap = _complete_receives([(state(s), state(t)) for s, t in pairs], identity)
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
