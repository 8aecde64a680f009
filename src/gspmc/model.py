"""Protocol data model: validation and desugaring.

A protocol is one process template. Global actions come in two core kinds:

- ``sender`` (k-sender): fires only when k senders are available, and
  consumes exactly k of them (one per send index);
- ``maximal`` (k-maximal): fires as soon as at least one potential sender
  is present, with min(available, declared) senders participating per
  source state; which of a state's send slots they take is a
  nondeterministic choice. :meth:`Action.outcomes` states and tallies
  this rule once, as the senders' ``(u, uplus)`` counts. The forward
  engine reads it for all but single-source senders (memoised per
  source-digit key in the tables of ``semantics.packed``), the backward
  one (``wsts._pred_table``) for every key it keeps, with no tally of
  its own. Each engine keeps its compiled tables in one bounded memo
  keyed by the protocol's value (:data:`MEMO_SIZE` entries).

Every process that is not a sender reacts through the action's receive
map, a total function on states (missing entries are completed as
self-loops during validation); ``Action.moves``, its pairs that move a
state, is what every layer reads. Derived primitives — internal steps,
pairwise/asynchronous rendezvous, negotiations, disjunctive guards — are
rewritten into core actions by :func:`validate`.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

SENDER = "sender"
MAXIMAL = "maximal"

TRIVIAL_GUARD_NAME = "ALL"

# The most entries that each engine's memo of compiled tables keeps
# (``semantics.packed``, ``wsts.decide``), least recently used evicted
# first: more than the distinct protocols of any benchmark workload.
MEMO_SIZE = 1024


class ValidationError(Exception):
    """A protocol description violates a structural requirement."""


class cached_property:
    """A method computed on first access and stored in the instance
    ``__dict__``, where later lookups find it before this descriptor.
    Unlike :class:`functools.cached_property` it takes no lock, and it
    writes past the ``__setattr__`` of a :class:`Frozen` record."""

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


class Frozen:
    """A record that its ``__init__`` fills once and that refuses writes
    after; it compares, hashes and prints as the tuple of its ``_fields``."""

    _fields: tuple[str, ...]  # set by each subclass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class Guard(namedtuple("Guard", "name members")):
    """A named guard; ``members`` is the frozenset of its state indices."""

    __slots__ = ()


class Send(namedtuple("Send", "src dst")):
    """One send index: the sender moves from ``src`` to ``dst``."""

    __slots__ = ()


class Action(Frozen):
    _fields = ("name", "kind", "sends", "receive_map", "guard")
    name: str
    kind: str  # SENDER or MAXIMAL
    sends: tuple[Send, ...]
    receive_map: tuple[int, ...]  # total: source state index -> target index
    guard: Guard
    # not a field: the ``(s, receive_map[s])`` pairs that move s, ascending s
    moves: tuple[tuple[int, int], ...]

    def __init__(self, name, kind, sends, receive_map, guard):
        moves = []
        for s, r in enumerate(receive_map):
            if s != r:
                moves.append((s, r))
        # past Frozen.__setattr__, which refuses every write
        vars(self).update(name=name, kind=kind, sends=sends, receive_map=receive_map,
                          guard=guard, moves=tuple(moves))

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
        A source that gives all of its slots is counted once into a base
        that every outcome shares, and the product runs only over the
        sources that give part of theirs. Every engine tally but a
        single-source sender's comes from here (module docstring).
        """
        if not any(key) or (self.kind == SENDER and key != self.caps):
            return ()
        n = len(self.receive_map)
        u, base = [0] * n, [0] * n
        partial = []
        for s, k, dsts in zip(self.sources, key, self._slots):
            if k:
                u[s] = k
                if k == len(dsts):
                    for t in dsts:
                        base[t] += 1
                else:
                    partial.append(itertools.combinations(dsts, k))
        u = tuple(u)
        if not partial:
            return ((u, tuple(base)),)
        uplus = {}
        for taken in itertools.product(*partial):
            x = base[:]
            for t in itertools.chain.from_iterable(taken):
                x[t] += 1
            uplus[tuple(x)] = None
        return tuple((u, x) for x in uplus)

    @cached_property
    def guardmask(self) -> int:
        """The bitmask of the states inside the guard."""
        return sum(1 << s for s in self.guard.members)


class Protocol(namedtuple("Protocol", "state_names init guards actions")):
    """A validated protocol: its state names, the index of its initial
    state, its guards and its core actions, each a tuple."""

    __slots__ = ()

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
        return tuple(dict.fromkeys(a.guard for a in self.actions if a.guard.members != full))

    @property
    def is_unguarded(self) -> bool:
        return not self.used_guards()


def is_internal(action: Action) -> bool:
    """Structural test: arity 1 and identity receive map (no moves).

    Internal steps move one process and leave everyone else in place, so
    this shape is definitive regardless of how the action was authored.
    """
    return len(action.sends) == 1 and not action.moves


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


def _complete_receives(pairs, identity, states, what: str, name: str):
    """Receive index pairs of the ``what`` named ``name`` -> total map,
    self-loops on missing sources."""
    targets = dict(pairs)
    if len(targets) < len(pairs):
        src = next(s for j, (s, _) in enumerate(pairs) if s in dict(pairs[:j]))
        raise ValidationError(
            f"{what} {name!r}: two receive targets declared for state {states[src]!r}")
    return tuple(map(targets.get, identity, identity))


def _indices(names, index):
    """The indices of ``names``, a list of state names; None if it is not one."""
    try:
        return [index[s] for s in names] if type(names) is list else None
    except (KeyError, TypeError):
        return None


def _index_pairs(pairs, index, mapping: bool = False):
    """The index pairs of a list of [from, to] lists of state names (or,
    when ``mapping``, of an object from -> to); None if it is not one."""
    if mapping and type(pairs) is dict:
        pairs = pairs.items()
    elif type(pairs) is not list or not _LIST.issuperset(map(type, pairs)):
        return None
    try:
        return [(index[s], index[t]) for s, t in pairs]
    except (KeyError, TypeError, ValueError):
        return None


_send = functools.partial(tuple.__new__, Send)  # Send(*pair), skipping its Python __new__

# Each ``_*_fault`` function runs only once a check of ``validate`` has
# failed: it returns the error for the value, named by ``what``, or None.

_JSON_TYPES = {str: "a string", list: "a list", dict: "an object", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _kind_fault(value, kind, what: str):
    if type(value) is not kind:
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        return ValidationError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")


def _unknown_fault(names, known, unknown: str = "unknown state"):
    return next((ValidationError(f"{unknown} {s!r}") for s in names if s not in known), None)


def _field_fault(spec: dict, key: str, kind, what: str):
    return (_kind_fault(spec[key], kind, f"{what}: {key!r}") if key in spec
            else ValidationError(f"{what}: missing {key!r}"))


def _names_fault(value, what: str, index=None, pair: bool = False, entries: str = ""):
    """``value`` as a list of names (a [from, to] pair when ``pair``, its
    entries named ``entries``), then as states when given their ``index``."""
    fault = _kind_fault(value, list, what) or next(filter(None, (
        _kind_fault(s, str, entries or f"{what} entries") for s in value)), None)
    if not fault and pair and len(value) != 2:
        got = f"{len(value)} name" + "s" * (len(value) != 1)
        fault = ValidationError(f"{what} must be a [from, to] pair, got {got}")
    return fault or (_unknown_fault(value, index) if index is not None else None)


def _pairs_fault(value, what: str, index, mapping: bool = False):
    """``value`` as a list of [from, to] pairs (or, when ``mapping``, an
    object from -> to): every entry's shape, then its states."""
    if mapping and type(value) is dict:
        value = [list(pair) for pair in value.items()]
    entries = f"{what} entries"
    fault = _kind_fault(value, list, what) or next(filter(None, (
        _names_fault(p, entries, pair=True, entries=entries) for p in value)), None)
    return fault or _unknown_fault(itertools.chain.from_iterable(value), index)


_RAW_KEYS = frozenset({"states", "init", "guards", "actions", "sugar", "property"})
_PROPERTY_KEYS = frozenset({"target", "count"})
_ACTION_KEYS = frozenset({"name", "kind", "arity", "sends", "receives", "guard"})
# per sugar type, its keys; a disjunctive declaration's name is not used
_SUGAR_KEYS = {kind: frozenset({"type", "name", *keys}) for kind, keys in (
    ("internal", ("from", "to", "guard")), ("pairwise", ("send", "recv", "guard")),
    ("async", ("send", "recv", "guard")), ("negotiation", ("map", "guard")),
    ("disjunctive", ("action", "witnesses")))}
_SUGAR_TYPES = tuple(_SUGAR_KEYS)  # a tuple, as a declared type need not hash
_LIST, _STR = frozenset({list}), frozenset({str})


def validate(raw: dict) -> Protocol:
    """Build a Protocol from a parsed description, checking every invariant.

    The first failed check raises. In order: (1) the top-level keys; (2)
    ``states``; (3) ``init``; (4) ``property``: type, keys, entries; (5)
    ``guards``; (6) each core action in file order: keys, name, kind, sends (every
    pair's shape before any state), arity, receives (likewise, then one
    target per source), guard, a new name; (7) each sugar declaration in
    file order: type, keys, fields, then its expansion into core actions.
    Receive maps are completed with self-loops.
    """
    if not _RAW_KEYS.issuperset(raw):
        raise ValidationError(f"unknown top-level keys: {sorted(set(raw) - _RAW_KEYS)}")

    states = raw.get("states", [])
    if type(states) is not list or not _STR.issuperset(map(type, states)) or not states:
        raise (_names_fault(states, "'states'")
               or ValidationError("protocol needs at least one state"))
    identity = tuple(range(len(states)))
    index = dict(zip(states, identity))
    if len(index) != len(states):
        raise ValidationError("duplicate state name " + repr(next(
            s for i, s in enumerate(states) if s in states[:i])))

    init = raw.get("init")
    if type(init) is not str or init not in index:
        raise (ValidationError("missing init state") if "init" not in raw
               else _kind_fault(init, str, "'init'") or _unknown_fault((init,), index))

    prop = raw.get("property")
    if prop is not None and (type(prop) is not dict or not _PROPERTY_KEYS.issuperset(prop)):
        raise _kind_fault(prop, dict, "'property'") or ValidationError(
            f"unknown keys {sorted(set(prop) - _PROPERTY_KEYS)} in 'property'")
    for key, kind in (("target", str), ("count", int)) if prop else ():
        if key in prop and type(prop[key]) is not kind:
            raise _kind_fault(prop[key], kind, f"'property': {key!r}")

    guards = {TRIVIAL_GUARD_NAME: Guard(TRIVIAL_GUARD_NAME, frozenset(identity))}
    declared = raw.get("guards", {})
    if type(declared) is not dict:
        raise _kind_fault(declared, dict, "'guards'")
    for gname, names in declared.items():
        if gname == TRIVIAL_GUARD_NAME:
            raise ValidationError(f"{TRIVIAL_GUARD_NAME!r} is reserved for the trivial guard")
        members = _indices(names, index)
        if not members:
            raise (_names_fault(names, f"guard {gname!r}", index)
                   or ValidationError(f"guard {gname!r} is empty"))
        guards[gname] = Guard(gname, frozenset(members))

    actions: dict[str, Action] = {}
    specs = raw.get("actions", [])
    if type(specs) is not list:
        raise _kind_fault(specs, list, "'actions'")
    for i, spec in enumerate(specs):
        if type(spec) is not dict or not _ACTION_KEYS.issuperset(spec):
            raise _kind_fault(spec, dict, f"actions[{i}]") or ValidationError(
                f"unknown keys {sorted(set(spec) - _ACTION_KEYS)} in action {spec.get('name')!r}")
        name, kind = spec.get("name"), spec.get("kind", SENDER)
        if type(name) is not str or kind not in (SENDER, MAXIMAL):
            raise (_field_fault(spec, "name", str, f"actions[{i}]")
                   or ValidationError(f"action {name!r}: unknown kind {kind!r}"))
        sends = _index_pairs(spec.get("sends", []), index)
        if not sends:
            raise (_pairs_fault(spec.get("sends", []), f"actions[{i}]: 'sends'", index)
                   or ValidationError(f"action {name!r} declares no send"))
        arity = spec.get("arity", len(sends))
        if type(arity) is not int or arity != len(sends):
            raise _kind_fault(arity, int, f"actions[{i}]: 'arity'") or ValidationError(
                f"action {name!r}: declared arity {arity} but {len(sends)} sends")
        receives = _index_pairs(spec.get("receives", []), index, mapping=True)
        if receives is None:
            raise _pairs_fault(spec["receives"], f"actions[{i}]: 'receives'", index, True)
        rmap = _complete_receives(receives, identity, states, "action", name)
        gname = spec.get("guard", TRIVIAL_GUARD_NAME)
        if type(gname) is not str or gname not in guards or name in actions:
            raise (_kind_fault(gname, str, f"action {name!r}: 'guard'")
                   or _unknown_fault((gname,), guards, f"action {name!r}: unknown guard")
                   or ValidationError(f"duplicate action name {name!r}"))
        actions[name] = Action(name, kind, tuple(map(_send, sends)), rmap, guards[gname])

    decls = raw.get("sugar", [])
    if type(decls) is not list:
        raise _kind_fault(decls, list, "'sugar'")
    for i, decl in enumerate(decls):
        if type(decl) is not dict or decl.get("type") not in _SUGAR_TYPES:
            raise _kind_fault(decl, dict, f"sugar[{i}]") or ValidationError(
                f"unknown sugar type {decl.get('type')!r}")
        kind = decl["type"]
        if not _SUGAR_KEYS[kind].issuperset(decl):
            raise ValidationError(
                f"unknown keys {sorted(set(decl) - _SUGAR_KEYS[kind])} in sugar {kind!r}")

        if kind == "disjunctive":
            name = decl.get("action")
            if type(name) is not str or name not in actions:
                raise _field_fault(decl, "action", str, "sugar 'disjunctive'") or ValidationError(
                    f"disjunctive guard references unknown action {name!r}")
            witnesses = _indices(decl.get("witnesses", []), index)
            if not witnesses:
                raise (_names_fault(decl.get("witnesses", []),
                                    "sugar 'disjunctive': 'witnesses'", index)
                       or ValidationError("disjunctive guard needs at least one witness state"))
            # each witness joins the named action as a sender along its receive entry
            base = actions[name]
            extra = tuple([_send((w, base.receive_map[w])) for w in witnesses])
            actions[name] = Action(name, base.kind, base.sends + extra,
                                   base.receive_map, base.guard)
            continue

        name = decl.get("name")
        gname = TRIVIAL_GUARD_NAME if decl.get("guard") is None else decl["guard"]
        if type(name) is not str or type(gname) is not str or gname not in guards:
            what = f"sugar {kind!r}"
            raise (_field_fault(decl, "name", str, what)
                   or _kind_fault(gname, str, f"{what}: 'guard'")
                   or _unknown_fault((gname,), guards, f"{what}: unknown guard"))
        if kind == "negotiation":
            moves = _index_pairs(decl.get("map"), index, mapping=True)
            if not moves:
                raise (_pairs_fault(decl.get("map"), "sugar 'negotiation': 'map'", index, True)
                       or ValidationError("negotiation map must be non-empty"))
            rmap = _complete_receives(moves, identity, states, "negotiation", name)
            produced = [Action(f"{name}#{j}", SENDER, (_send(move),), rmap, guards[gname])
                        for j, move in enumerate(moves, start=1)]
        elif kind == "internal":
            sends = _index_pairs([[decl.get("from"), decl.get("to")]], index)
            if sends is None:
                raise next(filter(None, (_field_fault(decl, key, str, "sugar 'internal'")
                                         or _unknown_fault((decl[key],), index)
                                         for key in ("from", "to"))))
            produced = [Action(name, SENDER, (_send(sends[0]),), identity, guards[gname])]
        else:  # pairwise / async rendezvous
            sends = _index_pairs([decl.get("send"), decl.get("recv")], index)
            if sends is None:
                raise next(filter(None, (_names_fault(decl.get(key), f"sugar {kind!r}: {key!r}",
                                                      index, pair=True)
                                         for key in ("send", "recv"))))
            produced = [Action(name, SENDER if kind == "pairwise" else MAXIMAL,
                               tuple(map(_send, sends)), identity, guards[gname])]
        for action in produced:
            if action.name in actions:
                raise ValidationError(f"duplicate action name {action.name!r}")
            actions[action.name] = action

    return Protocol(tuple(states), index[init], tuple(guards.values()), tuple(actions.values()))
