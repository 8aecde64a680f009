"""Forward counter semantics: successor computation.

Global states count processes per local state. Firing an action moves
the participating senders along their send slots and routes every
remaining process through the action's receive map; the process total
is conserved. Which senders take part, through which slots, is the rule
of :meth:`gspmc.model.Action.outcomes`.

There is one forward firing path, over packed configurations: with n
processes, each state's count is one digit of W = ``n.bit_length()``
bits, state s at bit W*s. A count is at most n < 2**W, so a
configuration is one ``int`` whose digits never carry into each other.
For that width each action has a tuple of tables:
``outside`` masks the digits of the states outside the guard (the guard
holds iff ``code & outside`` is 0), ``field`` masks the digits of its
``sources``, and ``moved`` holds ``(W*s, B[r] - B[s])`` per pair (s, r)
of ``Action.moves``, B[s] being ``1 << W*s``. A successor is ``code +
sum(digit_s * (B[r] - B[s])) + delta``: the receive map applied to
every process, then one delta per outcome ``(u, uplus)``, which moves
the ``u`` senders from where the receive map put them to ``uplus``.

A sender whose c send slots all leave one state s fires all c senders
in one outcome, so its table comes from its sends, receive map R and
guard alone: ``need = c << W*s`` (enabled iff the guard holds and ``code
& field >= need``) and the one ``delta = sum(B[dst] per send) -
c*B[R(s)]``. Every other action (maximal, or a sender with several
source states) has ``need`` 0 and its deltas memoised per ``code &
field`` from ``Action.outcomes``. That stays the firing rule: the tests
pin every table against one built from ``Action.outcomes`` alone.

A single-source sender of cap 1 whose receive map moves nobody fires as
``code + delta``, and it is enabled iff its source digit is nonzero and
every digit outside its guard is zero, so which ones are enabled
depends only on which digits are nonzero. :class:`Packed` splits the
actions into the leading run of such senders, whose enabled deltas
:func:`successors` looks up by the code's nonzero-digit mask, a few
``int`` operations and one dict lookup, and the rest, which it tests
one entry at a time in declaration order.

The search unpacks only its trace, and names its steps with
:func:`step_names`; :func:`fire` runs one action on one counter vector
through the same tables, built for that call.

:func:`packed` keeps one :class:`Packed` per protocol and digit width in
a bounded memo keyed by the validated protocol's value, for the reason
that ``gspmc.model``'s docstring gives for all of its memos, so every
size of one width, every query and every equal protocol share its tables
and the ``_Enabled`` and ``_Deltas`` memos on them. The entry holds the
interned protocol object, whose actions the tables read; a process that
answers one query, such as one ``gspmc`` command, builds every table it
uses once either way and gains nothing from the memo.
"""

import functools

from gspmc.model import MEMO_SIZE, SENDER


class _Deltas(dict):
    """Packed outcome deltas of one action at one width, per ``code &
    field``, filled on first lookup from ``Action.outcomes``. The counts
    a configuration offers in the ``sources`` states are clipped to the
    action's ``caps``, and the keys that clip to one key share its
    deltas. A delta takes each sender out of the digit the receive map
    moved it to and adds it at its destination."""

    __slots__ = ("action", "width", "sources", "caps", "receive_map")

    def __init__(self, action, width):
        self.action = action
        self.width = width
        self.sources = action.sources
        self.caps = action.caps
        self.receive_map = action.receive_map

    def __missing__(self, key):
        w = self.width
        mask = (1 << w) - 1
        offered = []
        clipped = 0
        for s, cap in zip(self.sources, self.caps):
            c = min(key >> w * s & mask, cap)
            offered.append(c)
            clipped |= c << w * s
        if clipped != key:
            out = self[key] = self[clipped]
            return out
        out = self[key] = tuple(
            sum(c << w * t for t, c in enumerate(uplus))
            - sum(u[s] << w * self.receive_map[s] for s in self.sources)
            for u, uplus in self.action.outcomes(tuple(offered)))
        return out


def _packed_action(action, width):
    """``(outside, field, need, moved, deltas, name)``, the action's
    tables at one width (see the module docstring), ``outside`` built
    only for a non-trivial guard. A cap above a digit's capacity (arity 2
    at n = 1, say) gives a ``need`` no digit reaches, so the action stays
    disabled. A plain tuple: the interpreter unpacks it faster than a
    named one."""
    mask = (1 << width) - 1
    members, sends, n = action.guard.members, action.sends, len(action.receive_map)
    outside = 0
    if len(members) < n:
        for s in range(n):
            if s not in members:
                outside |= mask << width * s
    moved = []
    for s, r in action.moves:
        moved.append((width * s, (1 << width * r) - (1 << width * s)))
    moved = tuple(moved)
    s = sends[0].src
    if action.kind == SENDER:  # one delta when every send slot leaves s
        delta = 0
        for send in sends:
            if send.src != s:
                break
            delta += 1 << width * send.dst
        else:
            delta -= len(sends) << width * action.receive_map[s]
            return (outside, mask << width * s, len(sends) << width * s, moved,
                    (delta,), action.name)
    field = 0
    for s in action.sources:
        field |= mask << width * s
    return outside, field, 0, moved, _Deltas(action, width), action.name


def _fast(table):
    """Whether the table is a cap-1 single-source sender's whose receive
    map moves nobody: when enabled, its successor is ``code + delta``."""
    return table[2] == table[1] & -table[1] and not table[3]


class _Enabled(dict):
    """Deltas of the ``head`` entries ``(outside, field, delta)`` enabled
    at each nonzero-digit mask ``nz``, in declaration order, filled on
    first lookup from the mask alone: with cap 1, an entry is enabled iff
    ``nz & field`` (its source digit is nonzero) and not ``nz & outside``
    (every digit outside its guard is zero)."""

    __slots__ = ("head",)

    def __init__(self, head):
        self.head = head

    def __missing__(self, nz):
        out = []
        for outside, field, delta in self.head:
            if nz & field and not nz & outside:
                out.append(delta)
        self[nz] = out
        return out


class Packed:
    """A protocol compiled for packed configurations of ``width``-bit
    digits: the tables of each action, in declaration order, and the
    same actions as ``kernel``, a pair ``(head, rest)``: ``head`` is the
    run of :func:`_fast` tables the actions start with (maybe empty),
    each cut down to ``(outside, field, delta)``, and ``rest`` the
    tables after it.

    ``lookup`` is ``(low, high, enabled)``: a code's nonzero-digit mask
    is ``(((code & low) + low) | code) & high`` (digit s of ``high`` is
    ``1 << W-1``, of ``low`` that minus 1, so no carry crosses a digit),
    and ``enabled`` (an :class:`_Enabled`) maps it to the deltas of the
    ``head`` entries enabled there."""

    __slots__ = ("actions", "kernel", "width", "mask", "n_states", "lookup")

    def __init__(self, actions, width, n_states):
        self.actions = actions
        head = []
        for t in actions:
            if not _fast(t):
                break
            head.append((t[0], t[1], t[4][0]))
        self.kernel = (tuple(head), actions[len(head):])
        self.width = width
        self.mask = mask = (1 << width) - 1
        self.n_states = n_states
        ones = ((1 << width * n_states) - 1) // mask
        self.lookup = (ones * (mask >> 1), ones << width - 1, _Enabled(head))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _compiled(protocol, width):
    """The protocol's :class:`Packed` at one digit width, built once per
    protocol value (module docstring)."""
    return Packed(tuple(_packed_action(a, width) for a in protocol.actions),
                  width, protocol.n_states)


def packed(protocol, n):
    """The protocol's packed tables for configurations of n processes,
    shared by every size of the same digit width."""
    return _compiled(protocol, n.bit_length())


def pack(packed, q):
    """The packed code of the counter vector q."""
    return sum(c << packed.width * s for s, c in enumerate(q))


def unpack(packed, code):
    """The counter vector of a packed code."""
    w, mask = packed.width, packed.mask
    return tuple([code >> w * s & mask for s in range(packed.n_states)])


def successors(packed, code):
    """Successor codes of a packed configuration: every outcome of every
    enabled action, in action declaration order, then the order of
    ``Action.outcomes``."""
    head, rest = packed.kernel
    out = []
    if head:
        low, high, enabled = packed.lookup
        for delta in enabled[(((code & low) + low) | code) & high]:
            out.append(code + delta)
        if not rest:
            return out
    mask = packed.mask
    for outside, field, need, moved, deltas, _ in rest:
        if code & outside:
            continue
        if need:
            if code & field < need:
                continue
        else:
            deltas = deltas[code & field]
            if not deltas:
                continue
        base = code
        for shift, step in moved:
            base += (code >> shift & mask) * step
        for delta in deltas:
            out.append(base + delta)
    return out


# ``explicit.check_fixed`` reads ``successors`` from this module
# attribute once per search and calls that binding once per expanded
# configuration, so that a wrapper put here (a profiler's) before the
# search starts sees every expansion; ``fire`` uses this binding instead.
_successors = successors


def fire(q, action):
    """The successor vectors of firing the action from the counter vector
    q, in the order of ``Action.outcomes``; empty when it is disabled."""
    width = sum(q).bit_length()
    if not width:
        raise ValueError("global state has no processes")
    one = Packed((_packed_action(action, width),), width, len(q))
    return [unpack(one, succ) for succ in _successors(one, pack(one, q))]


def step_names(packed, path):
    """Name of the first action, in declaration order, that takes each
    code of ``path`` to the next (None if none does). One scan of
    ``packed.actions`` names each step, every table tested as the kernel
    tests the tables of ``rest``: a trace names each of its steps once,
    so no memo (a map from head deltas to tables, say) would pay."""
    mask = packed.mask
    names = []
    for code, succ in zip(path, path[1:]):
        for outside, field, need, moved, deltas, name in packed.actions:
            if code & outside or code & field < need:
                continue
            if not need:
                deltas = deltas[code & field]
            base = code
            for shift, step in moved:
                base += (code >> shift & mask) * step
            if succ - base in deltas:
                break
        else:
            name = None
        names.append(name)
    return names
