"""Forward counter semantics: enabledness and successor computation.

Global states are tuples counting processes per local state. Firing an
action moves the participating senders along their send pairs and routes
every remaining process through the action's receive map; the process
total is conserved.

Firing reads the fields each :class:`~gspmc.model.Action` compiles once:
``outside_mask`` (the states outside the guard, as a bitmask),
``sources`` (the send sources with their counts), ``delta`` (the
senders' net move when every send index fires), ``send_dsts`` (per
source, its destinations in ascending send index) and ``moved`` (the
states the receive map moves). :func:`successors` computes the occupied
states of a configuration once, as a bitmask, and tests every action's
guard against it with one ``&``. The backward engine fires its candidate
predecessors through the same :func:`route`, with the ``moves`` that
``Action.participations`` stores for each sender subset.
"""

from gspmc.model import SENDER


class NotEnabled(Exception):
    pass


class FiringOutcome:
    """Successor state plus the per-state sender participation used."""

    __slots__ = ("successor", "participation", "action")

    def __init__(self, successor, participation, action):
        self.successor = successor
        self.participation = participation
        self.action = action

    def __repr__(self):
        return f"FiringOutcome({self.action}, {self.successor})"


def _occupied(q):
    """Bitmask of the states q occupies."""
    mask = 0
    bit = 1
    for c in q:
        if c:
            mask |= bit
        bit <<= 1
    if not mask:
        raise ValueError("global state has no processes")
    return mask


def _senders(action, q):
    """``(u, moves)`` when the action's senders can fire from q, else
    None: ``u`` counts the participating senders per state and ``moves``
    lists their net move as ``(state, change)`` pairs. The guard is not
    checked here.

    Sender actions need q >= senders_from componentwise and fire every
    send index. Maximal actions need one process in some send source and
    fire min(available, declared) senders per source state, taking the
    send indices of a state in ascending order.
    """
    if action.kind == SENDER:
        for s, c in action.sources:
            if q[s] < c:
                return None
        return action.senders_from, action.delta
    u = [0] * len(q)
    moves = []
    for s, dsts in action.send_dsts:
        taken = dsts[:q[s]]
        if taken:
            u[s] = len(taken)
            moves.append((s, -len(taken)))
            moves.extend((d, 1) for d in taken)
    return (u, moves) if moves else None


def route(action, q, u, moves):
    """Successor of q when the senders ``u`` make the ``moves`` and every
    other process follows the action's receive map."""
    succ = list(q)
    for s, c in moves:
        succ[s] += c
    for s, r in action.moved:
        rest = q[s] - u[s]
        if rest:
            succ[s] -= rest
            succ[r] += rest
    return tuple(succ)


def enabled(protocol, q, action):
    """True iff the action can fire from q.

    The guard must cover the support of q. Sender actions additionally
    need q >= senders_from componentwise; maximal actions need at least
    one process in some send-source state.
    """
    return (not (_occupied(q) & action.outside_mask)
            and _senders(action, q) is not None)


def fire(protocol, q, action):
    fired = None if _occupied(q) & action.outside_mask else _senders(action, q)
    if fired is None:
        raise NotEnabled(action.name)
    u, moves = fired
    return FiringOutcome(route(action, q, u, moves), tuple(u), action.name)


def successors(protocol, q):
    """``(action name, successor)`` per enabled action, in action
    declaration order."""
    occupied = _occupied(q)
    out = []
    for a in protocol.actions:
        if occupied & a.outside_mask:
            continue
        fired = _senders(a, q)
        if fired is not None:
            out.append((a.name, route(a, q, *fired)))
    return out
