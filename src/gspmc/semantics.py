"""Forward counter semantics: enabledness and successor computation.

Global states are tuples counting processes per local state. Firing an
action moves the participating senders along their send pairs and routes
every remaining process through the action's receive map; the process
total is conserved.
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


def support(q):
    return frozenset(s for s, c in enumerate(q) if c > 0)


def enabled(protocol, q, action):
    """True iff the action can fire from q.

    The guard must cover the support of q. Sender actions additionally
    need q >= senders_from componentwise; maximal actions need at least
    one process in some send-source state.
    """
    if sum(q) < 1:
        raise ValueError("global state has no processes")
    if not support(q) <= action.guard.members:
        return False
    v = action.senders_from
    if action.kind == SENDER:
        return all(q[s] >= v[s] for s in range(len(q)))
    return any(v[s] > 0 and q[s] > 0 for s in range(len(q)))


def route(action, q, u, uplus):
    """Successor of q when the senders ``u`` land on ``uplus`` and every
    other process follows the action's receive map."""
    succ = list(uplus)
    rmap = action.receive_map
    for s in range(len(q)):
        rest = q[s] - u[s]
        if rest:
            succ[rmap[s]] += rest
    return tuple(succ)


def fire(protocol, q, action):
    if not enabled(protocol, q, action):
        raise NotEnabled(action.name)
    return _fire(q, action)


def _fire(q, action):
    """Outcome of firing an action already known to be enabled at q."""
    n = len(q)
    v = action.senders_from
    if action.kind == SENDER:
        u = v
        uprime = action.senders_to
    else:
        # min(available, declared) senders per source state; the send
        # indices of a state are taken in ascending order.
        u = tuple(min(q[s], v[s]) for s in range(n))
        out = [0] * n
        taken = [0] * n
        for send in action.sends:
            if taken[send.src] < u[send.src]:
                taken[send.src] += 1
                out[send.dst] += 1
        uprime = tuple(out)
    return FiringOutcome(route(action, q, u, uprime), u, action.name)


def successors(protocol, q):
    """One outcome per enabled action, in action declaration order."""
    return [_fire(q, a) for a in protocol.actions if enabled(protocol, q, a)]
