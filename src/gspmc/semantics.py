"""Forward counter semantics: successor computation.

Global states are tuples counting processes per local state. Firing an
action moves the participating senders along their send slots and routes
every remaining process through the action's receive map; the process
total is conserved.

Which senders take part, through which slots, is the rule of
:meth:`gspmc.model.Action.outcomes`, looked up in ``Action.firings``.
Firing also reads ``outside_mask`` (the states outside the guard, as a
bitmask) and ``moved`` (the states the receive map moves).
:func:`successors` computes the occupied states of a configuration once,
as a bitmask, and tests every action's guard against it with one ``&``.
The backward engine fires its candidate predecessors through the same
:func:`route`, with the ``moves`` of ``Action.participations``, which
come from the same rule.
"""


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


def fire(protocol, q, action):
    """``(u, successor)`` per outcome of firing the action from q, ``u``
    counting the participating senders per state; empty when the action
    is disabled."""
    if _occupied(q) & action.outside_mask:
        return []
    table = action.firings
    return [(u, route(action, q, u, moves))
            for u, _, moves in table[table.offered(q)]]


def successors(protocol, q):
    """``(action name, successor)`` per outcome of every enabled action,
    in action declaration order, then the order of ``Action.outcomes``."""
    occupied = _occupied(q)
    out = []
    for a in protocol.actions:
        if occupied & a.outside_mask:
            continue
        table = a.firings
        for u, _, moves in table[table.offered(q)]:
            out.append((a.name, route(a, q, u, moves)))
    return out
