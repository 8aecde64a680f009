"""Explicit-state checking for a fixed number of processes.

Breadth-first search over counter vectors, deduplicated on the vector
itself (exact for anonymous processes), returning a shortest witness
trace when the target count is reachable.

The search runs on packed configurations (see :mod:`gspmc.semantics`):
one ``int`` per configuration, ``n.bit_length()`` bits per state, and
one call of ``semantics.successors`` per expanded configuration,
expanded level by level. Only the configurations of the returned trace
are unpacked, each step labelled with the first action, in declaration
order, that makes it.
"""

from typing import NamedTuple

from gspmc import semantics
from gspmc.model import Frozen, ValidationError

DEFAULT_STATE_BUDGET = 10**7


class StateBudgetExceeded(Exception):
    def __init__(self, explored, size):
        super().__init__(f"state budget exhausted after {explored} states (n={size})")
        self.explored = explored


class ReachQuery(Frozen):
    """Can at least ``threshold`` processes sit in ``target`` with ``size`` processes total?"""

    _fields = ("target", "threshold", "size")

    def __init__(self, target: int, threshold: int, size: int):
        if threshold < 1:
            raise ValidationError("threshold must be at least 1")
        if size < 1:
            raise ValidationError("system size must be at least 1")
        if threshold > size:
            raise ValidationError(
                f"threshold {threshold} exceeds system size {size}: "
                "trivially unreachable, refusing the query")
        vars(self).update(target=target, threshold=threshold, size=size)


class FixedResult(NamedTuple):
    reachable: bool
    # [(None, q0), (action, q1), ...]; consecutive states related by fire
    trace: list | None
    explored: int


class SweepResult(NamedTuple):
    found: bool
    n: int | None
    trace: list | None
    searched_up_to: int


def require_budget(budget, what):
    """Refuse a search budget below 1 before any search starts."""
    if budget < 1:
        raise ValidationError(f"{what} budget must be at least 1")


def check_fixed(protocol, query, state_budget=DEFAULT_STATE_BUDGET):
    """BFS from the all-in-init state, level by level; shortest trace on
    success. The target holds at ``code`` iff ``code & digit >= need``.
    The configuration discovered past ``state_budget`` raises, after it
    is tested against the target."""
    require_budget(state_budget, "state")
    packed = semantics.packed(protocol, query.size)
    start = query.size << packed.width * protocol.init  # all in init
    shift = packed.width * query.target
    digit, need = packed.mask << shift, query.threshold << shift
    parent = {start: None}
    if start & digit >= need:
        return FixedResult(True, _trace(packed, parent, start), 1)
    successors = semantics.successors
    left = state_budget  # discoveries until the budget is exhausted
    level = [start]
    while level:
        frontier, level = level, []
        for q in frontier:
            for nxt in successors(packed, q):
                if nxt in parent:
                    continue
                parent[nxt] = q
                if nxt & digit >= need:
                    return FixedResult(True, _trace(packed, parent, nxt), len(parent))
                left -= 1
                if not left:
                    raise StateBudgetExceeded(len(parent), query.size)
                level.append(nxt)
    return FixedResult(False, None, len(parent))


def _trace(packed, parent, last):
    """The BFS tree path from the start to ``last``, unpacked, each step
    labelled with the first action that takes its parent to it."""
    path = [last]
    code = parent[last]
    while code is not None:
        path.append(code)
        code = parent[code]
    path.reverse()
    mask = packed.mask
    shifts = range(0, packed.width * packed.n_states, packed.width)
    return list(zip([None, *semantics.step_names(packed, path)],
                    [tuple([code >> s & mask for s in shifts]) for code in path]))


def min_witness_size(protocol, target, threshold, n_max,
                     state_budget=DEFAULT_STATE_BUDGET):
    """Smallest n in [threshold, n_max] whose system reaches the target count."""
    require_budget(state_budget, "state")
    if n_max < threshold:
        raise ValidationError("n_max must be at least the threshold")
    for n in range(threshold, n_max + 1):
        result = check_fixed(protocol, ReachQuery(target, threshold, n),
                             state_budget=state_budget)
        if result.reachable:
            return SweepResult(True, n, result.trace, n)
    return SweepResult(False, None, None, n_max)
