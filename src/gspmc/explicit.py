"""Explicit-state checking for a fixed number of processes.

Breadth-first search over counter vectors, deduplicated on the vector
itself (exact for anonymous processes), returning a shortest witness
trace when the target count is reachable.
"""

from collections import deque
from dataclasses import dataclass

from gspmc import semantics
from gspmc.model import ValidationError

DEFAULT_STATE_BUDGET = 10**7


class StateBudgetExceeded(Exception):
    def __init__(self, explored, size):
        super().__init__(f"state budget exhausted after {explored} states (n={size})")
        self.explored = explored
        self.size = size


@dataclass(frozen=True)
class ReachQuery:
    """Can at least ``threshold`` processes sit in ``target`` with ``size`` processes total?"""

    target: int
    threshold: int
    size: int

    def __post_init__(self):
        if self.threshold < 1:
            raise ValidationError("threshold must be at least 1")
        if self.threshold > self.size:
            raise ValidationError(
                f"threshold {self.threshold} exceeds system size {self.size}: "
                "trivially unreachable, refusing the query")


@dataclass
class FixedResult:
    reachable: bool
    # [(None, q0), (action, q1), ...]; consecutive states related by fire
    trace: list | None
    explored: int


@dataclass
class SweepResult:
    found: bool
    n: int | None
    trace: list | None
    searched_up_to: int


def require_budget(budget, what):
    """Refuse a search budget below 1 before any search starts."""
    if budget < 1:
        raise ValidationError(f"{what} budget must be at least 1")


def check_fixed(protocol, query, state_budget=DEFAULT_STATE_BUDGET):
    """BFS from the all-in-init state; shortest trace on success."""
    require_budget(state_budget, "state")
    q0 = tuple(query.size if s == protocol.init else 0
               for s in range(protocol.n_states))
    target, threshold = query.target, query.threshold
    if q0[target] >= threshold:
        return FixedResult(True, [(None, q0)], 1)
    parent = {q0: None}
    frontier = deque([q0])
    while frontier:
        q = frontier.popleft()
        for action, nxt in semantics.successors(protocol, q):
            if nxt in parent:
                continue
            parent[nxt] = (q, action)
            if nxt[target] >= threshold:
                steps = [(action, nxt)]
                cur = q
                while parent[cur] is not None:
                    prev, act = parent[cur]
                    steps.append((act, cur))
                    cur = prev
                steps.append((None, q0))
                steps.reverse()
                return FixedResult(True, steps, len(parent))
            if len(parent) > state_budget:
                raise StateBudgetExceeded(len(parent), query.size)
            frontier.append(nxt)
    return FixedResult(False, None, len(parent))


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
