from __future__ import annotations

import random

import pytest

from gspmc import semantics
from gspmc.explicit import (
    ReachQuery,
    StateBudgetExceeded,
    check_fixed,
    min_witness_size,
)
from gspmc.model import ValidationError

import _gen
import _oracle
from conftest import config


class TestReachQuery:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError, match="at least 1"):
            ReachQuery(target=0, threshold=0, size=3)

    def test_threshold_above_size_refused(self):
        with pytest.raises(ValidationError, match="trivially unreachable"):
            ReachQuery(target=0, threshold=4, size=3)


def replay(protocol, trace):
    """Re-drive a trace through the multiset simulator and return the
    final configuration it lands in."""
    head, *steps = trace
    assert head[0] is None
    states = _oracle.as_counter(head[1])
    for name, expected in steps:
        action = protocol.action(name)
        assert _oracle.multiset_enabled(states, action)
        states = _oracle.multiset_fire(states, action)
        assert states == _oracle.as_counter(expected)
    return states


class TestCheckFixed:
    def test_smoke_three_processes_two_report(self, smoke):
        res = check_fixed(smoke, ReachQuery(smoke.state_index("Report"), 2, 3))
        assert res.reachable
        final = replay(smoke, res.trace)
        assert final[smoke.state_index("Report")] >= 2
        # shortest witness: i, i, Smoke, Choose
        assert len(res.trace) - 1 == 4

    def test_smoke_three_processes_three_report(self, smoke):
        res = check_fixed(smoke, ReachQuery(smoke.state_index("Report"), 3, 3))
        assert not res.reachable
        assert res.trace is None
        assert res.explored > 1

    def test_two_sender_variant_matches(self, smoke_2sender):
        p = smoke_2sender
        report = p.state_index("Report")
        assert check_fixed(p, ReachQuery(report, 2, 3)).reachable
        assert not check_fixed(p, ReachQuery(report, 3, 3)).reachable

    def test_goal_met_at_start(self, smoke):
        res = check_fixed(smoke, ReachQuery(smoke.init, 1, 5))
        assert res.reachable
        assert res.trace == [(None, config(smoke, Env=5))]
        assert res.explored == 1

    def test_budget_exceeded(self, smoke):
        with pytest.raises(StateBudgetExceeded) as exc:
            check_fixed(smoke, ReachQuery(smoke.state_index("Report"), 9, 9),
                        state_budget=10)
        assert exc.value.explored > 10

    def test_trace_is_shortest(self, smoke):
        """BFS depth must agree with the independent multiset search."""
        report = smoke.state_index("Report")
        for n in range(2, 7):
            res = check_fixed(smoke, ReachQuery(report, 2, n))
            depth = _oracle.multiset_bfs(smoke, n, report, 2)
            assert res.reachable == (depth is not None)
            if res.reachable:
                assert len(res.trace) - 1 == depth


class TestMinWitnessSize:
    def test_smoke_sweep_found(self, smoke):
        res = min_witness_size(smoke, smoke.state_index("Report"), 2, 8)
        assert res.found and res.n == 2
        assert replay(smoke, res.trace)[smoke.state_index("Report")] >= 2

    def test_smoke_sweep_not_found(self, smoke):
        res = min_witness_size(smoke, smoke.state_index("Report"), 3, 6)
        assert not res.found
        assert res.n is None and res.trace is None
        assert res.searched_up_to == 6

    def test_bad_bound(self, smoke):
        with pytest.raises(ValidationError, match="n_max"):
            min_witness_size(smoke, 0, 5, 4)


class TestRandomAgreement:
    def test_depth_matches_multiset_bfs(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(60):
            p = _gen.random_protocol(rng, certified_only=False)
            target = rng.randrange(p.n_states)
            threshold = rng.randint(1, 2)
            for n in (threshold, threshold + 1, threshold + 2):
                res = check_fixed(p, ReachQuery(target, threshold, n))
                depth = _oracle.multiset_bfs(p, n, target, threshold)
                assert res.reachable == (depth is not None)
                if res.reachable:
                    assert len(res.trace) - 1 == depth
                    replay(p, res.trace)
                checked += 1
        assert checked >= 180
