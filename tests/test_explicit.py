from __future__ import annotations

import math
import random

import pytest

from gspmc import semantics
from gspmc.explicit import (
    ReachQuery,
    StateBudgetExceeded,
    check_fixed,
    min_witness_size,
)
from gspmc.model import ValidationError, validate

import _gen
import _oracle
from conftest import (config, internal_ring, load_fixture, perfbench_constant,
                      perfbench_protocols)

FIXTURES = ("smoke_detector.json", "smoke_detector_2sender.json",
            "smoke_detector_mutant.json", "cutoff_witness.json")


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
        nxt = _oracle.as_counter(expected)
        assert nxt in _oracle.multiset_fire(states, protocol.action(name))
        states = nxt
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


class TestBudgets:
    @pytest.mark.parametrize("budget", [0, -4])
    def test_check_fixed_refuses_non_positive(self, smoke, budget):
        with pytest.raises(ValidationError, match="state budget must be at least 1"):
            check_fixed(smoke, ReachQuery(smoke.init, 1, 5), state_budget=budget)

    def test_sweep_refuses_non_positive(self, smoke):
        with pytest.raises(ValidationError, match="state budget must be at least 1"):
            min_witness_size(smoke, smoke.init, 1, 3, state_budget=0)


class TestBudgetCountdown:
    """The search raises on discovering configuration ``state_budget +
    1``, after testing it against the target."""

    @pytest.mark.parametrize("budget", [1, 2, 10, 20])
    def test_smoke_raises_one_past_the_budget(self, smoke, budget):
        # unreachable at n = 9: the full search discovers 21
        query = ReachQuery(smoke.state_index("Report"), 9, 9)
        assert check_fixed(smoke, query).explored == 21
        with pytest.raises(StateBudgetExceeded) as exc:
            check_fixed(smoke, query, state_budget=budget)
        assert exc.value.explored == budget + 1
        assert str(exc.value) == (
            f"state budget exhausted after {budget + 1} states (n=9)")

    @pytest.mark.parametrize("budget", [1, 7, 100, 1715])
    def test_ring_raises_one_past_the_budget(self, budget):
        p = internal_ring(8)
        query = ReachQuery(p.state_index("dead"), 1, 6)
        with pytest.raises(StateBudgetExceeded) as exc:
            check_fixed(p, query, state_budget=budget)
        assert exc.value.explored == budget + 1
        # a budget of every configuration the search discovers holds
        assert check_fixed(p, query, state_budget=1716).explored == 1716

    @pytest.mark.parametrize("target, threshold, n", [
        ("r5", 2, 3), ("r7", 3, 4), ("r3", 2, 6)])
    def test_target_tested_before_the_budget(self, target, threshold, n):
        p = internal_ring(8)
        query = ReachQuery(p.state_index(target), threshold, n)
        full = check_fixed(p, query)
        assert full.reachable
        # the configuration that meets the target is the (budget+1)-th
        # discovered: the search returns it rather than raising
        res = check_fixed(p, query, state_budget=full.explored - 1)
        assert res == full
        with pytest.raises(StateBudgetExceeded) as exc:
            check_fixed(p, query, state_budget=full.explored - 2)
        assert exc.value.explored == full.explored - 1


def assert_same_search(p, target, threshold, n):
    """check_fixed and the reference BFS agree on the verdict, the
    explored count and the trace, element for element."""
    res = check_fixed(p, ReachQuery(target, threshold, n))
    trace, explored = _oracle.reference_bfs(p, n, target, threshold)
    assert res.reachable == (trace is not None), (p.state_names, target, n)
    assert res.explored == explored, (p.state_names, target, n)
    assert res.trace == trace, (p.state_names, target, n)
    return res


class TestReferenceIdentity:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        p = load_fixture(name)
        reached = 0
        for target in range(p.n_states):
            for threshold in (1, 2):
                for n in range(threshold, threshold + 4):
                    reached += assert_same_search(p, target, threshold, n).reachable
        assert reached

    def test_random_protocols(self):
        rng = random.Random(4242)
        outcomes = set()
        for _ in range(60):
            p = _gen.random_protocol(rng, certified_only=False)
            target = rng.randrange(p.n_states)
            threshold = rng.randint(1, 2)
            for n in (threshold, threshold + 1, threshold + 3):
                res = assert_same_search(p, target, threshold, n)
                outcomes.add((res.reachable, len(res.trace or ()) > 2))
        assert outcomes == {(False, False), (True, False), (True, True)}


def forward_bfs_searches():
    """(protocol, target, threshold, n) of the ``mc`` searches of the
    benchmark's ``forward-bfs`` shapes that reach their target: the
    8-state internal ring at n = 10-12, and each ring-family shape at,
    and above, its minimal size."""
    protocols = perfbench_protocols()
    ring = internal_ring(8)
    for n in (10, 11, 12):
        for pos in range(1, 8):
            for count in range(1, 8 // pos + 1):
                yield ring, ring.state_index(f"r{pos}"), count, n
    for k, m, clocks in perfbench_constant("RING_KEYS"):
        p = validate(protocols.ring_family(k, m, clocks))
        min_n = protocols.ring_min_n(k, m, clocks, clocks)
        for n in (min_n, min_n + 2):
            yield p, p.state_index("s_E"), clocks, n


def assert_steps_named_by_firing_action(p, trace, n):
    """Each step of ``trace`` is named ``_oracle.firing_action`` of its
    two codes, and ``semantics.step_names`` names them all so."""
    packed = semantics.packed(p, n)
    path = [semantics.pack(packed, q) for _, q in trace]
    names = [_oracle.firing_action(packed, code, succ)
             for code, succ in zip(path, path[1:])]
    assert [name for name, _ in trace[1:]] == names
    assert semantics.step_names(packed, path) == names


class TestStepNames:
    """Trace steps are named by one scan of the tables, as
    ``_oracle.firing_action`` names them, on steps that ``head`` and
    ``rest`` entries make."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_traces(self, name):
        p = load_fixture(name)
        steps = 0
        for target in range(p.n_states):
            for threshold in (1, 2):
                for n in range(threshold, threshold + 4):
                    res = check_fixed(p, ReachQuery(target, threshold, n))
                    if res.reachable:
                        assert_steps_named_by_firing_action(p, res.trace, n)
                        steps += len(res.trace) - 1
        assert steps

    def test_forward_bfs_traces(self):
        heads = rests = 0
        for p, target, threshold, n in forward_bfs_searches():
            res = check_fixed(p, ReachQuery(target, threshold, n))
            assert res.reachable
            assert_steps_named_by_firing_action(p, res.trace, n)
            packed = semantics.packed(p, n)
            head = {t[5] for t in packed.actions[:len(packed.kernel[0])]}
            for name, _ in res.trace[1:]:
                heads += name in head
                rests += name not in head
        # steps of both kinds are named
        assert (heads, rests) == (285, 216)

    def test_first_enabled_head_entry_wins(self):
        # t0 and t1 both move one process from A to B, so they share one
        # delta; t0 is disabled once C is occupied, and t1 then names it
        p = validate({
            "states": ["A", "B", "C"], "init": "A",
            "guards": {"AB": ["A", "B"]},
            "actions": [
                {"name": "t0", "kind": "sender", "sends": [["A", "B"]], "guard": "AB"},
                {"name": "t1", "kind": "sender", "sends": [["A", "B"]]},
                {"name": "t2", "kind": "sender", "sends": [["B", "C"]]}]})
        packed = semantics.packed(p, 3)
        assert len(packed.kernel[0]) == 3
        path = [semantics.pack(packed, q) for q in
                ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 1))]
        assert semantics.step_names(packed, path) == ["t0", "t2", "t1"]
        assert [_oracle.firing_action(packed, code, succ) for code, succ
                in zip(path, path[1:])] == ["t0", "t2", "t1"]


class TestInternalRing:
    def test_dead_explores_every_distribution(self):
        p = internal_ring(8)
        res = check_fixed(p, ReachQuery(p.state_index("dead"), 1, 6))
        assert not res.reachable
        assert res.explored == 1716  # C(13, 7)

    def test_far_position_trace(self):
        p = internal_ring(8)
        res = assert_same_search(p, p.state_index("r5"), 2, 3)
        assert len(res.trace) - 1 == 10


class TestWidthBoundaries:
    """Sizes on either side of a change of digit width."""

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 15, 16])
    def test_dead_explores_every_distribution(self, n):
        p = internal_ring(8)
        res = check_fixed(p, ReachQuery(p.state_index("dead"), 1, n))
        assert not res.reachable
        assert res.explored == math.comb(n + 7, 7)

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_full_last_position(self, n):
        p = internal_ring(8)
        assert_same_search(p, p.state_index("r7"), n, n)

    def test_sweep_across_widths(self):
        # n = 3..9 spans the widths 2, 3 and 4
        smoke = load_fixture("smoke_detector.json")
        report = smoke.state_index("Report")
        res = min_witness_size(smoke, report, 3, 9)
        assert not res.found and res.searched_up_to == 9
        assert all(set(a.packed_tables) == {2, 3, 4} for a in smoke.actions)

    def test_ring_fires_from_one_delta_per_action(self):
        # a single-source sender has one outcome: its width-4 table holds
        # that delta and the sender count it needs, with no per-code memo,
        # and the ring's eight actions fire as one run
        p = internal_ring(8)
        res = check_fixed(p, ReachQuery(p.state_index("dead"), 1, 10))
        assert res.explored == math.comb(17, 7)
        for a in p.actions:
            (s,), to = a.sources, a.sends[0].dst
            assert set(a.packed_tables) == {4}
            _, field, need, moved, deltas, _ = a.packed_tables[4]
            assert field == 15 << 4 * s and need == 1 << 4 * s
            assert moved == ()
            assert type(deltas) is tuple
            assert deltas == ((1 << 4 * to) - (1 << 4 * s),)
        head, rest = semantics.packed(p, 10).kernel
        assert len(head) == len(p.actions) and rest == ()
