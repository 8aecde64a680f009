from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspmc import semantics, wsts
from gspmc.explicit import ReachQuery, check_fixed
from gspmc.model import ValidationError
from gspmc.wsts import (
    COMPONENT_WISE,
    NotCertifiedWellBehaved,
    Ucs,
    Wqo,
    decide,
    guard_refined,
    minimize,
    target_basis,
    wqo_for,
)

import _gen
import _oracle
from conftest import config, load_fixture

vectors = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)


def random_wqo(rng, n):
    if rng.random() < 0.4:
        return COMPONENT_WISE
    guards = tuple(
        frozenset(rng.sample(range(n), rng.randint(1, n)))
        for _ in range(rng.randint(1, 3)))
    return Wqo(guards)


class TestWqo:
    def test_component_wise(self):
        assert COMPONENT_WISE.leq((0, 1, 2), (0, 1, 2))
        assert COMPONENT_WISE.leq((0, 1, 2), (1, 1, 3))
        assert not COMPONENT_WISE.leq((0, 2, 2), (1, 1, 3))

    def test_guard_refinement_splits_comparable_pair(self, smoke):
        wqo = guard_refined(smoke)
        idle = config(smoke, Idle=1)
        env_idle = config(smoke, Env=1, Idle=1)
        assert COMPONENT_WISE.leq(idle, env_idle)
        # {Idle} satisfies G2 and G3; {Env, Idle} satisfies neither
        assert wqo.profile(idle) == (False, True, True)
        assert wqo.profile(env_idle) == (False, False, False)
        assert not wqo.leq(idle, env_idle)
        assert not wqo.leq(env_idle, idle)

    def test_equal_profiles_compare_componentwise(self, smoke):
        wqo = guard_refined(smoke)
        assert wqo.leq(config(smoke, Idle=1), config(smoke, Idle=2, Pick=0))

    def test_wqo_for_selects_order(self, smoke):
        assert wqo_for(smoke).guards is not None
        rng = random.Random(0)
        p = _gen.unguarded_protocol(rng)
        assert wqo_for(p) is COMPONENT_WISE

    @given(vectors)
    def test_reflexive(self, q):
        assert COMPONENT_WISE.leq(q, q)
        assert Wqo((frozenset({0, 1}), frozenset({2}))).leq(q, q)

    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        wqo = Wqo((frozenset({0, 1}), frozenset({1, 2})))
        if wqo.leq(a, b) and wqo.leq(b, c):
            assert wqo.leq(a, c)

    @given(vectors, vectors)
    def test_antisymmetric(self, a, b):
        wqo = Wqo((frozenset({0, 1}),))
        if wqo.leq(a, b) and wqo.leq(b, a):
            assert a == b


class TestMinimize:
    @given(st.lists(vectors, max_size=12))
    @settings(max_examples=200)
    def test_idempotent_antichain_covering(self, vs):
        wqo = Wqo((frozenset({0, 2}), frozenset({1})))
        basis = minimize(wqo, vs)
        assert set(basis) <= set(vs)
        assert basis == tuple(sorted(basis))
        assert minimize(wqo, basis) == basis
        for u, v in itertools.permutations(basis, 2):
            assert not wqo.leq(u, v)
        for v in vs:  # upward closure is preserved
            assert any(wqo.leq(b, v) for b in basis)

    def test_component_wise_example(self):
        got = minimize(COMPONENT_WISE, [(1, 1), (0, 2), (2, 2), (1, 1)])
        assert got == ((0, 2), (1, 1))

    @given(st.one_of(st.none(), st.lists(
               st.frozensets(st.integers(0, 2), min_size=1),
               min_size=1, max_size=3).map(tuple)),
           st.lists(vectors, max_size=16))
    @settings(max_examples=300)
    def test_equals_pairwise_minimization(self, guards, vs):
        wqo = Wqo(guards)
        assert minimize(wqo, vs) == _oracle.pairwise_minimize(wqo, vs)


class TestTargetBasis:
    def test_component_wise_single_element(self, smoke):
        ucs = target_basis(smoke, COMPONENT_WISE, 4, 3)
        assert ucs.basis == ((0, 0, 0, 0, 3),)

    def test_guard_refined_smoke(self, smoke):
        ucs = target_basis(smoke, guard_refined(smoke), 4, 3)
        assert ucs.basis == (
            (0, 0, 0, 0, 3),
            (0, 0, 0, 1, 3),
            (0, 1, 0, 0, 3),
            (1, 0, 0, 0, 3),
        )

    @pytest.mark.parametrize("order", ["cw", "gr"])
    def test_grid_semantics(self, smoke, order):
        wqo = COMPONENT_WISE if order == "cw" else guard_refined(smoke)
        ucs = target_basis(smoke, wqo, 4, 2)
        for q in itertools.product(range(4), repeat=5):
            assert any(wqo.leq(b, q) for b in ucs.basis) == (q[4] >= 2)

    def test_bad_threshold(self, smoke):
        with pytest.raises(ValidationError, match="at least 1"):
            target_basis(smoke, COMPONENT_WISE, 4, 0)


def grid_pred_basis(protocol, wqo, b):
    """Oracle: minimize the forward-simulated grid predecessors.

    Exact because minimal predecessors of a basis element with entries
    <= 4 stay within the grid: receive maps are functions, so receiver
    slots of distinct destinations are disjoint and each entry is
    bounded by the action arity plus one destination's deficit.
    """
    assert max(b) <= 4
    return _oracle.pairwise_minimize(
        wqo, _oracle.grid_predecessors(protocol, wqo, b, limit=6))


class TestPredBasis:
    def test_smoke_guard_refined(self, smoke):
        wqo = guard_refined(smoke)
        for b in target_basis(smoke, wqo, 4, 2).basis:
            got = _oracle.pred_basis(smoke, wqo, Ucs(wqo, (b,))).basis
            assert got == grid_pred_basis(smoke, wqo, b)

    def test_smoke_component_wise(self, smoke):
        for m in (1, 2, 3):
            b = (0, 0, 0, 0, m)
            got = _oracle.pred_basis(smoke, COMPONENT_WISE,
                             Ucs(COMPONENT_WISE, (b,))).basis
            assert got == grid_pred_basis(smoke, COMPONENT_WISE, b)

    def test_random_protocols(self):
        rng = random.Random(31337)
        for _ in range(30):
            p = _gen.random_protocol(rng, certified_only=False, max_states=4)
            wqo = random_wqo(rng, p.n_states)
            b = tuple(rng.randint(0, 2) for _ in range(p.n_states))
            if not any(b):
                b = (1,) + b[1:]
            got = _oracle.pred_basis(p, wqo, Ucs(wqo, (b,))).basis
            assert got == grid_pred_basis(p, wqo, b), (p.state_names, b)

    def test_contains_input_closure(self, smoke):
        wqo = guard_refined(smoke)
        ucs = target_basis(smoke, wqo, 4, 2)
        out = _oracle.pred_basis(smoke, wqo, ucs)
        for b in ucs.basis:
            assert any(wqo.leq(c, b) for c in out.basis)


def replay_witness(protocol, n, witness, target, threshold):
    q = tuple(n if s == protocol.init else 0
              for s in range(protocol.n_states))
    for name in witness:
        q = semantics.fire(protocol, q, protocol.action(name)).successor
    assert q[target] >= threshold, (witness, q)


class TestDecide:
    def test_smoke_three_unreachable(self, smoke):
        v = decide(smoke, smoke.state_index("Report"), 3)
        assert not v.reachable
        assert v.min_n is None and v.witness is None
        assert v.iterations == 1  # the target set is already inductive
        assert v.basis.basis == target_basis(
            smoke, guard_refined(smoke), 4, 3).basis

    def test_smoke_two_reachable(self, smoke):
        v = decide(smoke, smoke.state_index("Report"), 2)
        assert v.reachable
        assert v.min_n == 2
        assert v.witness == ("i", "i", "Smoke", "Choose")
        replay_witness(smoke, v.min_n, v.witness, smoke.state_index("Report"), 2)

    def test_two_sender_variant(self, smoke_2sender):
        p = smoke_2sender
        report = p.state_index("Report")
        assert not decide(p, report, 3).reachable
        v = decide(p, report, 2)
        assert v.reachable and v.min_n == 2
        replay_witness(p, v.min_n, v.witness, report, 2)

    def test_min_n_is_minimal(self, smoke):
        v = decide(smoke, smoke.state_index("Report"), 2)
        report = smoke.state_index("Report")
        assert check_fixed(smoke, ReachQuery(report, 2, v.min_n)).reachable
        # one process fewer cannot even hold two reporters
        assert v.min_n - 1 < 2

    def test_cutoff_witness_fixpoint(self, witness):
        target = witness.state_index("s_E")
        v = decide(witness, target, 1)
        assert (v.iterations, len(v.basis.basis), v.min_n) == (19, 58, 16)
        replay_witness(witness, v.min_n, v.witness, target, 1)

    # both seeds draw queries in which two frontier elements share a
    # predecessor, so the witness depends on the order of the frontier
    @pytest.mark.parametrize("order, seed", [("cw", 2), ("gr", 8)])
    def test_matches_from_scratch_fixpoint(self, order, seed):
        rng = random.Random(seed)
        for _ in range(40):
            if order == "cw":
                p = _gen.unguarded_protocol(rng)
            else:
                p = _gen.random_protocol(rng, require_guarded=True)
            assert (wqo_for(p).guards is None) == (order == "cw")
            target = rng.randrange(p.n_states)
            threshold = rng.randint(1, 3)
            v = decide(p, target, threshold)
            got = (v.basis.basis, v.iterations, v.min_n, v.witness)
            assert got == _oracle.from_scratch_fixpoint(p, target, threshold)

    def test_uncertified_guarded_protocol_refused(self, smoke_mutant):
        with pytest.raises(NotCertifiedWellBehaved):
            decide(smoke_mutant, smoke_mutant.state_index("Report"), 2)

    def test_unguarded_protocol_needs_no_certificate(self):
        rng = random.Random(5)
        p = _gen.unguarded_protocol(rng)
        v = decide(p, p.n_states - 1, 1)  # must not raise
        assert v.basis.wqo is COMPONENT_WISE

    def test_agrees_with_forward_search(self):
        rng = random.Random(424242)
        agreements = 0
        for _ in range(30):
            p = _gen.random_protocol(rng, certified_only=True)
            target = rng.randrange(p.n_states)
            threshold = rng.randint(1, 2)
            v = decide(p, target, threshold)
            if v.reachable:
                assert check_fixed(
                    p, ReachQuery(target, threshold, v.min_n)).reachable
                if v.min_n > threshold:
                    assert not check_fixed(
                        p, ReachQuery(target, threshold, v.min_n - 1)).reachable
            else:
                for n in range(threshold, 7):
                    assert not check_fixed(
                        p, ReachQuery(target, threshold, n)).reachable
            agreements += 1
        assert agreements == 30
