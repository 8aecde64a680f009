from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspmc import semantics, wellbehaved, wsts
from gspmc.explicit import ReachQuery, check_fixed, min_witness_size
from gspmc.model import MAXIMAL, ValidationError, validate
from gspmc.wsts import (
    COMPONENT_WISE,
    NotCertifiedWellBehaved,
    Ucs,
    Wqo,
    decide,
    minimize,
    support_bound,
    target_basis,
    wqo_for,
)

import _gen
import _oracle
from conftest import (
    chain,
    chain_raw,
    config,
    internal_ring,
    load_fixture,
    perfbench_protocols,
    perfbench_ring_queries,
)
from test_semantics import FIXTURES

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
        wqo = wqo_for(smoke)
        idle = config(smoke, Idle=1)
        env_idle = config(smoke, Env=1, Idle=1)
        assert COMPONENT_WISE.leq(idle, env_idle)
        # {Idle} satisfies G2 and G3; {Env, Idle} satisfies neither
        assert wqo.profile(idle) == (False, True, True)
        assert wqo.profile(env_idle) == (False, False, False)
        assert not wqo.leq(idle, env_idle)
        assert not wqo.leq(env_idle, idle)

    def test_equal_profiles_compare_componentwise(self, smoke):
        wqo = wqo_for(smoke)
        assert wqo.leq(config(smoke, Idle=1), config(smoke, Idle=2, Pick=0))

    def test_wqo_for_selects_order(self, smoke):
        assert wqo_for(smoke).guards
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

    @given(st.one_of(st.just(()), st.lists(
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
        ucs = target_basis(smoke, wqo_for(smoke), 4, 3)
        assert ucs.basis == (
            (0, 0, 0, 0, 3),
            (0, 0, 0, 1, 3),
            (0, 1, 0, 0, 3),
            (1, 0, 0, 0, 3),
        )

    @pytest.mark.parametrize("order", ["cw", "gr"])
    def test_grid_semantics(self, smoke, order):
        wqo = COMPONENT_WISE if order == "cw" else wqo_for(smoke)
        ucs = target_basis(smoke, wqo, 4, 2)
        for q in itertools.product(range(4), repeat=5):
            assert any(wqo.leq(b, q) for b in ucs.basis) == (q[4] >= 2)

    def test_bad_threshold(self, smoke):
        with pytest.raises(ValidationError, match="at least 1"):
            target_basis(smoke, COMPONENT_WISE, 4, 0)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_full_enumeration(self, name):
        p = load_fixture(name)
        for wqo in {COMPONENT_WISE, wqo_for(p)}:
            for target in range(p.n_states):
                for threshold in (1, 2, 3):
                    assert target_basis(p, wqo, target, threshold).basis == (
                        _oracle.full_target_basis(p, wqo, target, threshold))

    def test_random_guards_match_full_enumeration(self):
        rng = random.Random(1212)
        for _ in range(150):
            p = _gen.random_protocol(rng, certified_only=False, max_states=7)
            n = p.n_states
            wqo = Wqo(tuple(frozenset(rng.sample(range(n), rng.randint(1, n)))
                            for _ in range(rng.randint(1, 3))))
            target = rng.randrange(n)
            threshold = rng.randint(1, 3)
            assert target_basis(p, wqo, target, threshold).basis == (
                _oracle.full_target_basis(p, wqo, target, threshold)), (wqo, target)


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
        wqo = wqo_for(smoke)
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
        wqo = wqo_for(smoke)
        ucs = target_basis(smoke, wqo, 4, 2)
        out = _oracle.pred_basis(smoke, wqo, ucs)
        for b in ucs.basis:
            assert any(wqo.leq(c, b) for c in out.basis)


def backward_elements(protocol, wqo):
    """The elements of every target basis with count 2 and of their
    first backward step."""
    elements = set()
    for target in range(protocol.n_states):
        start = target_basis(protocol, wqo, target, 2)
        elements.update(start.basis, _oracle.pred_basis(protocol, wqo, start).basis)
    return elements


def check_preds_by_construction(protocol, wqo):
    """Every predecessor ``_action_preds`` builds for an element b of
    :func:`backward_elements` fires, through its action, to a successor
    above b. Returns the number of predecessors checked."""
    checked = 0
    for b in backward_elements(protocol, wqo):
        for action in protocol.actions:
            table = _oracle.unfiltered_table(action)
            for q in wsts._action_preds(wqo, action, b, _oracle.nonzero(b), table):
                assert any(wqo.leq(b, succ)
                           for succ in semantics.fire(q, action)), (
                    protocol.state_names, action.name, b, q)
                checked += 1
    return checked


def check_preds_match_exhaustive(protocol, wqo, sample=None):
    """The minimal predecessors ``_action_preds`` gives for each element
    of :func:`backward_elements` (a seeded ``sample`` of them, if given)
    and each action are those of the enumeration over every surplus
    support."""
    elements = sorted(backward_elements(protocol, wqo))
    if sample is not None:
        elements = random.Random(0).sample(elements, sample)
    for b in elements:
        for action in protocol.actions:
            got = minimize(wqo, wsts._action_preds(
                wqo, action, b, _oracle.nonzero(b),
                _oracle.unfiltered_table(action)))
            want = _oracle.LinearAntichain(
                wqo, _oracle.exhaustive_refined_preds(wqo, action, b)).basis()
            assert got == want, (protocol.state_names, action.name, b)


class TestPredsByConstruction:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        # both orders for the guarded fixtures; the unguarded
        # cutoff_witness only under its own, as the guard-refined order
        # ranges over every surplus support of its 11 states (seconds)
        p = load_fixture(name)
        for wqo in {COMPONENT_WISE, wqo_for(p)}:
            assert check_preds_by_construction(p, wqo)

    def test_random_protocols(self):
        # 150 draws check about 5,500 predecessors, those built above a
        # minimal one included, which the antichain discards
        rng = random.Random(60)
        checked = 0
        for _ in range(150):
            p = _gen.random_protocol(rng, certified_only=False, max_states=4)
            for wqo in (COMPONENT_WISE, wqo_for(p)):
                checked += check_preds_by_construction(p, wqo)
        assert checked > 4000


class TestPrunedPreds:
    """Keeping only the candidates whose successor has b's profile, with at
    most one guard-breaking receiver per guard, loses no minimal
    predecessor."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        # the enumeration over every surplus support of cutoff_witness's
        # 11 states takes about a third of a second per element
        p = load_fixture(name)
        sample = 4 if name == "cutoff_witness.json" else None
        for wqo in (COMPONENT_WISE, wqo_for(p)):
            check_preds_match_exhaustive(p, wqo, sample)

    # the last case draws protocols whose actions use up to four guards
    # (three or four in 7 of its 40)
    @pytest.mark.parametrize("seed, kw", [
        pytest.param(11, {}, id="11"), pytest.param(12, {}, id="12"),
        pytest.param(13, dict(max_guards=4, min_guards=3, guard_bias=1.0,
                              max_actions=6), id="13-max_guards4")])
    def test_random_protocols(self, seed, kw):
        rng = random.Random(seed)
        for _ in range(40):
            p = _gen.random_protocol(rng, certified_only=False, max_states=5, **kw)
            for wqo in (COMPONENT_WISE, wqo_for(p)):
                check_preds_match_exhaustive(p, wqo)

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_receiver_per_guard(self, k):
        # G_i holds S0 and every X_j but X_i, and no guard holds T, the
        # sender's destination. Off T, only a receiver on every X_i takes
        # a predecessor of T:1 outside every guard, so the minimal one
        # S0 + X_0 + ... + X_(k-1) needs |X| = k
        xs = [f"X{i}" for i in range(k)]
        raw = {"states": ["S0", "T", *xs], "init": "S0",
               "guards": {f"G{i}": ["S0", *(x for x in xs if x != xi)]
                          for i, xi in enumerate(xs)},
               "actions": [{"name": "a", "sends": [["S0", "T"]]}] + [
                   {"name": f"g{i}", "sends": [["S0", "S0"]], "guard": f"G{i}"}
                   for i in range(k)]}
        p = validate(raw)
        wqo, a, b = wqo_for(p), p.action("a"), (0, 1) + (0,) * k
        got = minimize(wqo, wsts._action_preds(
            wqo, a, b, _oracle.nonzero(b), _oracle.unfiltered_table(a)))
        assert (1, 0) + (1,) * k in got
        assert got == _oracle.LinearAntichain(
            wqo, _oracle.exhaustive_refined_preds(wqo, a, b)).basis()


class TestPlacements:
    def test_matches_compositions_oracle(self):
        # every split of each deficit over each non-empty set of up to
        # six slot states, each once, with its states' bitmask
        for slots in range(1, 1 << 6):
            states = [s for s in range(6) if slots >> s & 1]
            for deficit in range(6):
                got = wsts._placements(slots, deficit)
                for adds, bits in got:
                    assert bits == sum(1 << s for s, _ in adds), (slots, adds)
                splits = [tuple(adds) for adds, _ in got]
                assert len(set(splits)) == len(splits), (slots, deficit)
                assert set(splits) == {
                    tuple((s, c) for s, c in zip(states, counts) if c)
                    for counts in _oracle.compositions(deficit, len(states))}


class TestComponentwisePreds:
    """Under the component-wise order the one construction adds nothing
    to the placements of each deficit over its allowed preimages."""

    @staticmethod
    def check(protocol):
        for b in backward_elements(protocol, COMPONENT_WISE):
            for action in protocol.actions:
                got = wsts._action_preds(COMPONENT_WISE, action, b, _oracle.nonzero(b),
                                         _oracle.unfiltered_table(action))
                assert got.keys() == _oracle.componentwise_preds(action, b), (
                    protocol.state_names, action.name, b)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        self.check(load_fixture(name))

    @pytest.mark.parametrize("k, m, clocks",
                             [(2, 2, 2), (2, 3, 2), (3, 2, 3), (4, 4, 2)])
    def test_ring_family(self, k, m, clocks):
        self.check(validate(perfbench_protocols().ring_family(k, m, clocks)))

    def test_random_protocols(self):
        rng = random.Random(1200)
        for _ in range(100):
            self.check(_gen.unguarded_protocol(rng))


def check_bound_filtered(protocol, wqo):
    """For each element of :func:`backward_elements` and each action, the
    predecessors built from the bound-filtered table that pass the keep
    test are the unfiltered ones that pass it, and every carried support
    mask is the predecessor's support. Returns the numbers of kept and of
    unfiltered candidates the filter never built."""
    bound = support_bound(protocol)
    keep = wsts._inside(bound)
    elements = backward_elements(protocol, wqo)
    kept = skipped = 0
    for action in protocol.actions:
        table = wsts._pred_table(action, bound)
        full = _oracle.unfiltered_table(action)
        for b in elements:
            need = _oracle.nonzero(b)
            filtered = wsts._action_preds(wqo, action, b, need, table)
            unfiltered = wsts._action_preds(wqo, action, b, need, full)
            for preds in (filtered, unfiltered):
                for q, supp in preds.items():
                    assert supp == wsts._support(q), (action.name, b, q)
            assert filtered.keys() <= unfiltered.keys()
            got = {q for q, supp in filtered.items() if keep(supp)}
            want = {q for q in unfiltered if keep(wsts._support(q))}
            assert got == want, (protocol.state_names, action.name, b)
            kept += len(got)
            skipped += len(unfiltered) - len(filtered)
    return kept, skipped


class TestBoundFilteredPreds:
    """Building predecessors only from the participations and receiver
    states the support bound can keep loses no kept predecessor."""

    @staticmethod
    def check_all(protocols):
        """Kept and skipped totals over both orders of each protocol."""
        kept = skipped = 0
        for p in protocols:
            for wqo in {COMPONENT_WISE, wqo_for(p)}:
                k, s = check_bound_filtered(p, wqo)
                kept, skipped = kept + k, skipped + s
        return kept, skipped

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        # the smoke detectors' bound is one mask of every state, so only
        # cutoff_witness skips anything
        kept, skipped = self.check_all([load_fixture(name)])
        assert kept and bool(skipped) == (name == "cutoff_witness.json")

    @pytest.mark.parametrize("k, m, clocks",
                             [(2, 2, 2), (4, 4, 2), (4, 2, 3), (5, 2, 3)])
    def test_ring_family(self, k, m, clocks):
        kept, skipped = self.check_all(
            [validate(perfbench_protocols().ring_family(k, m, clocks))])
        assert skipped > kept > 0

    def test_random_protocols(self):
        rng = random.Random(1900)
        kept, skipped = self.check_all(
            _gen.random_protocol(rng, certified_only=False) for _ in range(100))
        assert kept > 1000 and skipped > 1000

    def test_benchmark_random_models(self):
        random_model = perfbench_protocols().random_model
        kept, skipped = self.check_all(
            validate(random_model(random.Random(f"bound-{i}")))
            for i in range(100))
        assert kept > 1000 and skipped > 1000


class TestAntichain:
    def test_matches_linear_antichain(self):
        rng = random.Random(404)
        for _ in range(200):
            n = rng.randint(1, 5)
            wqo = random_wqo(rng, n)
            stream = [tuple(rng.randint(0, 2) for _ in range(n))
                      for _ in range(rng.randint(0, 40))]
            stream += rng.choices(stream, k=len(stream) // 2)
            rng.shuffle(stream)
            bucketed, linear = wsts.Antichain(wqo), _oracle.LinearAntichain(wqo)
            for q in stream:
                before = linear.basis()
                added = bucketed.insert(q)
                linear.insert(q)
                after = linear.basis()
                assert bucketed.basis() == after, (wqo, stream)
                # added exactly when the basis gains q, and then held
                assert added == (q in after and q not in before), (wqo, stream)
                assert all(x in bucketed for x in after)
                assert all(x not in bucketed for x in before if x not in after)


def replay_witness(protocol, n, witness, target, threshold):
    """Fire the witness's actions from n processes in the initial state,
    following every outcome: some outcome path must reach the target."""
    configs = {tuple(n if s == protocol.init else 0
                     for s in range(protocol.n_states))}
    for name in witness:
        action = protocol.action(name)
        configs = {succ for q in configs
                   for succ in semantics.fire(q, action)}
    assert any(q[target] >= threshold for q in configs), (witness, configs)


class TestDecide:
    def test_smoke_three_unreachable(self, smoke):
        v = decide(smoke, smoke.state_index("Report"), 3)
        assert not v.reachable
        assert v.min_n is None and v.witness is None
        assert v.iterations == 1  # the target set is already inductive
        # the target-basis elements with Env, Ask or Pick beside Report
        # have supports no run occupies
        assert v.basis.basis == ((0, 0, 0, 0, 3),)
        assert _oracle.from_scratch_fixpoint(smoke, 4, 3) == (
            target_basis(smoke, wqo_for(smoke), 4, 3).basis, 1, None, None)

    def test_smoke_two_reachable(self, smoke):
        v = decide(smoke, smoke.state_index("Report"), 2)
        assert v.reachable
        assert v.min_n == 2
        assert v.witness == ("i", "i", "Smoke", "Choose")
        replay_witness(smoke, v.min_n, v.witness, smoke.state_index("Report"), 2)

    def test_two_sender_variant(self, smoke_2sender):
        p = smoke_2sender
        report = p.state_index("Report")
        v = decide(p, report, 3)
        assert not v.reachable
        assert (v.basis.basis, v.iterations) == (((0, 0, 0, 0, 3),), 1)
        assert _oracle.from_scratch_fixpoint(p, report, 3) == (
            target_basis(p, wqo_for(p), report, 3).basis, 1, None, None)
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
        assert (v.iterations, len(v.basis.basis), v.min_n) == (17, 17, 16)
        replay_witness(witness, v.min_n, v.witness, target, 1)
        basis, iterations, min_n, path = _oracle.from_scratch_fixpoint(
            witness, target, 1)
        assert (iterations, len(basis), min_n, path) == (
            19, 58, 16, v.witness)

    @pytest.mark.parametrize("n, iterations, size",
                             [(12, 21, 78), (16, 29, 136)], ids=["12", "16"])
    def test_chain(self, n, iterations, size):
        # the budget fails an engine that walks every surplus support of
        # the n//2 + 1 guarded states per frontier element and
        # participation (about 22 s at n = 12)
        p = chain(n)
        target = p.state_index(f"S{n - 1}")
        start = time.perf_counter()
        v = decide(p, target, 2)
        assert time.perf_counter() - start < 10
        assert (v.reachable, v.min_n, v.iterations, len(v.basis.basis)) == (
            True, 2, iterations, size)
        replay_witness(p, v.min_n, v.witness, target, 2)

    # both seeds draw queries in which two frontier elements share a
    # predecessor, so the witness depends on the order of the frontier
    @pytest.mark.parametrize("order, seed", [("cw", 2), ("gr", 3)])
    def test_matches_from_scratch_fixpoint(self, order, seed):
        rng = random.Random(seed)
        for _ in range(40):
            if order == "cw":
                p = _gen.unguarded_protocol(rng)
            else:
                p = _gen.random_protocol(rng, require_guarded=True)
            assert (not wqo_for(p).guards) == (order == "cw")
            target = rng.randrange(p.n_states)
            threshold = rng.randint(1, 3)
            v = decide(p, target, threshold)
            pruned = _oracle.from_scratch_fixpoint(
                p, target, threshold, wsts.support_bound(p))
            unpruned = _oracle.from_scratch_fixpoint(p, target, threshold)
            assert (v.basis.basis, v.iterations) == pruned[:2]
            assert (v.min_n, v.witness) == pruned[2:] == unpruned[2:]

    # a twelfth of the benchmark's backward-ring queries, three of them
    # unreachable
    @pytest.mark.parametrize(
        "k, m, clocks, count", perfbench_ring_queries()[1::9])
    def test_ring_family_matches_from_scratch_fixpoint(self, k, m, clocks, count):
        p = validate(perfbench_protocols().ring_family(k, m, clocks))
        target = p.state_index("s_E")
        v = decide(p, target, count)
        assert (v.basis.basis, v.iterations, v.min_n, v.witness) == (
            _oracle.from_scratch_fixpoint(p, target, count,
                                          supports=support_bound(p)))

    def test_skips_actions_that_miss_the_support(self, monkeypatch):
        # each element of the walk back along a 200-state chain is entered
        # by the one step into its state (and "pair" into S1), so the
        # rounds build predecessors through at most 2 actions per element,
        # not through all 200
        calls = []
        original = wsts._action_preds

        def counting(*args):
            calls.append(args[1].name)
            return original(*args)

        monkeypatch.setattr(wsts, "_action_preds", counting)
        p = validate(chain_raw(200))
        v = decide(p, p.state_index("S199"), 1)
        assert (v.reachable, v.min_n, len(v.witness)) == (True, 1, 199)
        assert 199 <= len(calls) <= 2 * 200

    def test_agrees_with_bfs_on_shared_source_slots(self):
        # the benchmark's guarded-mix draw 193, loaded from the benchmark's
        # own generator: its maximal action a1 sends three slots from S0
        p = validate(perfbench_protocols().random_model(
            random.Random("guarded-mix-193")))
        target = p.state_index("S3")
        v = decide(p, target, 1)
        assert v.min_n == min_witness_size(p, target, 1, 6).n == 1

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


def certified_or_unguarded(protocol):
    """Whether ``decide`` runs on the protocol rather than refusing it."""
    return protocol.is_unguarded or wellbehaved.certify(protocol).well_behaved


class TestUnoccupiedTarget:
    """A target that lies in no support-bound element is answered from the
    bound, with the verdict the full path gives: every target-basis
    element has the target in its support, so the bound drops them all
    and no round runs."""

    @staticmethod
    def check_all(protocols):
        """Checks every non-initial target and counts 1-3 of each certified
        or unguarded protocol; returns how many queries the bound answered."""
        answered = 0
        for p in filter(certified_or_unguarded, protocols):
            bound, wqo = support_bound(p), wqo_for(p)
            keep = wsts._inside(bound)
            for target in range(p.n_states):
                if target == p.init:
                    continue
                unoccupied = not any(e >> target & 1 for e in bound)
                for count in (1, 2, 3):
                    kept = [q for q in target_basis(p, wqo, target, count).basis
                            if keep(wsts._support(q))]
                    assert unoccupied == (not kept), (p, target, count)
                    if not unoccupied:
                        continue
                    v = decide(p, target, count)
                    assert v == (False, None, None, Ucs(wqo, ()), 0, bound)
                    assert _oracle.from_scratch_fixpoint(
                        p, target, count, supports=bound) == ((), 0, None, None)
                    answered += 1
        return answered

    def test_fixtures(self):
        # every fixture state lies in a bound element
        assert self.check_all(load_fixture(name) for name in FIXTURES) == 0

    def test_ring_family(self):
        assert self.check_all(
            validate(perfbench_protocols().ring_family(k, m, clocks))
            for k, m, clocks in dict.fromkeys(
                q[:3] for q in perfbench_ring_queries())) == 0

    def test_random_protocols(self):
        rng = random.Random(3400)
        protocols = [_gen.random_protocol(rng, certified_only=False,
                                          max_states=6) for _ in range(150)]
        protocols += [_gen.unguarded_protocol(rng, max_states=6)
                      for _ in range(150)]
        assert self.check_all(protocols) > 500

    def test_benchmark_random_models(self):
        # the guarded-mix corpus, where most certified draws have a state
        # no run occupies, and 300 more draws
        random_model = perfbench_protocols().random_model
        assert self.check_all(
            validate(random_model(random.Random(f"{prefix}-{i}")))
            for prefix in ("guarded-mix", "exit") for i in range(300)) > 1000

    def test_errors_come_first(self):
        # a bad count and a failed certification are reported as before,
        # for a target the bound would answer
        p = validate(perfbench_protocols().random_model(
            random.Random("guarded-mix-4")))
        target = p.state_index("S1")
        assert not any(e >> target & 1 for e in support_bound(p))
        assert not certified_or_unguarded(p)
        with pytest.raises(NotCertifiedWellBehaved):
            decide(p, target, 1)
        # no action enters C
        unguarded = validate({
            "states": ["A", "B", "C"], "init": "A",
            "actions": [{"name": "t", "kind": "sender", "sends": [["A", "B"]]}]})
        assert decide(unguarded, 2, 1).basis.basis == ()
        for q, t in ((p, target), (unguarded, 2)):
            with pytest.raises(ValidationError,
                               match="threshold must be at least 1"):
                decide(q, t, 0)


def reached_configs(protocol, n):
    """Every configuration the packed search reaches from n processes in
    the initial state, unpacked."""
    packed = semantics.packed(protocol, n)
    start = n << packed.width * protocol.init
    seen, todo = {start}, [start]
    while todo:
        for succ in semantics.successors(packed, todo.pop()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return [semantics.unpack(packed, code) for code in seen]


def mask(q):
    return sum(1 << s for s, c in enumerate(q) if c)


class TestSupportBound:
    def test_covers_every_reached_support(self):
        rng = random.Random(1400)
        checked = 0
        for i in range(300):
            if i % 2:
                p = _gen.random_protocol(rng, certified_only=False,
                                         max_arity=3, max_states=6)
            else:
                p = _gen.unguarded_protocol(rng, max_states=6)
            bound = support_bound(p)
            for a, b in itertools.permutations(bound, 2):
                assert a & ~b, (p, bound)  # maximal elements only
            for n in range(1, 6):
                for q in reached_configs(p, n):
                    assert any(not mask(q) & ~m for m in bound), (p, n, q, bound)
                    checked += 1
        assert checked > 4000

    def test_matches_participation_oracle(self):
        # the bound stepped once per action, on its dominating key, is
        # the one stepped through every participation's count vectors;
        # the same pass reads each action's entry mask off its sends and
        # moved states
        protocols = [load_fixture(name) for name in FIXTURES]
        protocols += [validate(perfbench_protocols().ring_family(k, m, clocks))
                      for k, m, clocks in dict.fromkeys(
                          q[:3] for q in perfbench_ring_queries())]
        rng = random.Random(1402)
        for _ in range(150):
            protocols.append(_gen.random_protocol(rng, certified_only=False))
            protocols.append(_gen.unguarded_protocol(rng))
        protocols += [_gen.random_protocol(rng, certified_only=False, max_arity=4)
                      for _ in range(300)]
        random_model = perfbench_protocols().random_model
        protocols += [validate(random_model(random.Random(f"x-{i}")))
                      for i in range(300)]
        for p in protocols:
            assert support_bound(p) == _oracle.support_bound(p), p
            assert wsts._bound_and_entries(p)[1] == [
                _oracle.entry_mask(a) for a in p.actions], p
        # a maximal source of cap 2 or more has keys that take part of its
        # slots, which the dominating key must cover
        assert sum(any(a.kind == MAXIMAL and max(a.caps) >= 2
                       for a in p.actions) for p in protocols) >= 100

    def test_long_chain_matches_oracle(self):
        # 200 internal steps, whose receive maps fix every state, and a
        # sender whose receive map moves every chain state but s0 into a
        # sink: the bound maps bit by bit only the states a receive map
        # moves, the oracle maps every state
        n = 200
        chain_states = [f"s{i}" for i in range(n)]
        p = validate({
            "states": [*chain_states, "sink"], "init": "s0",
            "sugar": [{"type": "internal", "name": f"t{i}",
                       "from": chain_states[i], "to": chain_states[i + 1]}
                      for i in range(n - 1)],
            "actions": [{"name": "reset", "kind": "sender",
                         "sends": [["s0", "sink"]],
                         "receives": [[s, "sink"] for s in chain_states[1:]]}]})
        assert support_bound(p) == _oracle.support_bound(p)

    def test_internal_ring_is_polynomial(self):
        # with 24 or more processes every non-empty subset of the ring is
        # a reachable support; building those 2**24 - 1 sets takes
        # minutes, the monotone bound is the one ring mask
        p = internal_ring(24)
        target = p.state_index("r23")
        start = time.perf_counter()
        assert support_bound(p) == ((1 << 24) - 1,)
        v = decide(p, target, 2)
        assert time.perf_counter() - start < 10
        assert (v.reachable, v.min_n) == (True, 2)
        replay_witness(p, v.min_n, v.witness, target, 2)


def top_counts(protocol, sizes):
    """Per system size, the largest count each state reaches."""
    return {n: [max(c) for c in zip(*reached_configs(protocol, n))]
            for n in sizes}


class TestMonotoneInN:
    """On a certified or unguarded protocol a count reachable with n
    processes is reachable with n + 1: ``decide``'s "reachable for every
    n >= min_n" rests on it."""

    def test_random_protocols(self):
        rng = random.Random(3401)
        protocols = [_gen.random_protocol(rng, max_states=6) for _ in range(150)]
        protocols += [_gen.unguarded_protocol(rng, max_states=6)
                      for _ in range(150)]
        random_model = perfbench_protocols().random_model
        protocols += filter(certified_or_unguarded, (
            validate(random_model(random.Random(f"guarded-mix-{i}")))
            for i in range(300)))
        reached = 0
        for p in protocols:
            top = top_counts(p, range(1, 8))
            for n in range(1, 7):
                for target, count in itertools.product(range(p.n_states), (1, 2)):
                    if top[n][target] >= count:
                        assert top[n + 1][target] >= count, (p, n, target, count)
                        reached += 1
        assert reached > 5000

    def test_uncertified_counterexample(self):
        # without the certificate monotonicity can fail: one process alone
        # reaches S7, and every larger system is stuck before it
        p = validate(perfbench_protocols().random_model(random.Random("x-321")))
        assert not certified_or_unguarded(p)
        assert [check_fixed(p, ReachQuery(7, 1, n)).reachable
                for n in range(1, 8)] == [True] + [False] * 6


def check_certificate(protocol, v):
    """An unreachable verdict's basis is inductive relative to its
    supports, checked by firing vectors forward with ``semantics.fire``:
    no vector on the initial state alone is above the basis, and a
    vector in the box up to the basis maximum plus one, with its support
    inside a bound element, that has a successor above the basis is
    above it too. Returns the number of vectors fired."""
    wqo, basis, n = v.basis.wqo, v.basis.basis, protocol.n_states
    keyed = [(mask(b), wqo.profile(b), b) for b in basis]
    memo = {}

    def covered(q):
        if q not in memo:
            m, profile = mask(q), wqo.profile(q)
            memo[q] = any(not bm & ~m and bp == profile
                          and all(x <= y for x, y in zip(b, q))
                          for bm, bp, b in keyed)
        return memo[q]

    cap = max(map(max, basis), default=0) + 1
    for k in range(1, cap + 1):
        assert not covered(tuple(k if s == protocol.init else 0
                                 for s in range(n)))
    box = set()
    for m in v.supports:
        states = [s for s in range(n) if m >> s & 1]
        for counts in itertools.product(range(cap + 1), repeat=len(states)):
            q = [0] * n
            for s, c in zip(states, counts):
                q[s] = c
            box.add(tuple(q))
    box.discard((0,) * n)
    for q in box:
        if covered(q):
            continue
        for action in protocol.actions:
            for succ in semantics.fire(q, action):
                assert not covered(succ), (protocol, action.name, q, succ)
    return len(box)


class TestCertificate:
    """The pruned basis is a relative-inductive certificate."""

    @staticmethod
    def check_all(protocol, targets, counts=(1, 2, 3)):
        fired = 0
        for target in targets:
            for count in counts:
                v = decide(protocol, target, count)
                if not v.reachable:
                    fired += check_certificate(protocol, v)
        return fired

    @pytest.mark.parametrize("name", [f for f in FIXTURES if "mutant" not in f])
    def test_fixtures(self, name):
        p = load_fixture(name)
        self.check_all(p, [t for t in range(p.n_states) if t != p.init])

    def test_random_protocols(self):
        rng = random.Random(1401)
        fired = 0
        for i in range(100):
            if i % 2:
                p = _gen.random_protocol(rng, require_guarded=True)
            else:
                p = _gen.unguarded_protocol(rng)
            target = rng.choice([t for t in range(p.n_states) if t != p.init])
            fired += self.check_all(p, [target])
        assert fired > 1000
