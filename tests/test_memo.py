"""The engines' memos of compiled tables, keyed by the protocol's value.

``semantics.packed`` keeps one ``Packed`` per (protocol, digit width)
and ``wsts`` one support bound and set of predecessor tables per
protocol. A query must answer the same whether its memo is cleared,
warm, or warm from an equal protocol validated separately; protocols
that differ anywhere must get separate entries; and neither memo may
hold more than ``model.MEMO_SIZE`` entries.
"""

from __future__ import annotations

import copy
import random

import pytest

from gspmc import cutoff, explicit, modelfile, semantics, wsts
from gspmc.model import MEMO_SIZE, validate

import _gen
from conftest import FIXTURES, perfbench_constant, perfbench_protocols

MEMOS = (semantics._compiled, wsts._compiled)
FIXTURE_NAMES = ("smoke_detector.json", "smoke_detector_2sender.json",
                 "smoke_detector_mutant.json", "cutoff_witness.json")


def clear():
    for memo in MEMOS:
        memo.cache_clear()


def sizes():
    return [memo.cache_info().currsize for memo in MEMOS]


def fixture_raw(name):
    return modelfile.parse_model(FIXTURES / name).raw


def answers(p, target):
    """``decide`` at every target (or its refusal of an uncertified
    protocol), then ``check_fixed``, ``min_witness_size`` and
    ``certified_cutoff_check`` at ``target``."""
    out = []
    for t in range(p.n_states):
        try:
            out.append(wsts.decide(p, t, 2))
        except wsts.NotCertifiedWellBehaved as e:
            out.append(type(e))
    out.append(explicit.check_fixed(p, explicit.ReachQuery(target, 1, 3)))
    out.append(explicit.min_witness_size(p, target, 2, 4))
    out.append(cutoff.certified_cutoff_check(p, target, 2))
    return out


def check_three_ways(raw, target_name):
    """The answers with cleared memos, then warm ones, then for an equal
    protocol validated again, which finds the first one's entries and
    adds none."""
    clear()
    p = validate(raw)
    target = p.state_index(target_name)
    cold = answers(p, target)
    warm = sizes()
    assert answers(p, target) == cold
    again = validate(copy.deepcopy(raw))
    assert again == p and again is not p
    assert answers(again, target) == cold
    assert sizes() == warm
    assert semantics.packed(again, 3) is semantics.packed(p, 3)
    if warm[1]:  # some decide passed certification
        assert wsts._compiled(again).protocol is p


class TestSameAnswers:
    def test_fixtures(self):
        for name in FIXTURE_NAMES:
            raw = fixture_raw(name)
            check_three_ways(raw, raw["states"][-1])

    def test_ring_family(self):
        ring_family = perfbench_protocols().ring_family
        for shape in ((2, 2, 1), (2, 3, 2), (3, 2, 2), (4, 2, 1)):
            check_three_ways(ring_family(*shape), "s_E")

    def test_random_raw(self):
        rng = random.Random(3131)
        for _ in range(80):
            raw = _gen.random_raw(rng, max_arity=3)
            check_three_ways(raw, raw["states"][-1])

    def test_random_model(self):
        random_model = perfbench_protocols().random_model
        for i in range(80):
            raw = random_model(random.Random(f"memo-{i}"))
            check_three_ways(raw, raw["states"][-1])


def rename(value, old, new):
    """``value`` with every string ``old``, object keys too, made ``new``."""
    if isinstance(value, dict):
        return {rename(k, old, new): rename(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [rename(v, old, new) for v in value]
    return new if value == old else value


def receive_changed(raw):
    out = copy.deepcopy(raw)
    (choose,) = [a for a in out["actions"] if a["name"] == "Choose"]
    assert choose["receives"] == [["Pick", "Idle"]]
    choose["receives"] = [["Pick", "Env"]]
    return out


class TestSeparateEntries:
    @pytest.mark.parametrize("change", [
        lambda raw: rename(raw, "Idle", "Rest"),  # a state name
        lambda raw: rename(raw, "G2", "G9"),  # a guard name
        lambda raw: rename(raw, "Smoke", "Fire"),  # an action name
        receive_changed,  # one receive entry
    ], ids=["state", "guard", "action", "receive"])
    def test_one_difference(self, change):
        raw = fixture_raw("smoke_detector.json")
        base, other = validate(raw), validate(change(raw))
        assert other != base
        clear()
        assert semantics.packed(other, 4) is not semantics.packed(base, 4)
        assert wsts._compiled(other) is not wsts._compiled(base)
        assert wsts.support_bound(other) == wsts._compiled(other).supports
        assert sizes() == [2, 2]


class TestBound:
    def test_holds_every_workload_protocol(self):
        # guarded-mix has the most distinct protocols: its corpus and the
        # four fixtures
        for memo in MEMOS:
            assert memo.cache_info().maxsize == MEMO_SIZE
        rings = {q[:3] for q in perfbench_constant("BACKWARD_RING")}
        corpus = perfbench_constant("GUARDED_CORPUS_SIZE") + len(FIXTURE_NAMES)
        assert len(rings) < corpus <= MEMO_SIZE

    def test_never_grows_past_it(self):
        def draw(i):
            return validate({"states": ["A", f"B{i}"], "init": "A", "actions": [
                {"name": "t", "kind": "sender", "sends": [["A", f"B{i}"]]}]})

        clear()
        for i in range(MEMO_SIZE + 20):
            p = draw(i)
            semantics.packed(p, 3)
            assert wsts.decide(p, 1, 1).min_n == 1
            assert max(sizes()) <= MEMO_SIZE
        assert sizes() == [MEMO_SIZE, MEMO_SIZE]
        # the oldest entries went first: the first draw is built again,
        # the last one is found
        misses = [memo.cache_info().misses for memo in MEMOS]
        semantics.packed(draw(0), 3)
        wsts.support_bound(draw(0))
        semantics.packed(draw(MEMO_SIZE + 19), 3)
        wsts.support_bound(draw(MEMO_SIZE + 19))
        assert [memo.cache_info().misses for memo in MEMOS] == [m + 1 for m in misses]
        assert sizes() == [MEMO_SIZE, MEMO_SIZE]
