"""The memos keyed by the protocol's value.

``model.validate`` interns the protocol it builds (``model._interned``),
``semantics.packed`` keeps one ``Packed`` per (protocol, digit width),
``wsts`` one support bound and set of predecessor tables per protocol,
and ``wellbehaved.certify`` one report per protocol. A query must answer
the same whether the memos are cleared, warm, or warm from an equal
protocol; an equal document must validate to the first protocol object;
protocols that differ anywhere must get separate entries; and no memo
may hold more than ``model.MEMO_SIZE`` entries.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

import pytest

from gspmc import cli, cutoff, explicit, model, modelfile, semantics, wellbehaved, wsts
from gspmc.model import MEMO_SIZE, validate

import _gen
import _oracle
import test_golden
from conftest import FIXTURES, perfbench_constant, perfbench_protocols

MEMOS = (model._interned, semantics._compiled, wsts._compiled, wellbehaved.certify)
FIXTURE_NAMES = ("smoke_detector.json", "smoke_detector_2sender.json",
                 "smoke_detector_mutant.json", "cutoff_witness.json")


def clear():
    for memo in MEMOS:
        memo.cache_clear()


def sizes():
    return [memo.cache_info().currsize for memo in MEMOS]


def fixture_raw(name):
    return modelfile.parse_model(FIXTURES / name).raw


def guarded_mix_raws():
    """The 300 ``random_model`` documents of the ``guarded-mix`` workload."""
    random_model = perfbench_protocols().random_model
    seed = perfbench_constant("GUARDED_CORPUS_SEED")
    return [random_model(random.Random(f"{seed}-{i}"))
            for i in range(perfbench_constant("GUARDED_CORPUS_SIZE"))]


def answers(p, target):
    """The certification report, ``decide`` at every target (or its
    refusal of an uncertified protocol), then ``check_fixed``,
    ``min_witness_size`` and ``certified_cutoff_check`` at ``target``."""
    out = [wellbehaved.certify(p)]
    for t in range(p.n_states):
        try:
            out.append(wsts.decide(p, t, 2))
        except wsts.NotCertifiedWellBehaved as e:
            out.append(type(e))
    out.append(explicit.check_fixed(p, explicit.ReachQuery(target, 1, 3)))
    out.append(explicit.min_witness_size(p, target, 2, 4))
    out.append(cutoff.certified_cutoff_check(p, target, 2))
    return out


def distinct_twin(raw, p):
    """An equal protocol validated from a copy of ``raw`` once the intern
    memo has dropped ``p``, as when it evicts a protocol that the engine
    memos still hold: it shares no action object with ``p``."""
    model._interned.cache_clear()
    twin = validate(copy.deepcopy(raw))
    assert twin == p and twin is not p
    assert not any(a is b for a, b in zip(twin.actions, p.actions))
    return twin


def check_three_ways(raw, target_name):
    """The answers with cleared memos, then warm ones, then for an equal
    document validated again, which gives the first protocol object, and
    for a :func:`distinct_twin`, which finds the first one's entries by
    value; neither adds an entry."""
    clear()
    p = validate(raw)
    target = p.state_index(target_name)
    cold = answers(p, target)
    warm = sizes()
    assert answers(p, target) == cold
    assert validate(copy.deepcopy(raw)) is p
    twin = distinct_twin(raw, p)
    assert answers(twin, target) == cold
    assert sizes() == warm
    assert semantics.packed(twin, 3) is semantics.packed(p, 3)
    assert wellbehaved.certify(twin) is cold[0]
    if warm[2]:  # some decide passed certification
        assert wsts._compiled(twin).protocol is p


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


def guard_member_changed(raw):
    out = copy.deepcopy(raw)
    assert out["guards"]["G3"] == ["Report", "Idle"]
    out["guards"]["G3"] = ["Report", "Idle", "Ask"]
    return out


class TestSeparateEntries:
    @pytest.mark.parametrize("change", [
        lambda raw: rename(raw, "Idle", "Rest"),  # a state name
        lambda raw: rename(raw, "G2", "G9"),  # a guard name
        guard_member_changed,  # one guard member
        lambda raw: rename(raw, "Smoke", "Fire"),  # an action name
        receive_changed,  # one receive entry
    ], ids=["state", "guard", "guard-member", "action", "receive"])
    def test_one_difference(self, change):
        raw = fixture_raw("smoke_detector.json")
        clear()
        base, other = validate(raw), validate(change(raw))
        assert other != base
        assert semantics.packed(other, 4) is not semantics.packed(base, 4)
        assert wsts._compiled(other) is not wsts._compiled(base)
        assert wsts.support_bound(other) == wsts._compiled(other).supports
        assert wellbehaved.certify(other) is not wellbehaved.certify(base)
        assert sizes() == [2, 2, 2, 2]


class TestInterning:
    def test_equal_documents_give_the_first_protocol(self):
        for name in FIXTURE_NAMES:
            clear()
            p = validate(fixture_raw(name))
            assert validate(fixture_raw(name)) is p  # the file parsed again
            assert validate(copy.deepcopy(fixture_raw(name))) is p
            assert model._interned.cache_info()[:2] == (2, 1)  # hits, misses

    def test_sugar_and_core_forms_share_entries(self):
        """The core document of a validated protocol validates to that
        protocol itself, and so finds its certification report."""
        raws = [fixture_raw(name) for name in FIXTURE_NAMES] + guarded_mix_raws()
        for raw in raws:
            p = validate(raw)
            report = wellbehaved.certify(p)
            assert validate(modelfile.core_document(p)) is p
            assert wellbehaved.certify(validate(modelfile.core_document(p))) is report

    def test_actions_hash_and_compare_by_their_fields(self):
        p = validate(fixture_raw("smoke_detector_2sender.json"))
        for a in p.actions:
            twin = model.Action(a.name, a.kind, a.sends, a.receive_map, a.guard)
            assert twin == a and hash(twin) == hash(a) and twin is not a
            for i, field in enumerate(model.Action._fields):
                fields = [twin.name, twin.kind, twin.sends, twin.receive_map, twin.guard]
                fields[i] = {"name": "other", "kind": "other", "sends": (),
                             "receive_map": (), "guard": None}[field]
                assert model.Action(*fields) != a
            assert a != a._key()


class TestCertifyMemo:
    def test_same_report_cold_warm_and_for_an_equal_copy(self):
        rng = random.Random(3232)
        raws = [fixture_raw(name) for name in FIXTURE_NAMES]
        raws += [_gen.random_raw(rng, max_arity=3) for _ in range(40)]
        raws += guarded_mix_raws()[:60]
        for raw in raws:
            clear()
            p = validate(raw)
            cold = wellbehaved.certify(p)
            assert cold == _oracle.two_pass_certify(p)
            assert wellbehaved.certify(p) is cold
            assert wellbehaved.certify(validate(copy.deepcopy(raw))) is cold
            assert wellbehaved.certify(distinct_twin(raw, p)) is cold
            assert wellbehaved.certify.cache_info()[:2] == (3, 1)  # hits, misses
            wellbehaved.certify.cache_clear()
            assert wellbehaved.certify(p) == cold


def json_outcome(command, path, options):
    """Exit code, ``--json`` report without ``duration_s`` and ``model``,
    and stderr of one command run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run([command, str(path), *options, "--json"], out=out)
    report = out.getvalue() and json.loads(out.getvalue())
    if report:
        del report["duration_s"], report["model"]
    return {"exit": code, "stdout": report, "stderr": err.getvalue()}


def test_golden_reports_cold_warm_and_from_a_copied_file(tmp_path):
    """Every golden ``certify``, ``verify``, ``cutoff``, ``mc`` and
    ``sweep`` query, run from cleared memos, again warm, and on a
    byte-identical copy of its model file at another path, reports its
    golden JSON each time."""
    golden = json.loads(test_golden.GOLDEN.read_text(encoding="utf-8"))
    runs = [(f"{command} {name}", command, name, ())
            for name in test_golden.MODELS for command in ("certify", "verify", "cutoff")]
    runs += test_golden.sized_runs() + test_golden.shape_runs()
    copies = tmp_path / "copies"
    copies.mkdir()
    for key, command, name, options in runs:
        want = copy.deepcopy(golden[key]["json"])
        if want["stdout"]:
            del want["stdout"]["model"]
        path = test_golden.model_path(name, tmp_path)
        twin = copies / name
        twin.write_bytes(path.read_bytes())
        clear()
        for p in (path, path, twin):
            assert json_outcome(command, p, options) == want, (key, p)
    assert len(runs) == 39


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

        def use(p):
            semantics.packed(p, 3)
            wsts.support_bound(p)
            wellbehaved.certify(p)

        clear()
        for i in range(MEMO_SIZE + 20):
            p = draw(i)
            use(p)
            assert wsts.decide(p, 1, 1).min_n == 1
            assert max(sizes()) <= MEMO_SIZE
        assert sizes() == [MEMO_SIZE] * len(MEMOS)
        # the oldest entries went first: the first draw is built again,
        # the last one is found
        misses = [memo.cache_info().misses for memo in MEMOS]
        use(draw(0))
        use(draw(MEMO_SIZE + 19))
        assert [memo.cache_info().misses for memo in MEMOS] == [m + 1 for m in misses]
        assert sizes() == [MEMO_SIZE] * len(MEMOS)
