from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspmc import cli, modelfile
from gspmc.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_WITNESS, run

import test_cutoff
from conftest import FIXTURES, fixture_path

SMOKE = fixture_path("smoke_detector.json")
MUTANT = fixture_path("smoke_detector_mutant.json")
WITNESS = fixture_path("cutoff_witness.json")


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def invoke_json(*argv):
    code, text = invoke(*argv, "--json")
    return code, json.loads(text)


class TestValidate:
    def test_valid_model(self):
        code, text = invoke("validate", SMOKE)
        assert code == EXIT_CLEAN
        assert "model is valid" in text
        assert "Reset#2" in text

    def test_json_report_shape(self):
        code, report = invoke_json("validate", SMOKE)
        assert code == EXIT_CLEAN
        assert report["command"] == "validate"
        assert report["digest"] == {"states": 5, "actions": 5, "guards": 3}
        assert report["result"]["valid"] is True
        assert report["result"]["actions"] == [
            "Smoke", "Choose", "i", "Reset#1", "Reset#2"]
        assert isinstance(report["duration_s"], float)

    def test_missing_file(self, capsys):
        assert invoke("validate", "/nonexistent.json")[0] == EXIT_ERROR
        assert "error [modelfile]:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert invoke("validate", str(bad))[0] == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [modelfile]:" in err and "bad.json" in err

    def test_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert invoke("validate", str(bad))[0] == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error [modelfile]: {bad}: not UTF-8 text "
            "(invalid start byte at byte 0)\n")

    def test_invalid_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": ["A"], "init": "Z", "actions": []}',
                       encoding="utf-8")
        assert invoke("validate", str(bad))[0] == EXIT_ERROR
        assert "error [model]:" in capsys.readouterr().err


MALFORMED = {
    "states-not-a-list": ({"states": 5, "init": "I"},
                          "'states' must be a list, got an integer"),
    "action-without-name": ({"states": ["I", "T"], "init": "I", "actions": [
        {"kind": "sender", "sends": [["I", "T"]]}]},
        "actions[0]: missing 'name'"),
    "internal-without-from": ({"states": ["I", "T"], "init": "I", "sugar": [
        {"type": "internal", "name": "i", "to": "T"}]},
        "sugar 'internal': missing 'from'"),
    "list-as-state-name": ({"states": [["I"], "T"], "init": "T"},
                           "'states' entries must be a string, got a list"),
    "guard-as-string": ({"states": ["a", "b"], "init": "a",
                         "guards": {"G": "ab"}},
                        "guard 'G' must be a list, got a string"),
    "duplicate-state": ({"states": ["A", "B", "A"], "init": "A"},
                        "duplicate state name 'A'"),
    "send-not-a-pair": ({"states": ["A", "B"], "init": "A", "actions": [
        {"name": "t", "sends": [["A", "B", "A"]]}]},
        "actions[0]: 'sends' entries must be a [from, to] pair, got 3 names"),
    "count-not-an-integer": ({"states": ["A"], "init": "A",
                              "property": {"target": "A", "count": [1]}},
                             "'property': 'count' must be an integer, got a list"),
}


TOP_KEYS = st.sampled_from(
    ["states", "init", "guards", "actions", "sugar", "property"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(
        allow_nan=False, allow_infinity=False) | st.sampled_from(
        ["A", "Env", "Report", "G1", "ALL", "", "sender", "maximal",
         "internal", "pairwise", "async", "negotiation", "disjunctive"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        TOP_KEYS | st.sampled_from(
            ["name", "kind", "arity", "sends", "receives", "guard", "type",
             "from", "to", "send", "recv", "map", "action", "witnesses",
             "target", "count", "Env", "G1"]),
        inner, max_size=4),
    max_leaves=12)


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line(self, case, tmp_path, capsys):
        raw, message = MALFORMED[case]
        f = tmp_path / "m.json"
        f.write_text(json.dumps(raw), encoding="utf-8")
        assert invoke("validate", str(f))[0] == EXIT_ERROR
        assert capsys.readouterr().err == f"error [model]: {message}\n"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_documents(self, tmp_path_factory, data):
        """Arbitrary JSON, and the smoke detector with one subtree replaced
        by arbitrary JSON, is validated or rejected with exit 2."""
        if data.draw(st.booleans()):
            doc = json.loads(Path(SMOKE).read_text(encoding="utf-8"))
            node = doc
            while True:
                key = data.draw(st.sampled_from(
                    sorted(node) if isinstance(node, dict) else range(len(node))))
                if not node[key] or not isinstance(node[key], (dict, list)) \
                        or data.draw(st.booleans()):
                    node[key] = data.draw(json_values)
                    break
                node = node[key]
        else:
            doc = data.draw(json_values | st.dictionaries(TOP_KEYS, json_values))
        f = tmp_path_factory.mktemp("fuzz") / "m.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["validate", str(f)], out=io.StringIO())
        assert code in (EXIT_CLEAN, EXIT_ERROR)
        if code == EXIT_ERROR:
            assert err.getvalue().startswith("error [")
            assert err.getvalue().count("\n") == 1


class BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["verify", SMOKE, "--json"],
        ["certify", MUTANT],
        ["desugar", SMOKE],
    ])
    def test_exit_code_stands(self, argv, capsys):
        assert run(argv, out=BrokenPipe()) == run(argv, out=io.StringIO())
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("buffered", [True, False])
    def test_main_with_no_reader(self, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gspmc.cli", "verify", SMOKE, "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CLEAN
        assert proc.stderr == b""


class TestMc:
    def test_refuted_uses_property_block(self):
        code, report = invoke_json("mc", SMOKE, "--n", "3")
        assert code == EXIT_CLEAN
        assert report["result"]["reachable"] is False
        assert report["result"]["target"] == "Report"
        assert report["result"]["count"] == 3

    def test_witness_with_count_override(self):
        code, report = invoke_json("mc", SMOKE, "--n", "3", "--count", "2")
        assert code == EXIT_WITNESS
        res = report["result"]
        assert res["reachable"] is True
        trace = res["trace"]
        assert trace[0]["action"] is None
        assert trace[0]["config"] == [3, 0, 0, 0, 0]
        assert [t["action"] for t in trace[1:]].count("Choose") == 1

    def test_text_trace(self):
        code, text = invoke("mc", SMOKE, "--n", "2", "--count", "2")
        assert code == EXIT_WITNESS
        assert "reachable with 2 processes (4 steps):" in text
        assert "  start {Env:2}" in text
        assert "--Choose--> {Report:2}" in text

    def test_n_flag_required(self):
        with pytest.raises(SystemExit) as exc:
            invoke("mc", SMOKE)
        assert exc.value.code == 2

    def test_unknown_target(self, capsys):
        assert invoke("mc", SMOKE, "--n", "2",
                      "--target", "Nope")[0] == EXIT_ERROR
        assert "error [model]:" in capsys.readouterr().err

    def test_state_budget(self, capsys):
        assert invoke("mc", SMOKE, "--n", "6",
                      "--state-budget", "5")[0] == EXIT_ERROR
        assert "error [explicit]:" in capsys.readouterr().err

    def test_missing_query(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "states": ["A"], "init": "A", "actions": [
                {"name": "t", "kind": "sender", "sends": [["A", "A"]]}]}),
            encoding="utf-8")
        assert invoke("mc", str(f), "--n", "2")[0] == EXIT_ERROR
        assert "no target/count" in capsys.readouterr().err


class TestSweep:
    def test_minimal_size(self):
        code, report = invoke_json("sweep", SMOKE, "--count", "2", "--max", "8")
        assert code == EXIT_WITNESS
        assert report["result"]["found"] is True
        assert report["result"]["min_n"] == 2

    def test_not_found(self):
        code, report = invoke_json("sweep", SMOKE, "--max", "6")
        assert code == EXIT_CLEAN
        assert report["result"] == {
            "target": "Report", "count": 3, "found": False,
            "min_n": None, "searched_up_to": 6, "trace": None}


class TestVerify:
    def test_unreachable(self):
        code, report = invoke_json("verify", SMOKE)
        assert code == EXIT_CLEAN
        res = report["result"]
        assert res["order"] == "guard-refined"
        assert res["reachable"] is False
        assert res["iterations"] == 1
        assert sorted(map(tuple, res["basis"])) == [
            (0, 0, 0, 0, 3), (0, 0, 0, 1, 3), (0, 1, 0, 0, 3), (1, 0, 0, 0, 3)]

    def test_reachable_with_witness(self):
        code, report = invoke_json("verify", SMOKE, "--count", "2")
        assert code == EXIT_WITNESS
        res = report["result"]
        assert res["min_n"] == 2
        assert res["witness"] == ["i", "i", "Smoke", "Choose"]
        assert "soundness" not in res

    def test_uncertified_refusal(self, capsys):
        assert invoke("verify", MUTANT, "--count", "2")[0] == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [wsts]:" in err and "certification" in err

    def test_no_unsound_override(self, capsys):
        # the guard-refined order is unsound without certification, so
        # there is no option that analyzes an uncertified protocol anyway
        with pytest.raises(SystemExit) as exc:
            invoke("verify", MUTANT, "--count", "2", "--force-unsound")
        assert exc.value.code == EXIT_ERROR
        assert "unrecognized arguments: --force-unsound" in capsys.readouterr().err

    def test_target_covered_initially(self):
        # n = 1 already has its one process in the target: an empty witness
        argv = ("verify", SMOKE, "--target", "Env", "--count", "1")
        code, report = invoke_json(*argv)
        assert code == EXIT_WITNESS
        res = report["result"]
        assert (res["reachable"], res["min_n"], res["witness"]) == (True, 1, [])
        code, text = invoke(*argv)
        assert code == EXIT_WITNESS
        assert "  witness actions: (none)\n" in text

    def test_text_output(self):
        code, text = invoke("verify", SMOKE)
        assert code == EXIT_CLEAN
        assert "order: guard-refined" in text
        assert "Unreachable for every system size" in text
        assert "1 iteration(s)" in text


class TestQueryErrors:
    @pytest.mark.parametrize("argv, message", [
        (["mc", SMOKE, "--n", "2"], "threshold 3 exceeds system size 2: "
         "trivially unreachable, refusing the query"),
        (["verify", SMOKE, "--count", "0"], "threshold must be at least 1"),
        (["sweep", SMOKE, "--max", "1"], "n_max must be at least the threshold"),
        (["cutoff", WITNESS, "--count", "0"], "threshold must be at least 1"),
        (["mc", SMOKE, "--n", "5", "--target", "Env", "--count", "1",
          "--state-budget", "-4"], "state budget must be at least 1"),
        (["mc", SMOKE, "--n", "5", "--target", "Env", "--count", "5",
          "--state-budget", "0"], "state budget must be at least 1"),
        (["sweep", SMOKE, "--max", "5", "--state-budget", "0"],
         "state budget must be at least 1"),
        (["cutoff", SMOKE, "--path-budget", "-3"], "path budget must be at least 1"),
        (["cutoff", SMOKE, "--state-budget", "0"], "state budget must be at least 1"),
        (["cutoff", WITNESS, "--path-budget", "0"], "path budget must be at least 1"),
    ], ids=["mc", "verify", "sweep", "cutoff", "mc-state-budget-negative",
            "mc-state-budget-zero", "sweep-state-budget", "cutoff-path-budget",
            "cutoff-state-budget", "cutoff-path-budget-not-amenable"])
    def test_one_error_line(self, argv, message, capsys):
        assert invoke(*argv)[0] == EXIT_ERROR
        assert capsys.readouterr().err == f"error [model]: {message}\n"


class TestCertify:
    def test_smoke_passes(self):
        code, report = invoke_json("certify", SMOKE)
        assert code == EXIT_CLEAN
        res = report["result"]
        assert res["well_behaved"] is True
        assert {a["action"]: a["condition"] for a in res["actions"]} == {
            "Smoke": "C1", "Choose": "C2.1∧C2.2", "i": "C1",
            "Reset#1": "C1", "Reset#2": "C1"}

    def test_mutant_violation(self):
        code, text = invoke("certify", MUTANT)
        assert code == EXIT_WITNESS
        assert "well-behaved: False" in text
        assert "Choose: VIOLATION C1 on G3 (Pick -> Env)" in text


class TestCutoff:
    def test_smoke_property_holds(self):
        code, report = invoke_json("cutoff", SMOKE)
        assert code == EXIT_CLEAN
        res = report["result"]
        assert res["amenable"] is True
        assert res["lemma"] == "L3" and res["cutoff"] == 3
        assert res["holds"] is False

    def test_smoke_witness_at_cutoff(self):
        code, report = invoke_json("cutoff", SMOKE, "--count", "2")
        assert code == EXIT_WITNESS
        assert report["result"]["holds"] is True
        assert report["result"]["trace"] is not None

    def test_witness_protocol_not_amenable(self):
        code, report = invoke_json("cutoff", WITNESS)
        assert code == EXIT_CLEAN
        res = report["result"]
        assert res["amenable"] is False
        assert "no simple free path" in res["witness"]

    def test_path_budget(self, capsys):
        assert invoke("cutoff", SMOKE, "--path-budget", "3")[0] == EXIT_ERROR
        assert "error [cutoff]:" in capsys.readouterr().err


# the sugar models of the cutoff tests, queried at every state
SUGAR_MODELS = {
    "negotiation_only": test_cutoff.negotiation_only_raw(),
    "offside_sync": test_cutoff.offside_sync_raw(),
    "dragging": test_cutoff.dragging_raw(),
    **{f"detour_{v}": test_cutoff.detour_raw(v)
       for v in ("sink", "cycle", "recover", "dodge")},
}


def outcome(*argv):
    """Exit code, JSON ``result`` (None on error) and stderr of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([*argv, "--json"], out=out)
    text = out.getvalue()
    return code, json.loads(text)["result"] if text else None, err.getvalue()


class TestDesugar:
    @pytest.mark.parametrize("name", sorted(
        [f.name for f in FIXTURES.glob("*.json")] + list(SUGAR_MODELS)))
    def test_core_form_gives_same_results(self, name, tmp_path):
        """``certify``, ``verify`` and ``cutoff`` answer the desugared
        model exactly as they answer the original."""
        if name in SUGAR_MODELS:
            raw = SUGAR_MODELS[name]
            sugar = tmp_path / "sugar.json"
            sugar.write_text(json.dumps(raw), encoding="utf-8")
            queries = [("--target", s, "--count", c)
                       for s in raw["states"] for c in ("1", "2")]
        else:
            sugar = FIXTURES / name
            queries = [()]  # the property block
        _, text = invoke("desugar", str(sugar))
        core = tmp_path / "core.json"
        core.write_text(text, encoding="utf-8")
        assert outcome("certify", str(sugar)) == outcome("certify", str(core))
        for command in ("verify", "cutoff"):
            for query in queries:
                assert outcome(command, str(sugar), *query) == \
                    outcome(command, str(core), *query), (command, query)

    def test_emits_parsable_core_model(self):
        code, text = invoke("desugar", SMOKE)
        assert code == EXIT_CLEAN
        doc = modelfile.loads(text).raw
        assert {a["name"] for a in doc["actions"]} == {
            "Smoke", "Choose", "i", "Reset#1", "Reset#2"}
        assert "sugar" not in doc
        assert doc["property"] == {"target": "Report", "count": 3}

    def test_reparse_preserves_verdicts(self, tmp_path):
        _, text = invoke("desugar", SMOKE)
        core = tmp_path / "core.json"
        core.write_text(text, encoding="utf-8")
        for n, count in (("2", "2"), ("3", "2"), ("3", "3"), ("4", "3")):
            orig = invoke_json("mc", SMOKE, "--n", n, "--count", count)
            again = invoke_json("mc", str(core), "--n", n, "--count", count)
            assert orig[0] == again[0]
            assert orig[1]["result"] == again[1]["result"]

    def test_json_mode_wraps_document(self):
        code, report = invoke_json("desugar", SMOKE)
        assert code == EXIT_CLEAN
        assert report["result"]["model"]["init"] == "Env"


class TestDeterminism:
    def test_repeated_runs_identical(self):
        reports = []
        for _ in range(2):
            _, report = invoke_json("verify", SMOKE, "--count", "2")
            report.pop("duration_s")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_main_exits_with_code(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["gspmc", "validate", SMOKE])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == EXIT_CLEAN


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestKnownDisagreements:
    """Engine disagreements that still reproduce. Each test asserts the
    agreement that should hold, and is a strict xfail: the change that
    fixes the disagreement makes it pass, and must remove the marker."""

    @pytest.mark.xfail(strict=True, reason=(
        "forward firing fills the send slots of one source in send order, "
        "while the backward engine takes any maximal slot subset"))
    def test_maximal_shared_source_slots(self, tmp_path):
        path = write_model(tmp_path, {
            "states": ["I", "A", "B", "T"], "init": "I",
            "actions": [{"name": "m", "kind": "maximal",
                         "sends": [["I", "A"], ["I", "B"]], "receives": []}]})
        query = ("--target", "B", "--count", "1")
        _, verify = invoke_json("verify", path, *query)
        _, sweep = invoke_json("sweep", path, *query, "--max", "4")
        assert verify["result"]["min_n"] == sweep["result"]["min_n"]

    @pytest.mark.xfail(strict=True, reason=(
        "lemma L3 declares a cutoff below the size at which helper "
        "processes let the target be reached"))
    def test_lemma_l3_cutoff(self, tmp_path):
        path = write_model(tmp_path, {
            "states": ["S0", "S1", "S2"], "init": "S0",
            "guards": {"G0": ["S0", "S1"]},
            "actions": [
                {"name": "a0", "kind": "maximal",
                 "sends": [["S2", "S1"], ["S0", "S2"]],
                 "receives": [["S2", "S0"]]},
                {"name": "a1", "kind": "sender",
                 "sends": [["S1", "S0"], ["S0", "S2"]],
                 "receives": [["S0", "S2"]]}]})
        query = ("--target", "S2", "--count", "2")
        _, verify = invoke_json("verify", path, *query)
        min_n = verify["result"]["min_n"]
        _, report = invoke_json("cutoff", path, *query)
        res = report["result"]
        if not res["amenable"]:
            return
        m = res["cutoff"]
        # a lifted verdict holds for every n >= m
        for n in range(m, m + 3):
            _, mc = invoke_json("mc", path, *query, "--n", str(n))
            assert mc["result"]["reachable"] == res["holds"], n
        assert res["holds"] == (min_n is not None and min_n <= m)
