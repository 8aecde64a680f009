"""What the benchmark's tracer relies on in the package.

``perfbench/tracer.py`` wraps gspmc functions by module and attribute
name, and counts BFS work through ``semantics.successors``. A refactor
that renames one of them, or stops calling ``successors`` through the
module attribute, would silently zero per-layer metrics, so these tests
pin that contract. The tracer is loaded from its file, not changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from gspmc import explicit, semantics

from conftest import fixture_path, internal_ring

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    owner = importlib.import_module(f"gspmc.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_attribute_resolves(tracer):
    wrapped = tracer.SPANNED + tracer.TIMED_AGGREGATE + tracer.COUNTED
    assert wrapped
    for module, attr, _name in wrapped:
        assert callable(_resolve(module, attr)), (module, attr)


def test_successors_called_once_per_expanded_configuration(monkeypatch):
    expanded = []
    original = semantics.successors

    def counting(packed, code):
        expanded.append((packed, code))
        return original(packed, code)

    monkeypatch.setattr(semantics, "successors", counting)
    p = internal_ring(4)
    # unreachable: every discovered configuration is expanded once
    res = explicit.check_fixed(p, explicit.ReachQuery(p.state_index("dead"), 1, 5))
    assert not res.reachable
    codes = [code for _, code in expanded]
    assert len(codes) == len(set(codes)) == res.explored == 56  # C(8, 3)
    # the tracer's wrapper reads one table per action
    assert all(len(packed.actions) == len(p.actions) for packed, _ in expanded)
    # reachable: the search stops while expanding the last configuration
    expanded.clear()
    res = explicit.check_fixed(p, explicit.ReachQuery(p.state_index("r3"), 2, 2))
    assert res.reachable
    codes = [code for _, code in expanded]
    assert len(codes) == len(set(codes))
    packed, last = expanded[-1]
    assert res.trace[-2][1] == semantics.unpack(packed, last)


def traced_run(tracer, *argv):
    """(tracer, exit code, JSON report) of one traced ``cli.run``."""
    g = SimpleNamespace(**{m: importlib.import_module(f"gspmc.{m}") for m in (
        "cli", "modelfile", "model", "wellbehaved", "wsts", "explicit",
        "semantics", "cutoff")})
    tr = tracer.Tracer()
    tr.install(g)
    out = io.StringIO()
    try:
        tr.begin("q")
        code = g.cli.run([*argv, "--json"], out=out)
    finally:
        tr.uninstall()
    return tr, code, json.loads(out.getvalue())


def recorded(tr, name):
    """The result digests the tracer recorded for span ``name``."""
    return [res for idx, res in tr.results if tr.spans[idx][0] == name]


def test_traced_run_counts_bfs_work(tracer):
    tr, code, _ = traced_run(tracer, "mc", fixture_path("smoke_detector.json"),
                             "--n", "4")
    assert code == 0
    explored = [res["explored"] for res in recorded(tr, "explicit.check_fixed")]
    assert explored and tr.counts[("semantics.successors", "q")] == explored[0]


def test_traced_verify_records_fixpoint_results(tracer):
    tr, code, report = traced_run(
        tracer, "verify", fixture_path("smoke_detector.json"), "--count", "2")
    assert code == 1
    res = report["result"]
    assert recorded(tr, "wsts.decide") == [
        {"iterations": res["iterations"], "basis": len(res["basis"])}]
    # the guard-refined target basis is minimized through wsts.minimize
    assert recorded(tr, "wsts.minimize")


def test_traced_cutoff_records_amenability(tracer):
    tr, code, report = traced_run(
        tracer, "cutoff", fixture_path("smoke_detector.json"))
    assert code == 0
    assert recorded(tr, "cutoff.certified_cutoff_check") == [
        {"amenable": report["result"]["amenable"]}]


def test_traced_cutoff_spans_the_front_end(tracer):
    """``cli.run`` calls parsing, validation and certification through
    their module attributes, so each shows as a span under its
    ``cli.run`` span; a call through a local alias would not."""
    tr, code, _ = traced_run(tracer, "cutoff", fixture_path("smoke_detector.json"))
    assert code == 0
    run_span = [s[0] for s in tr.spans].index("cli.run")

    def under_run(idx):
        while idx != -1:
            if idx == run_span:
                return True
            idx = tr.spans[idx][3]
        return False

    for name in ("modelfile.parse_model", "model.validate", "wellbehaved.certify"):
        assert any(span[0] == name and under_run(span[3]) for span in tr.spans), name
