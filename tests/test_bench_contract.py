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

    def counting(protocol, q):
        expanded.append(q)
        return original(protocol, q)

    monkeypatch.setattr(semantics, "successors", counting)
    p = internal_ring(4)
    # unreachable: every discovered configuration is expanded once
    res = explicit.check_fixed(p, explicit.ReachQuery(p.state_index("dead"), 1, 5))
    assert not res.reachable
    assert len(expanded) == len(set(expanded)) == res.explored == 56  # C(8, 3)
    # reachable: the search stops while expanding the last configuration
    expanded.clear()
    res = explicit.check_fixed(p, explicit.ReachQuery(p.state_index("r3"), 2, 2))
    assert res.reachable
    assert len(expanded) == len(set(expanded))
    assert res.trace[-2][1] == expanded[-1]


def test_traced_run_counts_bfs_work(tracer):
    g = SimpleNamespace(**{m: importlib.import_module(f"gspmc.{m}") for m in (
        "cli", "modelfile", "model", "wellbehaved", "wsts", "explicit",
        "semantics", "cutoff")})
    tr = tracer.Tracer()
    tr.install(g)
    try:
        tr.begin("q")
        code = g.cli.run(["mc", fixture_path("smoke_detector.json"),
                          "--n", "4", "--json"], out=io.StringIO())
    finally:
        tr.uninstall()
    assert code == 0
    explored = [res["explored"] for idx, res in tr.results
                if tr.spans[idx][0] == "explicit.check_fixed"]
    assert explored and tr.counts[("semantics.successors", "q")] == explored[0]
