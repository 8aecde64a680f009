"""Golden CLI reports: ``validate``, ``certify``, ``verify``, ``cutoff``
and ``desugar`` on every bundled fixture and on the smoke detector with
a grafted 2-maximal action, ``mc`` and ``sweep`` on each of them at
fixed sizes, and one query per text line shape that none of those
prints, must keep producing exactly the recorded exit codes, JSON
reports (without ``duration_s``), text output and error lines.

``golden/cli_reports.json`` was recorded with :func:`record`; refresh it
only for a deliberate change of verdicts or report wording.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from gspmc import cli

from conftest import FIXTURES
from test_cutoff import negotiation_only_raw
from test_wellbehaved import _smoke_raw_with_grab, note_fixture_raw, weak_sender_raw

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"
README = Path(__file__).resolve().parent.parent / "README.md"
MODELS = ("smoke_detector.json", "smoke_detector_2sender.json",
          "smoke_detector_mutant.json", "cutoff_witness.json",
          "smoke_with_grab.json")
COMMANDS = ("validate", "certify", "verify", "cutoff", "desugar")
# models built by the test helpers, written to a temporary file
GENERATED = {
    "smoke_with_grab.json": _smoke_raw_with_grab,
    "weak_sender.json": lambda: weak_sender_raw(guarded_escape=True),
    "note_fixture.json": note_fixture_raw,
    "negotiation_only.json": negotiation_only_raw,
}
# (command, model, options) of each query whose text holds a line shape
# that no other golden entry prints
SHAPE_QUERIES = (
    ("certify", "weak_sender.json", ()),  # "weak (C3w)" next to violations
    ("certify", "note_fixture.json", ()),  # a "note:" line
    # lemma L1 holds at the cutoff, with the trace
    ("cutoff", "negotiation_only.json", ("--target", "B", "--count", "2")),
    # a witness of no action: "witness actions: (none)"
    ("verify", "smoke_detector.json", ("--target", "Env", "--count", "1")),
)
SIZE_OPTIONS = {"mc": "--n", "sweep": "--max"}
# per model, (size, options) of each mc and sweep query: the file's own
# property, unreachable at that size, then a query whose trace is found
SIZED_QUERIES = {
    **{name: ((4, ()), (4, ("--count", "2"))) for name in MODELS
       if name.startswith("smoke_")},
    "cutoff_witness.json": ((15, ()), (16, ())),
}


def sized_runs():
    """``(key, command, name, options)`` of every sized ``mc`` and
    ``sweep`` query, the key its golden entry."""
    return [(" ".join((command, name, *options)), command, name, options)
            for name in MODELS for command, flag in SIZE_OPTIONS.items()
            for size, extra in SIZED_QUERIES[name]
            for options in [(flag, str(size), *extra)]]


def shape_runs():
    """``(key, command, name, options)`` of every query of
    :data:`SHAPE_QUERIES`, the key its golden entry."""
    return [(" ".join((command, name, *options)), command, name, options)
            for command, name, options in SHAPE_QUERIES]


def model_path(name: str, tmp_dir: Path) -> Path:
    if name in GENERATED:
        path = tmp_dir / name
        path.write_text(json.dumps(GENERATED[name]()), encoding="utf-8")
        return path
    return FIXTURES / name


def outputs(name: str, command: str, tmp_dir: Path, options=()) -> dict:
    """Exit code, report, text and stderr of one command, both modes."""
    path = str(model_path(name, tmp_dir))
    got = {}
    for mode, extra in (("json", ["--json"]), ("text", [])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run([command, path, *options, *extra], out=out)
        text = out.getvalue()
        if mode == "json" and text:
            report = json.loads(text)
            report.pop("duration_s")
            report["model"] = name
            text = report
        got[mode] = {"exit": code, "stdout": text, "stderr": err.getvalue()}
    return got


def record(tmp_dir: Path) -> dict:
    return {**{f"{command} {name}": outputs(name, command, tmp_dir)
               for name in MODELS for command in COMMANDS},
            **{key: outputs(name, command, tmp_dir, options)
               for key, command, name, options in sized_runs() + shape_runs()}}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", MODELS)
def test_matches_golden(name, command, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs(name, command, tmp_path) == golden[f"{command} {name}"]


@pytest.mark.parametrize("key, command, name, options", sized_runs(),
                         ids=[run[0] for run in sized_runs()])
def test_sized_query_matches_golden(key, command, name, options, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs(name, command, tmp_path, options) == golden[key]


@pytest.mark.parametrize("key, command, name, options", shape_runs(),
                         ids=[run[0] for run in shape_runs()])
def test_line_shape_matches_golden(key, command, name, options, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs(name, command, tmp_path, options) == golden[key]


def test_readme_sessions_match_golden():
    """Every README console session shows the command's real output: the
    golden text for a golden command on a bundled fixture without
    options, else what ``cli.run`` prints, and a block elided with a
    closing ``...`` line matches line by line up to it."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    readme = README.read_text(encoding="utf-8")
    shown = 0
    for block in re.findall(r"```console\n(.*?)```", readme, re.S):
        for session in block.split("$ gspmc ")[1:]:
            head, _, text = session.partition("\n")
            command, path, *options = head.split()
            key = f"{command} {Path(path).name}"
            if not options and key in golden:
                real = golden[key]["text"]["stdout"]
            else:
                out = io.StringIO()
                cli.run([command, str(README.parent / path), *options], out=out)
                real = out.getvalue()
            lines = text.strip("\n").split("\n")
            real_lines = real.strip("\n").split("\n")
            if lines[-1].strip() == "...":
                lines.pop()
                real_lines = real_lines[:len(lines)]
            assert lines == real_lines, head
            shown += 1
    assert shown >= 7
