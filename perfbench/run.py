#!/usr/bin/env python3
"""gspmc benchmark: closed-loop verdict queries through ``gspmc.cli.run``.

One client in one process, no threads: each query is an in-process
``cli.run`` call (parse, validate, analysis, JSON report) and the next
one starts when it returns. A pass runs the workload's fixed query list
once; passes repeat until ``--seconds`` have elapsed, and at least
``MIN_PASSES`` times. Every verdict is checked after the timed passes
(see ``check.py``).

Times are reported in reference seconds. The machine the benchmark was
written on is shared, and its speed moves between two levels that differ
by 1.5-1.8x for periods of seconds to minutes: a fixed pure-Python loop
took 22 ms in one and 35 ms in the other. No statistic of raw wall times
over a 30 s run is steady under that. So a short reference loop is timed
between queries at least every quarter second, and each wall time is
multiplied by ``REFERENCE_S`` over the median of the last three
reference timings. ``REFERENCE_S`` is the loop's time at that machine's
faster level, so a value reads as seconds on that machine at that level.
Each query's time is then its median over the run's passes. The raw
wall-clock throughput is printed alongside.

Run one workload (the last line of stdout is the JSON result)::

    python3 perfbench/run.py --workload backward-ring --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` runs untraced passes, then traced passes that time the
layers, then one pass that counts the per-comparison calls, reports the
per-layer metrics (see ``tracer.py``) and writes the spans to
``perfbench/out/``. Run every workload, both ways, each in its own
process, and print every metric with its unit::

    python3 perfbench/run.py --all --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21  # the first, cold, set-up is dropped; median of the rest
MIN_PASSES = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
REFERENCE_S = 0.0013  # reference_loop() on a 2.1 GHz Xeon VM, faster level
PROBE_EVERY_S = 0.25
MODULES = ("cli", "modelfile", "model", "wellbehaved", "wsts", "explicit",
           "semantics", "cutoff")
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
}


def reference_loop():
    """Fixed pure-Python work: tuples, a dict, a generator, comparisons."""
    counts = {}
    total = 0
    for i in range(1200):
        t = (i % 13, i % 7, i % 5, i % 3)
        counts[t] = counts.get(t, 0) + 1
        if not any(a > b for a, b in zip(t, (9, 9, 9, 9))):
            total += sum(t)
    return total


class SpeedProbe:
    """Current machine speed, from the reference loop timed between queries."""

    def __init__(self):
        self.timings = []
        self.last = 0.0
        for _ in range(3):
            self.sample()

    def sample(self):
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.timings.append(self.last - start)

    def scale(self) -> float:
        """Reference seconds per wall second for a measurement starting now."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()
        return REFERENCE_S / statistics.median(self.timings[-3:])


@dataclass
class Pass:
    durations: list  # per query, reference seconds
    scales: list  # per query, reference seconds per wall second
    outcomes: list  # per query: (exit code or crash text, stdout, stderr)
    wall: float  # wall seconds of the whole pass
    changed: list = None  # queries whose verdict differs from the first pass


def import_gspmc():
    """Fresh import of the package from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "gspmc" or m.startswith("gspmc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"gspmc.{m}")
                              for m in MODULES})


def set_up(build, seed, workdir, probe):
    """Import gspmc, generate the workload and serialise its model files.

    Returns (reference seconds, gspmc modules, queries, files), where
    ``files`` maps each model file's path to its text. Writing the files
    is left out of the timed part: the same 300 small files took from 7
    to 180 ms to write on the shared disk of the machine the benchmark
    was written on, which no program change can move.
    """
    gc.collect()
    probe.sample()  # a set-up is short: scale it by the speed just before
    scale = probe.scale()
    start = time.perf_counter()
    g = import_gspmc()
    files = {}
    queries = build(seed, workdir, ROOT, files)
    return (time.perf_counter() - start) * scale, g, queries, files


def tail_rung(n_samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n_samples - math.ceil(p * n_samples / 100) >= 10:
            best = p
    return best


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def run_pass(g, queries, pass_idx, probe, tr=None) -> Pass:
    """One closed-loop pass over the query list."""
    run = g.cli.run
    real_stderr = sys.stderr
    done = Pass([], [], [], 0.0)
    gc.collect()
    begin = time.perf_counter()
    for i, q in enumerate(queries):
        if tr is not None:
            tr.begin((pass_idx, i))
        scale = probe.scale()
        out = io.StringIO()
        sys.stderr = err = io.StringIO()
        start = time.perf_counter()
        try:
            code = run(q.argv, out=out)
        except Exception as e:  # a crash is a failed query, not a bench error
            code = f"uncaught {type(e).__name__}: {e}"
        finally:
            sys.stderr = real_stderr
        took = time.perf_counter() - start
        if took >= PROBE_EVERY_S:  # the speed may have moved during it
            scale = (scale + probe.scale()) / 2
        done.durations.append(took * scale)
        done.scales.append(scale)
        done.outcomes.append((code, out.getvalue(), err.getvalue()))
    done.wall = time.perf_counter() - begin
    return done


def parse_outcomes(raw):
    outcomes = []
    for code, text, _ in raw:
        report = json.loads(text) if text else None
        if report is not None:
            report.pop("duration_s", None)
        outcomes.append((code, report))
    return outcomes


def run_traced(g, queries, seconds, min_passes, probe, before, tr):
    """Passes with tracer ``tr`` installed, after the passes ``before``."""
    tr.install(g)
    try:
        return run_passes(g, queries, seconds, min_passes, probe, before[0],
                          len(before), tr)
    finally:
        tr.uninstall()


def run_passes(g, queries, seconds, min_passes, probe, first=None, start=0,
               tr=None):
    """Passes until ``seconds`` have elapsed.

    ``first`` is the run's first pass, or None when this call makes it;
    ``start`` numbers the passes for the tracer's query ids.
    Only the first pass keeps its outputs, so memory does not grow with
    the number of passes; the others record which queries' verdicts
    differ from it.
    """
    passes = []
    reference = None if first is None else parse_outcomes(first.outcomes)
    begin = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - begin < seconds):
        done = run_pass(g, queries, start + len(passes), probe, tr)
        if reference is None:
            reference = parse_outcomes(done.outcomes)
        else:
            done.changed = [i for i, (now, then) in enumerate(
                zip(parse_outcomes(done.outcomes), reference)) if now != then]
            done.outcomes = None
        passes.append(done)
    return passes


def query_times(passes):
    """Each query's median time over the passes, in reference seconds."""
    return [statistics.median(ds) for ds in zip(*(p.durations for p in passes))]


def judge(g, queries, passes):
    """Count failures over every pass; a verdict that differs from the
    first pass's verdict for the same query also fails."""
    checker = check.Checker(g)
    first = passes[0]
    failures = checker.run(queries, parse_outcomes(first.outcomes))
    errors = {q.qid: err.strip()
              for q, (_, _, err) in zip(queries, first.outcomes) if err.strip()}
    for f in failures:
        if f.qid in errors:
            f.detail += f" ({errors[f.qid]})"
    failing = {f.qid for f in failures}
    failed = len(failing) * len(passes)
    unstable = set()
    for p in passes[1:]:
        for i in p.changed:
            unstable.add(queries[i].qid)
            failed += queries[i].qid not in failing
    return failures, failed, sorted(unstable), checker.unchecked


def machine():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    threads = os.environ.get("GSP_THREADS")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit,
            "gsp_threads": "unset" if threads is None else threads}


def run_workload(args):
    build = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = HERE / "out"
    probe = SpeedProbe()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            took, g, queries, files = set_up(build, args.seed, workdir, probe)
            setups.append(took)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")

        if args.trace:
            third = args.seconds / 3
            plain = run_passes(g, queries, third, 2, probe)
            timer = tracing.Tracer()
            traced = run_traced(g, queries, third, 2, probe, plain, timer)
            counter = tracing.Tracer(count_calls=True)
            counted = run_traced(g, queries, 0, 1, probe, plain + traced,
                                 counter)
            passes = plain + traced + counted
        else:
            passes = run_passes(g, queries, args.seconds, MIN_PASSES, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failures, failed, unstable, unchecked = judge(g, queries, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    attempted = len(queries) * len(passes)
    unexplained = [f for f in failures if f.cause == check.UNEXPLAINED]
    info = machine()
    raw_qps = statistics.median(len(queries) / p.wall for p in passes)
    print(f"# machine: python {info['python']}, nproc {info['nproc']}, "
          f"commit {info['commit']}, GSP_THREADS {info['gsp_threads']}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(queries)} queries per pass, {len(passes)} passes, "
          f"raw wall-clock {raw_qps:.4g} queries/s, reference speed "
          f"{statistics.median(REFERENCE_S / t for t in probe.timings):.3f}")
    print(f"# failed_ratio {failed / attempted:.6f} "
          f"({failed} failed of {attempted} attempted)")
    for f in failures:
        print(f"# disagreement [{f.cause}] {f.qid} ({Path(f.model).name}): "
              f"{f.detail}")
    for qid in unstable:
        print(f"# unstable verdict across passes: {qid}")
    for item in unchecked:
        print(f"# unchecked (BFS over budget): {item}")

    if args.trace:
        scales = {(i, j): s for i, p in enumerate(passes)
                  for j, s in enumerate(p.scales)}
        metrics = tracing.layer_metrics(
            timer, len(traced), lambda qid: qid[0] - len(plain),
            scales.__getitem__)
        counts = tracing.layer_metrics(counter, 1, lambda qid: 0,
                                       scales.__getitem__)
        for name in tracing.COUNTED_METRICS:
            metrics[name] = counts[name]
        plain_s = sum(query_times(plain))
        metrics["trace.overhead_ratio"] = plain_s / sum(query_times(traced))
        print(f"# {len(plain)} untraced, {len(traced)} timed, {len(counted)} "
              f"counting passes; times from the timed passes, "
              f"{', '.join(tracing.COUNTED_METRICS)} from the counting pass "
              f"(untraced / counting time "
              f"{plain_s / sum(query_times(counted)):.3f})")
        pass_s = statistics.median(sum(p.durations) for p in traced)
        for name, share in tracing.shares(metrics, pass_s).items():
            print(f"# share of a timed pass: {name} {share:.3f}")
        outdir.mkdir(exist_ok=True)
        span_file = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        tracing.dump(span_file, {"workload": args.workload, "seed": args.seed,
                                 "timed_passes": len(traced),
                                 "counting_passes": len(counted),
                                 "machine": info},
                     {"timed": timer, "counting": counter})
        print(f"# spans (wall seconds) written to {span_file.relative_to(ROOT)}")
        units = {n: u for n, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        times = query_times(passes)
        rung = tail_rung(len(times))
        print(f"# verdict_tail_s is p{rung:g} of {len(times)} queries, each "
              f"at its median over {len(passes)} passes")
        metrics = {
            "setup_s": statistics.median(setups[1:]),
            "queries_per_s": len(times) / sum(times),
            "verdict_p50_s": statistics.median(times),
            "verdict_tail_s": nearest_rank(times, rung),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not unexplained and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, untraced and traced."""
    info = machine()
    print(f"machine: python {info['python']}, nproc {info['nproc']}, "
          f"commit {info['commit']}, GSP_THREADS {info['gsp_threads']}")
    report = {"machine": info, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    for name in workloads.WORKLOADS:
        report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{name} --trace {trace} failed")
            result = json.loads(lines[-1])
            print(f"\n== {name} (--trace {trace}) ==")
            for line in lines[:-1]:
                if not line.startswith("# machine") and " = " not in line:
                    print(line[2:])
            for metric, m in result["metrics"].items():
                moves = tracing.LAYER_METRICS.get(metric, (None, ""))[1]
                print(f"  {metric:28s} {m['value']:14.6g} {m['unit']:6s}"
                      + (f"  should move: {moves}" if moves else ""))
            print(f"  failed_ratio {result['failed'] / result['attempted']:.6f} "
                  f"({result['failed']} of {result['attempted']}), "
                  f"correct {result['correct']}")
            report["workloads"][name][f"trace{trace}"] = result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nreport written to {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args()
    if not (ROOT / "src" / "gspmc" / "__init__.py").is_file():
        sys.exit(f"error: no gspmc sources under {ROOT / 'src'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("give --workload or --all")


if __name__ == "__main__":
    main()
