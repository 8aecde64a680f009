"""Per-layer tracing installed from the benchmark's own files.

:meth:`Tracer.install` replaces the public functions of each gspmc
module with wrappers, so the program itself is unchanged. Calls at a
layer boundary become spans ``(name, start, end, parent, query id)``
kept in memory. ``semantics.successors``, called once per explored
configuration, is counted and timed in aggregate, into a per-query
total kept in a list and filed under its query when the next query
begins, so that tracing a BFS of 50 k configurations neither stores 50 k
spans nor does a dictionary update per call. Aggregated time still
counts as child time of the enclosing span, so every self time is a
span minus the time of what it called.

The functions called per order comparison or per action tried
(``Wqo.leq``, ``semantics.fire``) run millions of times a pass, and
counting them costs more than the work of the layer around them. So a
tracer counts them only when made with ``count_calls=True``, and the run
takes those counts (:data:`COUNTED_METRICS`) from separate counting
passes and every time from passes whose tracer does not count them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# Per-layer metrics: name -> (unit, what it should move). The second
# field is the layer -> end-to-end map the benchmark was designed
# around: a change to a layer should show on that end-to-end metric and
# workload, and nowhere else.
LAYER_METRICS = {
    "wsts.minimize_s": ("s", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.minimize_calls": ("count", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.minimize_keep_ratio": ("ratio", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.leq_calls": ("count", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix; 0 on forward-bfs"),
    "wsts.pred_loop_s": ("s", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.iterations": ("count", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.basis_size": ("count", "queries_per_s, verdict_p50_s on backward-ring and guarded-mix"),
    "wsts.target_basis_s": ("s", "verdict_tail_s on guarded-mix; about 0 on backward-ring"),
    "explicit.check_fixed_s": ("s", "queries_per_s, peak_rss_mb on forward-bfs; none on backward-ring"),
    "explicit.configs": ("count", "queries_per_s, peak_rss_mb on forward-bfs; none on backward-ring"),
    "explicit.configs_per_s": ("1/s", "queries_per_s, peak_rss_mb on forward-bfs; none on backward-ring"),
    "explicit.sweep_sizes": ("count", "queries_per_s on forward-bfs"),
    "semantics.successors_s": ("s", "queries_per_s, peak_rss_mb on forward-bfs; none on backward-ring"),
    "semantics.successors_calls": ("count", "queries_per_s on forward-bfs; 0 on backward-ring"),
    "semantics.fire_calls": ("count", "queries_per_s on forward-bfs; 0 on backward-ring"),
    "semantics.enabled_ratio": ("ratio", "queries_per_s on forward-bfs"),
    "wellbehaved.certify_s": ("s", "verdict_p50_s on guarded-mix"),
    "wellbehaved.certify_calls": ("count", "verdict_p50_s on guarded-mix"),
    "cutoff.lemmas_s": ("s", "verdict_p50_s on guarded-mix"),
    "cutoff.amenable_ratio": ("ratio", "verdict_p50_s on guarded-mix"),
    "modelfile.parse_s": ("s", "verdict_p50_s on guarded-mix; negligible elsewhere"),
    "model.validate_s": ("s", "verdict_p50_s on guarded-mix; negligible elsewhere"),
    "cli.self_s": ("s", "verdict_p50_s on guarded-mix; negligible elsewhere"),
    "trace.overhead_ratio": ("ratio", "nothing; it is timed-pass / untraced queries_per_s of one run"),
}

# (module, attribute, span name); methods are given as "Class.method".
SPANNED = (
    ("cli", "run", "cli.run"),
    ("modelfile", "parse_model", "modelfile.parse_model"),
    ("model", "validate", "model.validate"),
    ("wellbehaved", "certify", "wellbehaved.certify"),
    ("wsts", "decide", "wsts.decide"),
    ("wsts", "target_basis", "wsts.target_basis"),
    ("wsts", "minimize", "wsts.minimize"),
    ("explicit", "check_fixed", "explicit.check_fixed"),
    ("explicit", "min_witness_size", "explicit.min_witness_size"),
    ("cutoff", "certified_cutoff_check", "cutoff.certified_cutoff_check"),
    ("cutoff", "check_lemma1", "cutoff.check_lemma1"),
    ("cutoff", "check_lemma2", "cutoff.check_lemma2"),
    ("cutoff", "check_lemma3", "cutoff.check_lemma3"),
)
TIMED_AGGREGATE = (("semantics", "successors", "semantics.successors"),)
COUNTED = (("semantics", "fire", "semantics.fire"),
           ("wsts", "Wqo.leq", "wsts.leq"))
# The per-layer metrics taken from a counting tracer; all others are
# taken from a tracer that does not count the calls in COUNTED.
COUNTED_METRICS = ("wsts.leq_calls", "semantics.fire_calls",
                   "semantics.enabled_ratio")


class Tracer:
    def __init__(self, count_calls=False):
        self.count_calls = count_calls
        self.spans = []  # [name, start, end, parent index, query id, child time]
        self.stack = []
        self.counts = defaultdict(int)  # (name, query id) -> calls
        self.totals = defaultdict(float)  # (name, query id) -> seconds
        self.results = []  # (span index, returned value digest)
        self.pending = {}  # aggregated name -> [seconds, calls, actions tried]
        self.qid = None
        self._undo = []

    def begin(self, qid):
        """Start query ``qid``, filing the aggregated calls of the last one."""
        self.flush()
        self.qid = qid

    def flush(self):
        for name, box in self.pending.items():
            if box[1]:
                self.counts[(name, self.qid)] += box[1]
                self.totals[(name, self.qid)] += box[0]
                self.counts[("semantics.actions", self.qid)] += box[2]
                box[:] = [0.0, 0, 0]

    def install(self, g):
        """Wrap the gspmc modules held by namespace ``g``."""
        for module, attr, name in SPANNED:
            self._patch(getattr(g, module), attr, self._span(name))
        for module, attr, name in TIMED_AGGREGATE:
            self._patch(getattr(g, module), attr, self._aggregate(name))
        if self.count_calls:
            for module, attr, name in COUNTED:
                self._patch(getattr(g, module), attr, self._counter(name))

    def uninstall(self):
        self.flush()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module, attr, make):
        owner = module
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(module, cls)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name):
        spans, stack = self.spans, self.stack

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                rec = [name, time.perf_counter(), 0.0, parent, self.qid, 0.0]
                idx = len(spans)
                spans.append(rec)
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][5] += rec[2] - rec[1]
                self._observe(name, idx, args, out)
                return out
            return wrapper
        return make

    def _aggregate(self, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        box = self.pending[name] = [0.0, 0, 0]

        def make(fn):
            def wrapper(protocol, q):
                start = clock()
                out = fn(protocol, q)
                dur = clock() - start
                box[0] += dur
                box[1] += 1
                box[2] += len(protocol.actions)
                if stack:
                    spans[stack[-1]][5] += dur
                return out
            return wrapper
        return make

    def _counter(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[(name, self.qid)] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _observe(self, name, idx, args, out):
        """Record the part of a result a per-layer metric needs."""
        if name == "wsts.minimize":
            self.results.append((idx, {"in": len(args[1]), "out": len(out)}))
        elif name == "wsts.decide":
            self.results.append((idx, {"iterations": out.iterations,
                                       "basis": len(out.basis.basis)}))
        elif name == "explicit.check_fixed":
            self.results.append((idx, {"explored": out.explored}))
        elif name == "cutoff.certified_cutoff_check":
            self.results.append((idx, {"amenable": out.amenable}))

    def record(self) -> dict:
        return {
            "count_calls": self.count_calls,
            "span_fields": ["name", "start", "end", "parent", "query", "child_s"],
            "spans": self.spans,
            "results": self.results,
            "counts": [[n, q, c] for (n, q), c in self.counts.items()],
            "aggregate_s": [[n, q, t] for (n, q), t in self.totals.items()],
        }


def dump(path, meta, tracers: dict):
    """Write the spans and counts of each named tracer to ``path``."""
    doc = {"meta": meta, **{name: tr.record() for name, tr in tracers.items()}}
    path.write_text(json.dumps(doc), encoding="utf-8")


def layer_metrics(tracer: Tracer, passes: int, pass_of, scale_of) -> dict:
    """Per-layer metrics as the median over traced passes of per-pass sums.

    ``pass_of`` maps a query id to its traced pass number, ``scale_of``
    to the reference seconds per wall second measured for that query.
    """
    per = defaultdict(lambda: defaultdict(float))
    results = dict(tracer.results)
    for idx, (name, start, end, parent, qid, child) in enumerate(tracer.spans):
        p = per[pass_of(qid)]
        scale = scale_of(qid)
        dur = end - start
        p[name + ".inclusive"] += dur * scale
        p[name + ".self"] += (dur - child) * scale
        p[name + ".calls"] += 1
        res = results.get(idx)
        if res is None:  # the call raised, e.g. verify refusing a protocol
            continue
        if name == "wsts.minimize":
            p["minimize.in"] += res["in"]
            p["minimize.out"] += res["out"]
        elif name == "wsts.decide":
            p["wsts.iterations"] += res["iterations"]
            p["wsts.basis_size"] += res["basis"]
        elif name == "explicit.check_fixed":
            p["explicit.configs"] += res["explored"]
            if parent >= 0 and tracer.spans[parent][0] == "explicit.min_witness_size":
                p["explicit.sweep_sizes"] += 1
        elif name == "cutoff.certified_cutoff_check":
            p["cutoff.amenable"] += res["amenable"]
    for (name, qid), c in tracer.counts.items():
        per[pass_of(qid)][name + ".calls"] += c
    for (name, qid), t in tracer.totals.items():
        per[pass_of(qid)][name + ".inclusive"] += t * scale_of(qid)

    def ratio(a, b):
        return a / b if b else 0.0

    rows = []
    for p in (per[i] for i in range(passes)):
        rows.append({
            "wsts.minimize_s": p["wsts.minimize.inclusive"],
            "wsts.minimize_calls": p["wsts.minimize.calls"],
            "wsts.minimize_keep_ratio": ratio(p["minimize.out"], p["minimize.in"]),
            "wsts.leq_calls": p["wsts.leq.calls"],
            "wsts.pred_loop_s": p["wsts.decide.self"],
            "wsts.iterations": p["wsts.iterations"],
            "wsts.basis_size": p["wsts.basis_size"],
            "wsts.target_basis_s": p["wsts.target_basis.inclusive"],
            "explicit.check_fixed_s": p["explicit.check_fixed.inclusive"],
            "explicit.configs": p["explicit.configs"],
            "explicit.configs_per_s": ratio(p["explicit.configs"],
                                            p["explicit.check_fixed.inclusive"]),
            "explicit.sweep_sizes": p["explicit.sweep_sizes"],
            "semantics.successors_s": p["semantics.successors.inclusive"],
            "semantics.successors_calls": p["semantics.successors.calls"],
            "semantics.fire_calls": p["semantics.fire.calls"],
            "semantics.enabled_ratio": ratio(p["semantics.fire.calls"],
                                             p["semantics.actions.calls"]),
            "wellbehaved.certify_s": p["wellbehaved.certify.inclusive"],
            "wellbehaved.certify_calls": p["wellbehaved.certify.calls"],
            "cutoff.lemmas_s": sum(p[f"cutoff.check_lemma{i}.inclusive"]
                                   for i in (1, 2, 3)),
            "cutoff.amenable_ratio": ratio(p["cutoff.amenable"],
                                           p["cutoff.certified_cutoff_check.calls"]),
            "modelfile.parse_s": p["modelfile.parse_model.inclusive"],
            "model.validate_s": p["model.validate.inclusive"],
            "cli.self_s": p["cli.run.self"],
        })
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def shares(metrics: dict, pass_s: float) -> dict:
    """Share of one timed pass spent in the main layers."""
    return {
        "wsts.minimize+pred_loop": (metrics["wsts.minimize_s"]
                                    + metrics["wsts.pred_loop_s"]) / pass_s,
        "explicit+semantics": metrics["explicit.check_fixed_s"] / pass_s,
        "wellbehaved.certify": metrics["wellbehaved.certify_s"] / pass_s,
        "parse+validate+cli": (metrics["modelfile.parse_s"]
                               + metrics["model.validate_s"]
                               + metrics["cli.self_s"]) / pass_s,
    }
