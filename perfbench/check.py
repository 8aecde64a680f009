"""Verdict checker, run after the timed passes.

Each verdict is judged against a value known from the construction of
its protocol, or against the explicit engine (BFS at fixed sizes), which
is a different engine from the backward fixpoint behind ``verify`` and
from the lemmas behind ``cutoff``:

- ``verify`` reachable with ``min_n``: BFS reaches the target at
  ``min_n`` and not at ``min_n - 1``;
- ``verify`` unreachable: BFS reaches nothing for n up to a stated bound;
- ``cutoff`` with a lemma: BFS at cutoff, cutoff+1 and cutoff+2 agrees
  with the lifted verdict;
- ring-family and internal-ring answers follow from their construction.

A disagreement with BFS is also classified against the two engine
disagreements known at the commit that introduced the benchmark. Every
other failure (a crash, an unexpected exit code, a wrong certification
or construction value, a disagreement the known cases do not cover) is
``unexplained``.
"""

from __future__ import annotations

from dataclasses import dataclass

import protocols

EXIT_CLEAN, EXIT_WITNESS, EXIT_ERROR = 0, 1, 2
UNREACHABLE_SPAN = 3  # "unreachable" is confirmed by BFS for n in count..count+3
BFS_BUDGET = 200_000  # configurations per reference BFS

# Failure causes. The first two are the disagreements known when the
# benchmark was written: a maximal action with send slots that share a
# source but not a destination, whose participation the forward and
# backward engines read differently, and lemma L3 declaring a cutoff
# that BFS above the cutoff contradicts.
KNOWN_MAXIMAL = "maximal-slots"
KNOWN_L3 = "lemma-L3"
UNEXPLAINED = "unexplained"


@dataclass
class Failure:
    qid: str
    model: str
    detail: str
    cause: str


class Checker:
    """Judges one pass of outcomes; BFS results are cached per query."""

    def __init__(self, gspmc):
        self.g = gspmc
        self.protocols = {}
        self.bfs_cache = {}
        self.unchecked = []
        self.certified = {}

    def protocol(self, path):
        if path not in self.protocols:
            mf = self.g.modelfile.parse_model(path)
            self.protocols[path] = (self.g.model.validate(mf.raw),
                                    mf.property_block)
        return self.protocols[path]

    def reaches(self, q, target, count, n):
        """BFS verdict at size n; None, noted as unchecked, over budget."""
        key = (q.model, target, count, n)
        if key not in self.bfs_cache:
            p, _ = self.protocol(q.model)
            explicit = self.g.explicit
            try:
                self.bfs_cache[key] = explicit.check_fixed(
                    p, explicit.ReachQuery(p.state_index(target), count, n),
                    state_budget=BFS_BUDGET).reachable
            except explicit.StateBudgetExceeded:
                self.bfs_cache[key] = None
        if self.bfs_cache[key] is None:
            self.unchecked.append(f"{q.qid} at n={n}")
        return self.bfs_cache[key]

    def run(self, queries, outcomes) -> list[Failure]:
        """Return every failure among ``outcomes`` (code, report) per query.

        Certify verdicts are read first because they decide whether a
        ``verify`` refusal was expected.
        """
        order = sorted(range(len(queries)),
                       key=lambda i: queries[i].expect.get("cmd") != "certify")
        failures = []
        for i in order:
            q = queries[i]
            code, report = outcomes[i]
            problem = self.judge(q, code, report)
            if problem:
                detail, cause = (problem if isinstance(problem, tuple)
                                 else (problem, UNEXPLAINED))
                failures.append(Failure(q.qid, q.model, detail, cause))
        return failures

    def judge(self, q, code, report):
        """What is wrong, or None.

        A one-line description, or ``(description, cause)`` for a
        disagreement with BFS that a known engine disagreement explains.
        """
        if not isinstance(code, int):
            return code  # cli.run raised instead of returning an exit code
        if code == EXIT_ERROR:
            if (q.expect.get("cmd") == "verify"
                    and self.certified.get(q.model) is False):
                return None  # refusal of an uncertified protocol, expected
            return "exit 2 where no refusal was expected"
        if report is None:
            return f"exit {code} without a JSON report"
        kind = q.expect["kind"]
        res = report["result"]
        if kind == "ring":
            return self.judge_ring(q, code, res)
        if kind == "internal-ring":
            return self.judge_internal(q, code, res)
        return self.judge_mix(q, code, res)

    def judge_ring(self, q, code, res):
        e = q.expect
        k, m, clocks, count = e["k"], e["m"], e["clocks"], e["count"]
        min_n = protocols.ring_min_n(k, m, clocks, count)
        steps = protocols.ring_trace_steps(k, m)
        cmd = e.get("cmd", "verify")
        if cmd == "verify":
            if res["min_n"] != min_n:
                return f"verify min_n={res['min_n']}, construction gives {min_n}"
            return (self.confirm_min_n(q, e["target"], count, min_n)
                    or self.exit_agrees(code, res["reachable"]))
        if cmd == "mc":
            reach = min_n is not None and e["size"] >= min_n
            if res["reachable"] != reach:
                return f"mc n={e['size']} reachable={res['reachable']}, expected {reach}"
            if reach and len(res["trace"]) - 1 != steps:
                return f"trace of {len(res['trace']) - 1} steps, expected {steps}"
            return self.exit_agrees(code, reach)
        found = min_n is not None and min_n <= e["size"]
        if res["found"] != found or (found and res["min_n"] != min_n):
            return f"sweep min_n={res['min_n']}, construction gives {min_n}"
        return self.exit_agrees(code, found)

    def judge_internal(self, q, code, res):
        e = q.expect
        reach = e["pos"] is not None
        steps = e["count"] * e["pos"] if reach else None
        if e["cmd"] == "mc":
            if res["reachable"] != reach:
                return f"mc reachable={res['reachable']}, expected {reach}"
            if reach and len(res["trace"]) - 1 != steps:
                return f"trace of {len(res['trace']) - 1} steps, expected {steps}"
            configs = protocols.internal_ring_configs(e["length"], e["size"])
            if not reach and res["explored"] != configs:
                return f"explored {res['explored']} configurations, expected {configs}"
            return self.exit_agrees(code, reach)
        if res["found"] != reach or (reach and res["min_n"] != e["count"]):
            return f"sweep min_n={res['min_n']}, expected {e['count'] if reach else None}"
        if reach and len(res["trace"]) - 1 != steps:
            return f"trace of {len(res['trace']) - 1} steps, expected {steps}"
        return self.exit_agrees(code, reach)

    def judge_mix(self, q, code, res):
        cmd = q.expect["cmd"]
        p, prop = self.protocol(q.model)
        if cmd == "certify":
            ok = res["well_behaved"]
            self.certified[q.model] = ok
            if p.is_unguarded and not ok:
                return "unguarded protocol reported not well-behaved"
            return self.exit_agrees(code, not ok)
        certified = self.certified.get(q.model)
        if certified is None:
            return "no certify verdict to judge against"
        target, count = prop["target"], int(prop["count"])
        if cmd == "verify":
            if not certified:
                return "verify answered on a protocol that failed certification"
            problem = self.confirm_min_n(q, target, count, res["min_n"])
            if problem:
                return problem, (KNOWN_MAXIMAL if shared_source_slots(p)
                                 else UNEXPLAINED)
            return self.exit_agrees(code, res["reachable"])
        if not certified:
            if res["amenable"]:
                return "cutoff lemma applied to an uncertified protocol"
            return self.exit_agrees(code, False)
        if not res["amenable"]:
            return self.exit_agrees(code, False)
        cut, holds = res["cutoff"], res["holds"]
        for n in range(cut, cut + 3):
            if self.reaches(q, target, count, n) is (not holds):
                return (f"cutoff {cut} by {res['lemma']} says holds={holds}, "
                        f"BFS at n={n} says {not holds}",
                        KNOWN_L3 if res["lemma"] == "L3" else UNEXPLAINED)
        return self.exit_agrees(code, holds)

    def confirm_min_n(self, q, target, count, min_n):
        if min_n is not None:
            if self.reaches(q, target, count, min_n) is False:
                return f"verify min_n={min_n}, BFS at n={min_n} does not reach"
            if (min_n - 1 >= count
                    and self.reaches(q, target, count, min_n - 1) is True):
                return f"verify min_n={min_n}, BFS at n={min_n - 1} reaches"
            return None
        for n in range(count, count + UNREACHABLE_SPAN + 1):
            if self.reaches(q, target, count, n) is True:
                return f"verify says unreachable, BFS at n={n} reaches"
        return None

    @staticmethod
    def exit_agrees(code, witness):
        want = EXIT_WITNESS if witness else EXIT_CLEAN
        return None if code == want else f"exit {code}, expected {want}"


def shared_source_slots(p) -> bool:
    """Whether a maximal action has send slots that share a source but
    not a destination."""
    for a in p.actions:
        if a.kind != "maximal":
            continue
        dests = {}
        for s in a.sends:
            dests.setdefault(s.src, set()).add(s.dst)
        if any(len(d) > 1 for d in dests.values()):
            return True
    return False
