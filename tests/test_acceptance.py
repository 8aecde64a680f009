"""End-to-end acceptance suite.

One test per published acceptance criterion; each prints a single
PASS/FAIL line (straight to the terminal, bypassing capture) and
enforces its runtime tolerance.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from collections import Counter

import pytest

from gspmc import semantics, wsts
from gspmc.cli import EXIT_CLEAN, EXIT_WITNESS, run
from gspmc.explicit import ReachQuery, check_fixed
from gspmc.wsts import COMPONENT_WISE, Ucs, Wqo, minimize

import _gen
import _oracle
from conftest import fixture_path

SMOKE = fixture_path("smoke_detector.json")
SMOKE_2SENDER = fixture_path("smoke_detector_2sender.json")
MUTANT = fixture_path("smoke_detector_mutant.json")
WITNESS = fixture_path("cutoff_witness.json")


def cli_json(*argv):
    out = io.StringIO()
    code = run([*argv, "--json"], out=out)
    return code, json.loads(out.getvalue())["result"]


@pytest.fixture
def report_line(capsys, request):
    lines = []

    def emit(ok: bool, detail: str):
        num = request.node.name.removeprefix("test_criterion_")
        lines.append((ok, f"[criterion {num}] "
                          f"{'PASS' if ok else 'FAIL'} — {detail}"))

    yield emit
    with capsys.disabled():
        for _, line in lines:
            print(line)
    assert all(ok for ok, _ in lines)


def test_criterion_1_quadratic_cutoff_witness(report_line):
    started = time.monotonic()
    code, res = cli_json("sweep", WITNESS, "--target", "s_E",
                         "--count", "1", "--max", "20")
    sweep_ok = code == EXIT_WITNESS and res["min_n"] == 16

    code15, res15 = cli_json("mc", WITNESS, "--n", "15")
    refuted = code15 == EXIT_CLEAN and res15["reachable"] is False

    code16, res16 = cli_json("mc", WITNESS, "--n", "16")
    steps = [t["action"] for t in (res16["trace"] or [])[1:]]
    confirmed = (code16 == EXIT_WITNESS and len(steps) == 16
                 and Counter(steps) == {"i": 1, "a": 14, "b": 1})

    elapsed = time.monotonic() - started
    ok = sweep_ok and refuted and confirmed and elapsed < 10
    report_line(ok, f"minimal n = {res['min_n']}, n=15 refuted, n=16 trace "
                    f"= 1xi + 14xa + 1xb in {len(steps)} steps "
                    f"({elapsed:.2f}s < 10s)")


def test_criterion_2_smoke_detector_safety(report_line):
    started = time.monotonic()
    unreachable = []
    for path in (SMOKE, SMOKE_2SENDER):
        code, res = cli_json("verify", path, "--target", "Report",
                             "--count", "3")
        unreachable.append(code == EXIT_CLEAN and res["reachable"] is False)

    code3, res3 = cli_json("mc", SMOKE, "--n", "3",
                           "--target", "Report", "--count", "3")
    code2, res2 = cli_json("mc", SMOKE, "--n", "2",
                           "--target", "Report", "--count", "2")
    elapsed = time.monotonic() - started
    ok = (all(unreachable) and code3 == EXIT_CLEAN
          and res3["reachable"] is False
          and code2 == EXIT_WITNESS and res2["reachable"] is True
          and elapsed < 5)
    report_line(ok, "three reporters unreachable for every n (both Choose "
                    f"variants), n=3 refuted, n=2 witnesses two reporters "
                    f"({elapsed:.2f}s < 5s)")


def test_criterion_3_certification_regression(report_line):
    started = time.monotonic()
    code, res = cli_json("certify", SMOKE)
    good = (code == EXIT_CLEAN and res["well_behaved"] is True
            and len(res["actions"]) == 5
            and all(a["status"] == "strong" for a in res["actions"]))

    code_m, res_m = cli_json("certify", MUTANT)
    choose = next(a for a in res_m["actions"] if a["action"] == "Choose")
    bad = (code_m == EXIT_WITNESS and res_m["well_behaved"] is False
           and any(v["condition"] == "C1" and v["guard"] == "G3"
                   for v in choose["violations"]))
    elapsed = time.monotonic() - started
    ok = good and bad and elapsed < 1
    report_line(ok, "smoke detector certifies (5 actions), mutant fails C1 "
                    f"on G3 ({elapsed:.3f}s < 1s)")


def test_criterion_4_cutoff_regression(report_line):
    started = time.monotonic()
    code, res = cli_json("cutoff", SMOKE, "--target", "Report", "--count", "3")
    smoke_ok = (code == EXIT_CLEAN and res["amenable"] is True
                and res["lemma"] == "L3" and res["cutoff"] == 3
                and res["holds"] is False)

    code_w, res_w = cli_json("cutoff", WITNESS)
    witness_ok = code_w == EXIT_CLEAN and res_w["amenable"] is False
    elapsed = time.monotonic() - started
    ok = smoke_ok and witness_ok and elapsed < 1
    report_line(ok, "smoke detector: L3 with cutoff 3; quadratic witness: "
                    f"NotAmenable ({elapsed:.3f}s < 1s)")


def test_criterion_5_oracle_equivalence(report_line):
    started = time.monotonic()
    rng = random.Random(0xACCE55)
    inconsistencies = 0
    checked = 0
    for i in range(200):
        if i % 2:
            p = _gen.random_protocol(rng, certified_only=True,
                                     require_guarded=True)
        else:
            p = _gen.unguarded_protocol(rng)
        target = rng.randrange(p.n_states)
        threshold = rng.randint(1, 2)
        verdict = wsts.decide(p, target, threshold)
        if verdict.reachable:
            if not check_fixed(p, ReachQuery(target, threshold,
                                             verdict.min_n)).reachable:
                inconsistencies += 1
            if verdict.min_n - 1 >= threshold and check_fixed(
                    p, ReachQuery(target, threshold,
                                  verdict.min_n - 1)).reachable:
                inconsistencies += 1
        else:
            for n in range(threshold, 9):
                if check_fixed(p, ReachQuery(target, threshold, n)).reachable:
                    inconsistencies += 1
                    break
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked >= 200 and inconsistencies == 0 and elapsed < 300
    report_line(ok, f"{checked} random protocols, parameterized verdicts vs "
                    f"forward search, {inconsistencies} inconsistencies "
                    f"({elapsed:.1f}s < 300s)")


def test_criterion_6_pred_basis_oracle(report_line):
    started = time.monotonic()
    rng = random.Random(0xBA515)
    discrepancies = 0
    instances = 0
    while instances < 100:
        n_states = 5 if instances % 5 == 4 else rng.randint(3, 4)
        p = _gen.random_protocol(rng, certified_only=False,
                                 max_states=n_states)
        if rng.random() < 0.5 or p.is_unguarded:
            wqo = COMPONENT_WISE
        else:
            wqo = wsts.guard_refined(p)
        b = tuple(rng.randint(0, 4) for _ in range(p.n_states))
        if not any(b):
            continue
        got = _oracle.pred_basis(p, wqo, Ucs(wqo, (b,))).basis
        oracle = _oracle.pairwise_minimize(
            wqo, _oracle.grid_predecessors(p, wqo, b, limit=6))
        if got != oracle:
            discrepancies += 1
        instances += 1
    elapsed = time.monotonic() - started
    ok = instances >= 100 and discrepancies == 0 and elapsed < 120
    report_line(ok, f"{instances} instances, backward step vs forward-fire "
                    f"grid oracle, {discrepancies} discrepancies "
                    f"({elapsed:.1f}s < 120s)")


def test_criterion_7_order_properties(report_line):
    started = time.monotonic()
    rng = random.Random(0x0811)

    def sample_wqo(n):
        if rng.random() < 0.5:
            return COMPONENT_WISE
        return Wqo(tuple(
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 3))))

    def sample_vec(n, limit=5):
        return tuple(rng.randint(0, limit) for _ in range(n))

    def grow(q):
        """A vector above q in every order: bump only occupied states."""
        supp = [s for s, c in enumerate(q) if c]
        out = list(q)
        for s in supp:
            out[s] += rng.randint(0, 3)
        return tuple(out)

    reflexive = transitive = idempotent = compatible = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        wqo = sample_wqo(n)
        q = sample_vec(n)
        reflexive += wqo.leq(q, q)

        a = sample_vec(n)
        b = grow(a)
        c = grow(b)
        transitive += (wqo.leq(a, b) and wqo.leq(b, c)
                       and wqo.leq(a, c))

        vs = [sample_vec(n, 3) for _ in range(rng.randint(0, 10))]
        basis = minimize(wqo, vs)
        idempotent += minimize(wqo, basis) == basis

    protocols = [_gen.unguarded_protocol(rng) for _ in range(25)]
    while compatible < 1000:
        p = rng.choice(protocols)
        q = sample_vec(p.n_states, 4)
        if sum(q) == 0:
            continue
        bigger = tuple(c + rng.randint(0, 3) for c in q)
        for a in p.actions:
            if not semantics.enabled(p, q, a):
                continue
            small = semantics.fire(p, q, a).successor
            assert semantics.enabled(p, bigger, a)
            large = semantics.fire(p, bigger, a).successor
            if COMPONENT_WISE.leq(small, large):
                compatible += 1

    elapsed = time.monotonic() - started
    ok = (reflexive == 1000 and transitive == 1000 and idempotent == 1000
          and compatible >= 1000)
    report_line(ok, f"reflexivity {reflexive}/1000, transitivity "
                    f"{transitive}/1000, minimize idempotence "
                    f"{idempotent}/1000, strong compatibility "
                    f"{compatible} firings ({elapsed:.1f}s)")


def test_criterion_8_documented_substitution(report_line):
    # The published cutoff table covers further case studies whose models
    # are not defined anywhere reproducible at desk scale; the randomized
    # suites above (criteria 5-7) substitute for them by agreement.
    report_line(True, "additional case-study models are out of scope by "
                      "design; randomized oracle suites substitute")
