from __future__ import annotations

import json
import random

import pytest

from gspmc.model import validate
from gspmc.wellbehaved import (
    InternalReach,
    StateOrder,
    Violation,
    certify,
    check_action,
    check_c3w,
)

import _gen
from conftest import fixture_path


def weak_sender_raw(guarded_escape: bool) -> dict:
    """Sender t's receiver B leaves GP but can drift to D internally;
    guarding that internal escape route breaks the weak condition."""
    guards = {"GP": ["C", "D"]}
    if guarded_escape:
        guards["GU"] = ["B", "D"]
    return {
        "states": ["A", "B", "C", "D"],
        "init": "A",
        "guards": guards,
        "actions": [
            {"name": "t", "kind": "sender", "sends": [["A", "C"]],
             "receives": [["A", "C"]]},
        ],
        "sugar": [
            {"type": "internal", "name": "w", "from": "C", "to": "D",
             "guard": "GP"},
            {"type": "internal", "name": "u", "from": "B", "to": "D",
             **({"guard": "GU"} if guarded_escape else {})},
            {"type": "internal", "name": "u2", "from": "A", "to": "D"},
        ],
    }


def entering_internal_raw(wide_guard: bool) -> dict:
    """Internal v: A -> C enters GC; its guard states need internal paths
    to C that stay enabled under the guard bound."""
    return {
        "states": ["A", "B", "C", "D"],
        "init": "A",
        "guards": {"GV": ["A", "B", "C"] if wide_guard else ["A", "B"],
                   "GC": ["C"]},
        "actions": [],
        "sugar": [
            {"type": "internal", "name": "v", "from": "A", "to": "C",
             "guard": "GV"},
            {"type": "internal", "name": "u", "from": "B", "to": "A"},
            {"type": "internal", "name": "g", "from": "C", "to": "C",
             "guard": "GC"},
        ],
    }


def note_fixture_raw() -> dict:
    """2-maximal m sends into both G1 and G2; receiver E can reach a
    state below the in-guard destination but below no common one."""
    return {
        "states": ["A", "B", "C", "D", "E"],
        "init": "A",
        "guards": {"G1": ["C"], "G2": ["D"]},
        "actions": [
            {"name": "m", "kind": "maximal",
             "sends": [["A", "C"], ["B", "D"]], "receives": [["E", "A"]]},
        ],
        "sugar": [
            {"type": "internal", "name": "esc", "from": "A", "to": "C"},
            {"type": "internal", "name": "g1", "from": "C", "to": "C",
             "guard": "G1"},
            {"type": "internal", "name": "g2", "from": "D", "to": "D",
             "guard": "G2"},
        ],
    }


def strong(protocol, name):
    return check_action(protocol, protocol.action(name), weak=False)


def weak(protocol, name):
    return check_action(protocol, protocol.action(name), weak=True)


class TestStateOrder:
    def test_smoke_examples(self, smoke):
        order = StateOrder(smoke)
        idx = smoke.state_index
        # every guard holding Pick (only G2) also holds Idle
        assert order.below(idx("Idle"), idx("Pick"))
        assert not order.below(idx("Pick"), idx("Idle"))  # G3 splits them
        # Env and Ask appear in exactly the same guards
        assert order.below(idx("Env"), idx("Ask"))
        assert order.below(idx("Ask"), idx("Env"))
        assert order.below(idx("Idle"), idx("Report"))
        assert not order.below(idx("Report"), idx("Idle"))

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            p = _gen.random_protocol(rng, certified_only=False,
                                     require_guarded=True)
            order = StateOrder(p)
            guards = [g.members for g in p.used_guards()]
            for t in range(p.n_states):
                for s in range(p.n_states):
                    expected = all(t in g for g in guards if s in g)
                    assert order.below(t, s) == expected

    def test_below_set(self, smoke):
        order = StateOrder(smoke)
        idx = smoke.state_index
        assert order.below_set(idx("Idle"), {idx("Pick")})
        assert not order.below_set(idx("Env"), {idx("Pick")})
        # no guard contains both Env and Report: vacuously below
        assert all(order.below_set(s, {idx("Env"), idx("Report")})
                   for s in range(smoke.n_states))

    def test_unguarded_order_is_total(self):
        p = _gen.unguarded_protocol(random.Random(3))
        order = StateOrder(p)
        assert all(order.below(t, s)
                   for t in range(p.n_states) for s in range(p.n_states))


class TestInternalReach:
    def test_smoke_guarded_only(self, smoke):
        reach = InternalReach(smoke)
        env, ask = smoke.state_index("Env"), smoke.state_index("Ask")
        # the only internal step is guarded by G1, so the unguarded
        # closure is the identity
        assert not reach.unguarded(env, ask)
        assert reach.unguarded(env, env)
        assert reach.guarded(env, ask, {env, ask})
        assert not reach.guarded(ask, env, {env, ask})

    def test_multi_step_closure(self):
        p = validate(weak_sender_raw(guarded_escape=False))
        reach = InternalReach(p)
        idx = p.state_index
        # B -> D directly; A -> D directly; nothing reaches C unguarded
        assert reach.unguarded(idx("B"), idx("D"))
        assert reach.unguarded(idx("A"), idx("D"))
        assert not reach.unguarded(idx("A"), idx("C"))
        # under bound {C, D} the guarded step C -> D becomes usable
        assert reach.guarded(idx("C"), idx("D"), {idx("C"), idx("D")})


class TestStrongConditions:
    def test_smoke_all_strong(self, smoke):
        for name, condition in (("Smoke", "C1"), ("Choose", "C2.1∧C2.2"),
                                ("i", "C1"), ("Reset#1", "C1")):
            res = strong(smoke, name)
            assert res.ok and res.condition == condition

    def test_kind_preconditions(self, smoke):
        with pytest.raises(ValueError, match="internal"):
            check_c3w(smoke, smoke.action("Smoke"))

    def test_mutant_c1_violation(self, smoke_mutant):
        res = strong(smoke_mutant, "Choose")
        assert not res.ok
        assert Violation(
            "C1", "G3", ("Pick", "Env"),
            "receiver Pick leaves G3 while all send destinations lie "
            "inside it") in res.violations
        assert {v.guard for v in res.violations} == {"G3"}

    def test_maximal_violations(self, smoke):
        # graft a 2-maximal whose non-sender receiver Env->Env stays
        # outside G3 although a send enters it
        p = validate(_smoke_raw_with_grab())
        res = strong(p, "Grab")
        assert not res.ok
        got = {(v.condition, v.guard, v.transition) for v in res.violations}
        assert got == {
            ("C2.1", "G3", ("Env", "Env")),
            ("C2.1", "G3", ("Ask", "Ask")),
            ("C2.2", "G3", ("Pick", "Env")),
        }

    def test_arity_one_kinds_agree(self):
        rng = random.Random(2024)
        compared = 0
        for _ in range(40):
            raw = _gen.random_raw(rng)
            for entry in raw["actions"]:
                if len(entry["sends"]) != 1:
                    continue
                oks = []
                for kind in ("sender", "maximal"):
                    entry["kind"] = kind
                    p = validate(raw)
                    oks.append(strong(p, entry["name"]).ok)
                assert oks[0] == oks[1]
                compared += 1
        assert compared >= 20


def _smoke_raw_with_grab() -> dict:
    with open(fixture_path("smoke_detector.json")) as fh:
        raw = json.load(fh)
    raw["actions"].append({
        "name": "Grab", "kind": "maximal",
        "sends": [["Pick", "Report"], ["Idle", "Report"]],
        "receives": [["Pick", "Env"]],
    })
    return raw


class TestWeakConditions:
    def test_sender_escape_route(self):
        p = validate(weak_sender_raw(guarded_escape=False))
        assert not strong(p, "t").ok  # receiver B stays outside GP
        res = weak(p, "t")
        assert res.ok and res.condition == "C1w"

    def test_guarding_the_escape_breaks_it(self):
        p = validate(weak_sender_raw(guarded_escape=True))
        res = weak(p, "t")
        assert not res.ok
        assert any(v.condition == "C1w" and v.guard == "GP"
                   and v.transition == ("B", "B") for v in res.violations)

    def test_all_destinations_reading_note(self):
        p = validate(note_fixture_raw())
        res = weak(p, "m")
        assert not res.ok
        assert res.condition == "C2.1w∧C2.2w"
        assert any(v.condition == "C2.1w" and v.guard == "G1"
                   and v.transition == ("E", "A") for v in res.violations)
        notes = [n for n in res.notes if "receiver E" in n]
        assert notes == ["m/G1: C2.1w fails only under the "
                         "all-destinations reading (receiver E)"]

    def test_note_surfaces_in_report(self):
        report = certify(validate(note_fixture_raw()))
        assert not report.well_behaved
        assert any("all-destinations reading" in n for n in report.notes)

    def test_strong_implies_weak(self):
        rng = random.Random(606)
        for _ in range(40):
            p = _gen.random_protocol(rng, certified_only=False,
                                     require_guarded=True)
            for a in p.actions:
                if check_action(p, a, weak=False).ok:
                    assert check_action(p, a, weak=True).ok, (
                        p.state_names, a.name)


class TestEnteringInternal:
    def test_guard_bound_path_exists(self):
        p = validate(entering_internal_raw(wide_guard=True))
        res = check_c3w(p, p.action("v"))
        assert res.ok

    def test_narrow_guard_blocks_the_path(self):
        p = validate(entering_internal_raw(wide_guard=False))
        res = check_c3w(p, p.action("v"))
        assert not res.ok
        assert {v.transition for v in res.violations} == {("A", "C")}
        assert {v.guard for v in res.violations} == {"GC"}
        details = sorted(v.detail for v in res.violations)
        assert "state A" in details[0] and "state B" in details[1]

    def test_self_loop_entering_nothing(self):
        p = validate(entering_internal_raw(wide_guard=True))
        assert check_c3w(p, p.action("g")).ok  # src == dst never enters a guard


class TestCertify:
    def test_smoke_report(self, smoke):
        report = certify(smoke)
        assert report.well_behaved
        got = {(s.action, s.status, s.condition) for s in report.actions}
        assert got == {
            ("Smoke", "strong", "C1"),
            ("Choose", "strong", "C2.1∧C2.2"),
            ("i", "strong", "C1"),
            ("Reset#1", "strong", "C1"),
            ("Reset#2", "strong", "C1"),
        }

    def test_two_sender_variant(self, smoke_2sender):
        report = certify(smoke_2sender)
        assert report.well_behaved
        assert all(s.status == "strong" for s in report.actions)

    def test_mutant_fails(self, smoke_mutant):
        report = certify(smoke_mutant)
        assert not report.well_behaved
        bad = {s.action: s for s in report.actions}["Choose"]
        assert bad.status == "violation" and bad.condition is None
        assert any(v.condition == "C1" and v.guard == "G3"
                   and v.transition == ("Pick", "Env")
                   for v in bad.violations)

    def test_weak_fixture_statuses(self):
        report = certify(validate(weak_sender_raw(guarded_escape=False)))
        assert report.well_behaved
        by_name = {s.action: s for s in report.actions}
        assert by_name["t"].status == "weak"
        assert by_name["t"].condition == "C1w"
        assert by_name["w"].status == "strong"

    def test_entering_internal_statuses(self):
        report = certify(validate(entering_internal_raw(wide_guard=True)))
        assert report.well_behaved
        by_name = {s.action: s for s in report.actions}
        assert by_name["v"].status == "weak"
        assert by_name["v"].condition == "C3w"

        report = certify(validate(entering_internal_raw(wide_guard=False)))
        assert not report.well_behaved

    def test_unguarded_always_certifies(self):
        p = _gen.unguarded_protocol(random.Random(8))
        report = certify(p)
        assert report.well_behaved
        assert all(s.status == "strong" for s in report.actions)
