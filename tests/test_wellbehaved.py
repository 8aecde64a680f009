from __future__ import annotations

import functools
import json
import random

import pytest

from gspmc import wellbehaved
from gspmc.model import is_internal, validate
from gspmc.wellbehaved import (
    InternalReach,
    StateOrder,
    Violation,
    certify,
)

import _gen
import _oracle
from conftest import chain_raw, fixture_path, load_fixture, perfbench_protocols


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


def status(protocol, name):
    """The certify report's entry for one action."""
    return {s.action: s for s in certify(protocol).actions}[name]


FIXTURES = ("smoke_detector.json", "smoke_detector_2sender.json",
            "smoke_detector_mutant.json", "cutoff_witness.json")


def check_state_order(p):
    """``below`` equals the reference matrix on every pair of states, and
    ``below_common`` its reference on every state and every destination
    set of an action, of one state, and the empty set."""
    order = StateOrder(p)
    n = p.n_states
    assert [[order.below(t, s) for s in range(n)]
            for t in range(n)] == _oracle.state_order_matrix(p)
    dest_sets = [(), *((s,) for s in range(n)),
                 *({send.dst for send in a.sends} for a in p.actions)]
    for dests in dest_sets:
        common = order.below_common(dests)
        for t in range(n):
            assert (bool(common >> t & 1)
                    == _oracle.state_order_below_set(p, t, dests)), (t, dests)


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
            check_state_order(p)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_matrix(self, name):
        check_state_order(load_fixture(name))

    def test_benchmark_corpus_matches_matrix(self):
        protocols = perfbench_protocols()
        for i in range(200):
            check_state_order(validate(protocols.random_model(
                random.Random(f"guarded-mix-{i}"))))

    def test_below_set(self, smoke):
        order = StateOrder(smoke)
        idx = smoke.state_index
        assert order.below_common({idx("Pick")}) >> idx("Idle") & 1
        assert not order.below_common({idx("Pick")}) >> idx("Env") & 1
        # no guard contains both Env and Report: vacuously below
        assert (order.below_common({idx("Env"), idx("Report")})
                == (1 << smoke.n_states) - 1)

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
        assert reach.unguarded_masks == [1 << s for s in range(smoke.n_states)]
        bounded = reach.closure(frozenset({env, ask}))
        assert bounded[env] >> ask & 1
        assert not bounded[ask] >> env & 1

    def test_multi_step_closure(self):
        p = validate(weak_sender_raw(guarded_escape=False))
        reach = InternalReach(p)
        idx = p.state_index
        free = reach.unguarded_masks
        # B -> D directly; A -> D directly; nothing reaches C unguarded
        assert free[idx("B")] >> idx("D") & 1
        assert free[idx("A")] >> idx("D") & 1
        assert not free[idx("A")] >> idx("C") & 1
        # under bound {C, D} the guarded step C -> D becomes usable
        bounded = reach.closure(frozenset({idx("C"), idx("D")}))
        assert bounded[idx("C")] >> idx("D") & 1

    def test_closure_matches_oracle(self, monkeypatch):
        # the all-states bound, the bound C3w builds for every internal
        # action, and every bound ``certify`` asks for, each asked twice
        # (the repeat calls a cache would serve)
        asked = []
        closure = InternalReach.closure

        def recorded(self, bound):
            asked.append(bound)
            return closure(self, bound)
        monkeypatch.setattr(InternalReach, "closure", recorded)
        rng = random.Random(3300)
        random_model = perfbench_protocols().random_model
        protocols = [load_fixture(name) for name in FIXTURES]
        for i in range(200):
            protocols.append(_gen.random_protocol(rng, certified_only=False))
            protocols.append(validate(random_model(random.Random(f"reach-{i}"))))
        c3w = 0
        for p in protocols:
            asked.clear()
            certify(p)
            bounds = {frozenset(range(p.n_states)), *asked}
            c3w += max(len(asked) - 1, 0)
            order = StateOrder(p)
            for a in p.actions:
                if is_internal(a):
                    below = order.below_each((a.sends[0].dst,))
                    bounds.add(a.guard.members.union(
                        t for t in range(p.n_states) if below >> t & 1))
            reach = InternalReach(p)
            for bound in bounds:
                want = [sum(1 << t for t in seen)
                        for seen in _oracle.internal_reach(p, bound)]
                assert reach.closure(bound) == want, (p.state_names, bound)
                assert reach.closure(bound) == want, (p.state_names, bound)
        assert c3w  # certify asked for some C3w bound


class TestStrongConditions:
    def test_smoke_all_strong(self, smoke):
        for name, condition in (("Smoke", "C1"), ("Choose", "C2.1∧C2.2"),
                                ("i", "C1"), ("Reset#1", "C1")):
            res = status(smoke, name)
            assert res.status == "strong" and res.condition == condition

    def test_mutant_c1_violation(self, smoke_mutant):
        res = status(smoke_mutant, "Choose")
        assert res.status == "violation"
        assert Violation(
            "C1", "G3", ("Pick", "Env"),
            "receiver Pick leaves G3 while all send destinations lie "
            "inside it") in res.violations
        assert {v.guard for v in res.violations} == {"G3"}

    def test_maximal_violations(self, smoke):
        # graft a 2-maximal whose non-sender receiver Env->Env stays
        # outside G3 although a send enters it
        p = validate(_smoke_raw_with_grab())
        res = status(p, "Grab")
        assert res.status == "violation"
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
                    oks.append(status(p, entry["name"]).status == "strong")
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
        # receiver B stays outside GP, but drifts to D unguarded
        p = validate(weak_sender_raw(guarded_escape=False))
        res = status(p, "t")
        assert res.status == "weak" and res.condition == "C1w"

    def test_guarding_the_escape_breaks_it(self):
        p = validate(weak_sender_raw(guarded_escape=True))
        res = status(p, "t")
        assert res.status == "violation"
        assert any(v.condition == "C1" and v.guard == "GP"
                   and v.transition == ("B", "B") for v in res.violations)

    def test_sender_escape_below_the_common_guards(self):
        """C1w's escape target need only be in every guard holding all the
        send destinations (GBC), not in each guard holding one (GB)."""
        p = validate({
            "states": ["A", "B", "C", "S", "T", "X"], "init": "A",
            "guards": {"GBC": ["B", "C", "S"], "GB": ["B", "X"]},
            "actions": [{"name": "t", "kind": "sender",
                         "sends": [["A", "B"], ["A", "C"]],
                         "receives": [["A", "B"], ["X", "S"]]}],
            "sugar": [{"type": "internal", "name": "u", "from": "T", "to": "S"},
                      {"type": "internal", "name": "v", "from": "X", "to": "B",
                       "guard": "GB"},
                      {"type": "internal", "name": "w", "from": "C", "to": "S",
                       "guard": "GBC"}]})
        res = status(p, "t")
        assert res.status == "weak" and res.condition == "C1w"
        assert _oracle.check_action(p, p.action("t"), weak=True).ok
        assert not _oracle.check_action(p, p.action("t"), weak=False).ok

    def test_source_receive_escape_below_its_own_send(self):
        """C2.2w forgives the receive of sender source D when it drifts
        below D's own destination C (into G1), though not below B (G2)."""
        p = validate({
            "states": ["A", "D", "B", "C", "S", "T"], "init": "A",
            "guards": {"G1": ["B", "C", "S"], "G2": ["A", "B"]},
            "actions": [{"name": "m", "kind": "maximal",
                         "sends": [["A", "B"], ["D", "C"]],
                         "receives": [["A", "B"], ["D", "T"], ["C", "B"],
                                      ["S", "B"], ["T", "B"]]}],
            "sugar": [{"type": "internal", "name": "u", "from": "T", "to": "S"},
                      {"type": "internal", "name": "v", "from": "S", "to": "C",
                       "guard": "G1"},
                      {"type": "internal", "name": "w", "from": "A", "to": "B",
                       "guard": "G2"}]})
        res = status(p, "m")
        assert res.status == "weak" and res.condition == "C2.1w∧C2.2w"
        assert certify(p) == _oracle.two_pass_certify(p)

    def test_note_reads_each_destination_inside_the_guard(self):
        """No note when the receiver's drift target S lies in the guard G1
        common to both destinations but not in G2, which holds only B."""
        p = validate({
            "states": ["A", "B", "C", "R", "S", "T"], "init": "A",
            "guards": {"G1": ["B", "C", "S"], "G2": ["B", "R"]},
            "actions": [{"name": "n", "kind": "maximal",
                         "sends": [["A", "B"], ["A", "C"]],
                         "receives": [["R", "T"]]}],
            "sugar": [{"type": "internal", "name": "u", "from": "T", "to": "S"},
                      {"type": "internal", "name": "v", "from": "S", "to": "C",
                       "guard": "G1"},
                      {"type": "internal", "name": "w", "from": "R", "to": "B",
                       "guard": "G2"}]})
        res = status(p, "n")
        assert res.status == "violation" and res.notes == ()
        assert any(v.condition == "C2.1" and v.guard == "G1"
                   and v.transition == ("R", "T") for v in res.violations)
        assert certify(p) == _oracle.two_pass_certify(p)

    def test_all_destinations_reading_note(self):
        res = status(validate(note_fixture_raw()), "m")
        assert res.status == "violation"
        assert any(v.condition == "C2.1" and v.guard == "G1"
                   and v.transition == ("E", "A") for v in res.violations)
        notes = [n for n in res.notes if "receiver E" in n]
        assert notes == ["m/G1: C2.1w fails only under the "
                         "all-destinations reading (receiver E)"]

    def test_note_surfaces_in_report(self):
        report = certify(validate(note_fixture_raw()))
        assert not report.well_behaved
        assert ["m/G1: C2.1w fails only under the all-destinations "
                "reading (receiver E)"] == [
                    n for n in report.notes if "receiver E" in n]

    def test_strong_implies_weak(self):
        # an action passing the strong conditions is reported strong,
        # never weak or in violation, and passes the weak ones too
        rng = random.Random(606)
        for _ in range(40):
            p = _gen.random_protocol(rng, certified_only=False,
                                     require_guarded=True)
            by_name = {s.action: s for s in certify(p).actions}
            for a in p.actions:
                if _oracle.check_action(p, a, weak=False).ok:
                    assert by_name[a.name].status == "strong", (
                        p.state_names, a.name)
                    assert _oracle.check_action(p, a, weak=True).ok


class TestEnteringInternal:
    def test_guard_bound_path_exists(self):
        p = validate(entering_internal_raw(wide_guard=True))
        res = status(p, "v")
        assert res.status == "weak" and res.condition == "C3w"

    def test_narrow_guard_blocks_the_path(self):
        # B's internal step to A leaves the bound GV | {C}: neither guard
        # state reaches C, and the report cites v's strong C1 failures
        p = validate(entering_internal_raw(wide_guard=False))
        res = status(p, "v")
        assert res.status == "violation" and res.condition is None
        assert {(v.condition, v.guard, v.transition)
                for v in res.violations} == {("C1", "GC", ("A", "A")),
                                             ("C1", "GC", ("B", "B"))}

    def test_self_loop_entering_nothing(self):
        for wide in (True, False):
            p = validate(entering_internal_raw(wide_guard=wide))
            res = status(p, "g")  # src == dst never leaves or enters a guard
            assert res.status == "strong" and res.condition == "C1"


@functools.cache
def certify_corpus() -> tuple:
    """The fixtures, the hand-written protocols of this module and seeded
    random corpora: 1,640 random protocols, guarded and not; 1,650 in all."""
    protocols = [load_fixture(name) for name in FIXTURES]
    protocols += [validate(raw) for raw in (
        _smoke_raw_with_grab(), note_fixture_raw(),
        *(weak_sender_raw(flag) for flag in (True, False)),
        *(entering_internal_raw(flag) for flag in (True, False)))]
    rng = random.Random(606)
    protocols += [_gen.random_protocol(rng, certified_only=False,
                                       require_guarded=True)
                  for _ in range(40)]
    protocols += [_gen.random_protocol(
        random.Random(3000 + i), certified_only=False,
        require_guarded=True, max_states=6) for i in range(600)]
    protocols += [_gen.random_protocol(random.Random(5000 + i),
                                       certified_only=False)
                  for i in range(400)]
    random_model = perfbench_protocols().random_model
    protocols += [validate(random_model(random.Random(f"id-{i}")))
                  for i in range(600)]
    return tuple(protocols)


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

    def test_unguarded_builds_no_reach(self, monkeypatch):
        # every condition quantifies over the used guards, so with none
        # no action can fail and the internal reach is never needed
        def refuse(protocol):
            raise AssertionError("InternalReach built without a used guard")
        monkeypatch.setattr(wellbehaved, "InternalReach", refuse)
        for p in (validate(chain_raw(200)),
                  _gen.unguarded_protocol(random.Random(8))):
            report = certify(p)
            assert report.well_behaved and not report.notes
            assert all(s.status == "strong" for s in report.actions)
            assert certify(p, verdict_only=True)

    def test_builds_order_and_reach_once(self, monkeypatch):
        # the walk and the C3w check of every action share them
        built = []
        for cls in (StateOrder, InternalReach):
            class Counted(cls):
                def __init__(self, protocol, name=cls.__name__):
                    built.append(name)
                    super().__init__(protocol)
            monkeypatch.setattr(wellbehaved, cls.__name__, Counted)
        report = certify(validate(entering_internal_raw(wide_guard=True)))
        assert {s.condition for s in report.actions} >= {"C3w"}
        assert sorted(built) == ["InternalReach", "StateOrder"]

    def test_matches_two_pass_oracle(self):
        """Field-by-field the same report as the strong walk, weak walk
        and C3w check run one after the other, on the fixtures, the
        hand-written protocols and seeded random corpora."""
        statuses = set()
        for p in certify_corpus():
            report, oracle = certify(p), _oracle.two_pass_certify(p)
            assert report.well_behaved == oracle.well_behaved
            assert report.notes == oracle.notes
            assert report.actions == oracle.actions, p.state_names
            statuses.update((s.status, s.condition) for s in report.actions)
        # the corpus reaches every outcome of the walk
        assert {("weak", "C1w"), ("weak", "C2.1w∧C2.2w"), ("weak", "C3w"),
                ("violation", None)} <= statuses

    def test_verdict_only_matches_report(self):
        """The walk that stops at the first violation gives the full
        report's flag on the whole oracle corpus, both ways."""
        verdicts = [certify(p, verdict_only=True) for p in certify_corpus()]
        assert verdicts == [certify(p).well_behaved for p in certify_corpus()]
        assert True in verdicts and False in verdicts
