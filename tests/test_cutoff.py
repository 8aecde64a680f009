from __future__ import annotations

import random

import pytest

from gspmc import wellbehaved
from gspmc.cutoff import (
    FREE_INTERNAL,
    FREE_NEGOTIATION,
    FREE_SEND,
    PathBudgetExceeded,
    certified_cutoff_check,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    classify_free,
)
from gspmc.explicit import ReachQuery, check_fixed
from gspmc.model import is_internal, validate
from gspmc.wsts import decide

import _gen
from conftest import chain_raw, perfbench_protocols


def edge_table(protocol):
    return {
        (e.action, e.role, e.src, e.dst, e.index): (e.free, e.reason)
        for e in classify_free(protocol)}


def negotiation_only_raw() -> dict:
    return {
        "states": ["A", "B", "C"],
        "init": "A",
        "guards": {},
        "actions": [],
        "sugar": [
            {"type": "negotiation", "name": "N", "map": [["A", "B"]]},
            {"type": "internal", "name": "i", "from": "B", "to": "A"},
        ],
    }


def offside_sync_raw() -> dict:
    """Free straight line A -> B -> C; the only non-free action lives on
    states unreachable from the initial one."""
    return {
        "states": ["A", "B", "C", "X", "Y"],
        "init": "A",
        "guards": {},
        "actions": [
            {"name": "sync", "kind": "sender",
             "sends": [["X", "Y"], ["X", "Y"]]},
        ],
        "sugar": [
            {"type": "internal", "name": "s1", "from": "A", "to": "B"},
            {"type": "internal", "name": "s2", "from": "B", "to": "C"},
        ],
    }


def detour_raw(variant: str) -> dict:
    """Path A -> B -> T; the broadcast on the first hop knocks B into X.

    Variants shape what happens in X: "sink" strands the process,
    "cycle" spins it off-path forever, "recover" returns it internally,
    "diamond" returns it along two off-path branches that meet again,
    and "dodge" lets B itself move back onto the path first.
    """
    states = ["A", "B", "T", "X"] + (["Y"] if variant == "cycle" else [])
    sugar = []
    if variant == "diamond":
        states += ["Y1", "Y2", "Z"]
        sugar += [{"type": "internal", "name": f"{a}{b}", "from": a, "to": b}
                  for a, b in [("X", "Y1"), ("X", "Y2"), ("Y1", "Z"),
                               ("Y2", "Z"), ("Z", "T")]]
    if variant == "dodge":
        sugar.append({"type": "internal", "name": "dodge",
                      "from": "B", "to": "T"})
    if variant == "recover":
        sugar.append({"type": "internal", "name": "back",
                      "from": "X", "to": "T"})
    if variant == "cycle":
        sugar.append({"type": "internal", "name": "spin1",
                      "from": "X", "to": "Y"})
        sugar.append({"type": "internal", "name": "spin2",
                      "from": "Y", "to": "X"})
    return {
        "states": states,
        "init": "A",
        "guards": {},
        "actions": [
            {"name": "go", "kind": "sender", "sends": [["A", "B"]],
             "receives": [["B", "X"]]},
            {"name": "fin", "kind": "sender", "sends": [["B", "T"]],
             "receives": [["A", "B"]]},
        ],
        "sugar": sugar,
    }


def long_detour_raw(length: int, back: str) -> dict:
    """:func:`detour_raw`'s path, whose broadcast knocks B into a chain of
    ``length`` off-path states X0 -> X1 -> ...; the last one moves
    internally to ``back``: T recovers, X0 closes an off-path cycle."""
    raw = detour_raw("sink")
    xs = [f"X{i}" for i in range(length)]
    raw["states"] = ["A", "B", "T", *xs]
    raw["actions"][0]["receives"] = [["B", "X0"]]
    raw["sugar"] = [{"type": "internal", "name": f"x{i}", "from": a, "to": b}
                    for i, (a, b) in enumerate(zip(xs, [*xs[1:], back]))]
    return raw


def dragging_raw() -> dict:
    """The off-path action evil moves B (a path state) off the paths."""
    return {
        "states": ["A", "B", "T", "X"],
        "init": "A",
        "guards": {},
        "actions": [
            {"name": "evil", "kind": "sender", "sends": [["X", "X"]],
             "receives": [["B", "X"]]},
        ],
        "sugar": [
            {"type": "internal", "name": "s1", "from": "A", "to": "B"},
            {"type": "internal", "name": "s2", "from": "B", "to": "T"},
        ],
    }


def negotiation_twins() -> tuple[dict, dict]:
    """A guarded negotiation as sugar, and the same protocol with the
    negotiation written as two core single-send actions."""
    receives = [["A", "B"], ["B", "C"]]
    sugar = {
        "states": ["A", "B", "C"],
        "init": "A",
        "guards": {"G": ["A", "B", "C"]},
        "actions": [],
        "sugar": [
            {"type": "negotiation", "name": "N", "guard": "G", "map": receives},
            {"type": "internal", "name": "i", "from": "C", "to": "A"},
        ],
    }
    core = dict(sugar, sugar=sugar["sugar"][1:], actions=[
        {"name": f"N#{i}", "kind": "sender", "guard": "G", "sends": [send],
         "receives": receives}
        for i, send in enumerate(receives, start=1)])
    return sugar, core


class TestClassifyFree:
    def test_smoke_table(self, smoke):
        table = edge_table(smoke)
        assert table[("Smoke", "send", 1, 3, 0)] == (True, FREE_SEND)
        assert table[("Smoke", "receive", 0, 2, 0)] == (False, None)
        # the receive mirrors the send, negotiation-style
        assert table[("Smoke", "receive", 1, 3, 1)] == (True, FREE_NEGOTIATION)
        assert table[("Choose", "send", 3, 4, 0)] == (True, FREE_SEND)
        assert table[("Choose", "send", 3, 4, 1)] == (True, FREE_SEND)
        assert table[("Choose", "receive", 3, 2, 3)] == (False, None)
        assert table[("i", "send", 0, 1, 0)] == (True, FREE_INTERNAL)
        assert table[("Reset#1", "send", 4, 0, 0)] == (True, FREE_SEND)
        assert table[("Reset#1", "receive", 2, 0, 2)] == (True, FREE_NEGOTIATION)
        assert table[("Reset#1", "receive", 4, 0, 4)] == (True, FREE_NEGOTIATION)
        assert table[("Reset#2", "receive", 2, 0, 2)] == (True, FREE_NEGOTIATION)
        # receive self-loops are omitted entirely
        assert len([k for k in table if k[0] == "i"]) == 1

    def test_two_sender_send_not_free(self, smoke_2sender):
        table = edge_table(smoke_2sender)
        assert table[("Choose", "send", 3, 4, 0)] == (False, None)
        assert table[("Choose", "send", 3, 4, 1)] == (False, None)

    def test_witness_protocol(self, witness):
        table = edge_table(witness)
        idx = witness.state_index
        # the 5-maximal's sends are free, the closing broadcast's
        # receive into the error state is not
        assert table[("a", "send", idx("s_1"), idx("s_bot"), 0)][0] is True
        assert table[("b", "receive", idx("s_8"), idx("s_E"), idx("s_8"))] == (
            False, None)


class TestLemma1:
    def test_negotiation_only_protocol(self):
        p = validate(negotiation_only_raw())
        assert check_lemma1(p)

    def test_core_negotiation_matches_sugar_twin(self):
        sugar, core = (validate(raw) for raw in negotiation_twins())
        assert edge_table(core) == edge_table(sugar)
        assert edge_table(core)[("N#1", "receive", 1, 2, 1)] == (
            True, FREE_NEGOTIATION)
        assert check_lemma1(core) and check_lemma1(sugar)
        for target, threshold in (("B", 2), ("C", 1), ("C", 3)):
            verdicts = [certified_cutoff_check(p, p.state_index(target),
                                               threshold)
                        for p in (sugar, core)]
            assert verdicts[0] == verdicts[1]
            assert verdicts[0].lemma == "L1"

    def test_smoke_is_not_shaped(self, smoke):
        assert not check_lemma1(smoke)

    def test_witness_is_not_shaped(self, witness):
        assert not check_lemma1(witness)

    def test_implies_lemma2_at_every_target(self):
        """Wherever L1 holds, L2 holds at every target: L1 only picks
        the label (see ``check_lemma1``)."""
        protocols = perfbench_protocols()
        draws = [
            *(_gen.random_protocol(random.Random(f"l1-{flag}-{i}"),
                                   certified_only=flag)
              for flag in (True, False) for i in range(2000)),
            *(validate(protocols.random_model(random.Random(f"l1-{i}")))
              for i in range(2000))]
        shaped = [p for p in draws if check_lemma1(p)]
        for p in shaped:
            assert all(check_lemma2(p, t) for t in range(p.n_states)), p.state_names
        # the argument's negotiation case, not internal actions alone
        assert sum(not all(is_internal(a) for a in p.actions) for p in shaped) >= 20


class TestLemma2:
    def test_offside_synchronization(self):
        p = validate(offside_sync_raw())
        assert not check_lemma1(p)
        assert check_lemma2(p, p.state_index("C"))

    def test_smoke_fails(self, smoke):
        assert not check_lemma2(smoke, smoke.state_index("Report"))

    def test_witness_fails(self, witness):
        assert not check_lemma2(witness, witness.state_index("s_E"))


class TestLemma3:
    def test_smoke_applicable(self, smoke):
        assert check_lemma3(smoke, smoke.state_index("Report")) is None

    def test_no_free_path(self, smoke_2sender):
        res = check_lemma3(smoke_2sender, smoke_2sender.state_index("Report"))
        assert "no simple free path" in res

    def test_off_path_send_drags_states(self):
        p = validate(dragging_raw())
        res = check_lemma3(p, p.state_index("T"))
        assert "drags a path state off them" in res
        assert "evil" in res

    def test_unrecoverable_receive(self):
        p = validate(detour_raw("sink"))
        res = check_lemma3(p, p.state_index("T"))
        assert "without a free way back" in res

    def test_off_path_cycle_never_returns(self):
        p = validate(detour_raw("cycle"))
        res = check_lemma3(p, p.state_index("T"))
        assert "without a free way back" in res

    def test_internal_dodge_restores_applicability(self):
        p = validate(detour_raw("dodge"))
        assert check_lemma3(p, p.state_index("T")) is None

    def test_free_region_recovery(self):
        p = validate(detour_raw("recover"))
        assert check_lemma3(p, p.state_index("T")) is None

    def test_free_region_branches_meet_again(self):
        # the second branch into Z finds it finished, not on the DFS stack
        p = validate(detour_raw("diamond"))
        assert check_lemma3(p, p.state_index("T")) is None

    def test_path_budget(self, smoke):
        # four labeled simple free paths exist (two parallel hops twice)
        with pytest.raises(PathBudgetExceeded):
            check_lemma3(smoke, smoke.state_index("Report"), path_budget=3)
        check_lemma3(smoke, smoke.state_index("Report"), path_budget=4)

    def test_long_detour_recovers(self):
        p = validate(long_detour_raw(1500, "T"))
        assert check_lemma3(p, p.state_index("T")) is None

    def test_long_off_path_cycle_never_returns(self):
        p = validate(long_detour_raw(1500, "X0"))
        res = check_lemma3(p, p.state_index("T"))
        assert "without a free way back" in res


class TestCertifiedCutoffCheck:
    def test_smoke_safety_threshold(self, smoke):
        v = certified_cutoff_check(smoke, smoke.state_index("Report"), 3)
        assert v.amenable and v.lemma == "L3" and v.cutoff == 3
        assert v.holds is False  # three reporters stay unreachable
        assert not v.result.reachable

    def test_smoke_reachable_threshold(self, smoke):
        v = certified_cutoff_check(smoke, smoke.state_index("Report"), 2)
        assert v.amenable and v.lemma == "L3" and v.cutoff == 2
        assert v.holds is True
        assert v.result.reachable

    def test_long_chain_gets_a_verdict(self):
        p = validate(chain_raw(1500))
        v = certified_cutoff_check(p, p.state_index("S1499"), 1)
        assert v.amenable and v.lemma == "L3" and v.cutoff == 1
        assert v.holds is True

    def test_witness_not_amenable(self, witness):
        v = certified_cutoff_check(witness, witness.state_index("s_E"), 1)
        assert not v.amenable
        assert v.lemma is None and v.cutoff is None and v.holds is None
        assert "no simple free path" in v.witness

    def test_uncertified_protocol(self, smoke_mutant):
        v = certified_cutoff_check(smoke_mutant,
                                   smoke_mutant.state_index("Report"), 2)
        assert not v.amenable
        assert v.witness == "protocol is not certified well-behaved"

    def test_lemma_priority(self):
        p = validate(negotiation_only_raw())
        v = certified_cutoff_check(p, p.state_index("B"), 2)
        assert v.lemma == "L1" and v.cutoff == 2 and v.holds is True
        v = certified_cutoff_check(p, p.state_index("C"), 1)
        assert v.lemma == "L1" and v.holds is False

        p = validate(offside_sync_raw())
        v = certified_cutoff_check(p, p.state_index("C"), 1)
        assert v.lemma == "L2" and v.holds is True

    def test_verdict_lifts_to_larger_systems(self, smoke):
        """Spot-check the cutoff claim against the explicit checker and
        the parameterized engine at sizes above the cutoff."""
        report = smoke.state_index("Report")
        for threshold in (2, 3):
            v = certified_cutoff_check(smoke, report, threshold)
            for n in (v.cutoff + 1, v.cutoff + 2):
                fixed = check_fixed(smoke, ReachQuery(report, threshold, n))
                assert fixed.reachable == v.holds
            verdict = decide(smoke, report, threshold)
            assert verdict.reachable == v.holds


# The two smallest shapes on which L2 lifted a verdict that one more
# process breaks, both with count 2: a receive I->T backed only by the
# action's own send I->T, and a maximal source S0 whose two slots part
# ways. Each reaches its target with 3 processes, not with 2.
L2_OWN_SEND = {
    "states": ["I", "A", "T"], "init": "I",
    "actions": [{"name": "m", "kind": "maximal",
                 "sends": [["I", "A"], ["I", "T"]],
                 "receives": [["I", "T"]]}]}
L2_SPLIT_SLOTS = {
    "states": ["S0", "S1", "S2"], "init": "S0",
    "guards": {"G0": ["S0", "S2"]},
    "actions": [{"name": "a0", "kind": "maximal",
                 "sends": [["S0", "S1"], ["S0", "S2"]]}]}


def lifts_by_bfs(p, target, count):
    """Whether L1 or L2 decides the query; if so, assert that BFS agrees
    with its verdict at every n from the cutoff m to m + 3, and that
    ``decide``, which covers every n, agrees too: a verdict that holds
    needs a witness of size at most m, one that does not needs none."""
    v = certified_cutoff_check(p, target, count)
    if v.lemma not in ("L1", "L2"):
        return False
    for n in range(v.cutoff, v.cutoff + 4):
        got = check_fixed(p, ReachQuery(target, count, n)).reachable
        assert got == v.holds, (p.state_names, v.lemma, target, count, n)
    d = decide(p, target, count)
    assert (d.reachable and d.min_n <= v.cutoff if v.holds
            else not d.reachable), (p.state_names, v.lemma, target, count)
    return True


class TestLemmaSoundness:
    @pytest.mark.parametrize("raw, target", [
        (L2_OWN_SEND, "T"), (L2_SPLIT_SLOTS, "S1")])
    def test_minimal_l2_shapes(self, raw, target):
        p = validate(raw)
        t = p.state_index(target)
        assert not check_fixed(p, ReachQuery(t, 2, 2)).reachable
        assert check_fixed(p, ReachQuery(t, 2, 3)).reachable
        assert not check_lemma2(p, t)
        lifts_by_bfs(p, t, 2)

    def test_random_protocols(self):
        corpus = [_gen.random_protocol(random.Random(1000 + i),
                                       max_states=4, max_actions=3)
                  for i in range(400)]
        # draw 301 here and draw 394 of the benchmark's generator got L2
        # verdicts that BFS contradicts before both free-edge fixes
        protocols = perfbench_protocols()
        for i in range(400):
            p = validate(protocols.random_model(random.Random(f"x-{i}")))
            if wellbehaved.certify(p).well_behaved:
                corpus.append(p)
        lifted = sum(lifts_by_bfs(p, t, count)
                     for p in corpus for t in range(p.n_states)
                     if t != p.init for count in (1, 2, 3))
        assert lifted > 3000
