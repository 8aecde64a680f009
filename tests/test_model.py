from __future__ import annotations

import random

import pytest

from gspmc import model
from gspmc.model import Send, ValidationError, is_internal, validate

from conftest import config


def minimal_raw(**overrides):
    raw = {
        "states": ["A", "B"],
        "init": "A",
        "guards": {},
        "actions": [{"name": "t", "kind": "sender", "sends": [["A", "B"]]}],
    }
    raw.update(overrides)
    return raw


class TestValidate:
    def test_minimal_protocol(self):
        p = validate(minimal_raw())
        assert p.state_names == ("A", "B")
        assert p.init == 0
        assert p.guards[0].members == frozenset({0, 1})
        assert [a.name for a in p.actions] == ["t"]

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            validate(minimal_raw(extra=1))

    def test_empty_state_list(self):
        with pytest.raises(ValidationError, match="at least one state"):
            validate(minimal_raw(states=[]))

    def test_duplicate_state_name(self):
        with pytest.raises(ValidationError, match="duplicate state"):
            validate(minimal_raw(states=["A", "B", "A"]))

    def test_missing_init(self):
        raw = minimal_raw()
        del raw["init"]
        with pytest.raises(ValidationError, match="init"):
            validate(raw)

    def test_unknown_init(self):
        with pytest.raises(ValidationError, match="unknown state 'Z'"):
            validate(minimal_raw(init="Z"))

    def test_reserved_guard_name(self):
        with pytest.raises(ValidationError, match="reserved"):
            validate(minimal_raw(guards={"ALL": ["A"]}))

    def test_empty_guard(self):
        with pytest.raises(ValidationError, match="guard 'G' is empty"):
            validate(minimal_raw(guards={"G": []}))

    def test_guard_with_unknown_state(self):
        with pytest.raises(ValidationError, match="unknown state 'Z'"):
            validate(minimal_raw(guards={"G": ["Z"]}))

    def test_action_without_sends(self):
        raw = minimal_raw()
        raw["actions"][0]["sends"] = []
        with pytest.raises(ValidationError, match="no send"):
            validate(raw)

    def test_declared_arity_mismatch(self):
        raw = minimal_raw()
        raw["actions"][0]["arity"] = 2
        with pytest.raises(ValidationError, match="declared arity 2"):
            validate(raw)

    def test_unknown_kind(self):
        raw = minimal_raw()
        raw["actions"][0]["kind"] = "broadcast"
        with pytest.raises(ValidationError, match="unknown kind"):
            validate(raw)

    def test_unknown_action_key(self):
        raw = minimal_raw()
        raw["actions"][0]["extra"] = 1
        with pytest.raises(ValidationError, match="unknown keys"):
            validate(raw)

    def test_unknown_send_state(self):
        raw = minimal_raw()
        raw["actions"][0]["sends"] = [["A", "Z"]]
        with pytest.raises(ValidationError, match="unknown state 'Z'"):
            validate(raw)

    def test_unknown_guard_reference(self):
        raw = minimal_raw()
        raw["actions"][0]["guard"] = "G9"
        with pytest.raises(ValidationError, match="unknown guard"):
            validate(raw)

    def test_duplicate_action_name(self):
        raw = minimal_raw()
        raw["actions"].append(dict(raw["actions"][0]))
        with pytest.raises(ValidationError, match="duplicate action name 't'"):
            validate(raw)

    def test_duplicate_receive_source(self):
        raw = minimal_raw()
        raw["actions"][0]["receives"] = [["A", "B"], ["A", "A"]]
        with pytest.raises(ValidationError, match="two receive targets"):
            validate(raw)

    def test_receives_as_mapping(self):
        raw = minimal_raw()
        raw["actions"][0]["receives"] = {"A": "B"}
        p = validate(raw)
        assert p.actions[0].receive_map == (1, 1)

    def test_receive_map_completed_with_self_loops(self):
        raw = minimal_raw(states=["A", "B", "C"])
        raw["actions"][0]["receives"] = [["A", "C"]]
        p = validate(raw)
        assert p.actions[0].receive_map == (2, 1, 2)


class TestSenderTallies:
    def test_smoke_tallies(self, smoke):
        a = smoke.action("Smoke")
        # states: Env, Ask, Idle, Pick, Report
        assert a.receive_map == (2, 3, 2, 3, 4)
        assert a.senders_from == (0, 1, 0, 0, 0)
        assert a.senders_to == (0, 0, 0, 1, 0)

    def test_choose_tallies(self, smoke):
        a = smoke.action("Choose")
        assert a.receive_map == (0, 1, 2, 2, 4)
        assert a.senders_from == (0, 0, 0, 2, 0)
        assert a.senders_to == (0, 0, 0, 0, 2)

    def test_sender_tallies_sum_to_arity(self):
        rng = random.Random(1)
        states = 4
        for _ in range(50):
            sends = tuple(Send(rng.randrange(states), rng.randrange(states))
                          for _ in range(rng.randint(1, 3)))
            action = model.Action("x", model.SENDER, sends,
                                  tuple(range(states)),
                                  model.Guard("ALL", frozenset(range(states))))
            assert sum(action.senders_from) == len(sends)
            assert sum(action.senders_to) == len(sends)


class TestDesugar:
    def test_smoke_detector_expansion(self, smoke):
        assert [a.name for a in smoke.actions] == [
            "Smoke", "Choose", "i", "Reset#1", "Reset#2"]

    def test_internal_step(self, smoke):
        i = smoke.action("i")
        assert i.kind == model.SENDER
        assert i.sends == (Send(0, 1),)
        assert i.receive_map == (0, 1, 2, 3, 4)
        assert is_internal(i)
        assert i.guard.name == "G1"

    def test_negotiation_members(self, smoke):
        r1, r2 = smoke.action("Reset#1"), smoke.action("Reset#2")
        assert r1.sends == (Send(4, 0),)
        assert r2.sends == (Send(2, 0),)
        # shared completed receive map: Report->Env, Idle->Env, rest self
        assert r1.receive_map == r2.receive_map == (0, 1, 0, 3, 0)
        assert r1.guard.name == r2.guard.name == "G3"

    def test_negotiation_requires_entries(self):
        raw = minimal_raw(sugar=[{"type": "negotiation", "name": "N", "map": []}])
        with pytest.raises(ValidationError, match="non-empty"):
            validate(raw)

    def test_pairwise_and_async(self):
        raw = minimal_raw(states=["A", "B", "C", "D"])
        raw["sugar"] = [
            {"type": "pairwise", "name": "p", "send": ["A", "B"], "recv": ["C", "D"]},
            {"type": "async", "name": "q", "send": ["A", "B"], "recv": ["C", "D"]},
        ]
        p = validate(raw)
        pw, al = p.action("p"), p.action("q")
        assert pw.kind == model.SENDER and al.kind == model.MAXIMAL
        for a in (pw, al):
            assert a.sends == (Send(0, 1), Send(2, 3))
            assert a.receive_map == (0, 1, 2, 3)

    def test_disjunctive_raises_arity(self):
        raw = minimal_raw(states=["A", "B", "W"])
        raw["actions"][0]["receives"] = [["W", "B"]]
        raw["sugar"] = [{"type": "disjunctive", "action": "t", "witnesses": ["W"]}]
        p = validate(raw)
        t = p.action("t")
        # the witness joins as an extra sender moving along its receive entry
        assert t.sends == (Send(0, 1), Send(2, 1))
        assert t.arity == 2

    def test_disjunctive_unknown_action(self):
        raw = minimal_raw(sugar=[
            {"type": "disjunctive", "action": "nope", "witnesses": ["A"]}])
        with pytest.raises(ValidationError, match="unknown action"):
            validate(raw)

    def test_disjunctive_needs_witnesses(self):
        raw = minimal_raw(sugar=[
            {"type": "disjunctive", "action": "t", "witnesses": []}])
        with pytest.raises(ValidationError, match="witness"):
            validate(raw)

    def test_unknown_sugar_type(self):
        raw = minimal_raw(sugar=[{"type": "mystery"}])
        with pytest.raises(ValidationError, match="unknown sugar"):
            validate(raw)

    def test_sugar_name_collision(self):
        raw = minimal_raw(sugar=[
            {"type": "internal", "name": "t", "from": "A", "to": "B"}])
        with pytest.raises(ValidationError, match="duplicate action name 't'"):
            validate(raw)


class TestProtocolHelpers:
    def test_used_guards_excludes_trivial_and_unused(self, smoke):
        raw = minimal_raw(guards={"G": ["A"]})  # registered but never used
        p = validate(raw)
        assert p.used_guards() == ()
        assert p.is_unguarded
        assert [g.name for g in smoke.used_guards()] == ["G1", "G2", "G3"]
        assert not smoke.is_unguarded

    def test_state_index(self, smoke):
        assert smoke.state_index("Pick") == 3
        with pytest.raises(ValidationError, match="unknown state 'Nope'"):
            smoke.state_index("Nope")

    def test_action_lookup(self, smoke):
        assert smoke.action("Smoke").name == "Smoke"
        with pytest.raises(KeyError):
            smoke.action("Nope")

    def test_is_internal_is_structural(self):
        raw = minimal_raw()  # plain 1-sender with identity receive map
        p = validate(raw)
        assert is_internal(p.action("t"))
        raw["actions"][0]["receives"] = [["B", "A"]]
        p = validate(raw)
        assert not is_internal(p.action("t"))

    def test_config_helper_round_trip(self, smoke):
        q = config(smoke, Env=2, Pick=1)
        assert q == (2, 0, 0, 1, 0)
