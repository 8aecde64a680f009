from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

from gspmc import cutoff, explicit, model, modelfile, semantics, wellbehaved, wsts
from gspmc.model import Send, ValidationError, is_internal, validate

import _gen
import _oracle
from conftest import FIXTURES, chain_raw, config, load_fixture, perfbench_protocols


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

    @pytest.mark.parametrize("overrides, message", [
        ({"actions": [{"name": "t", "sends": [["A", "B"]]}, {"sends": []}]},
         "actions[1]: missing 'name'"),
        ({"actions": [{"name": "t", "sends": [["A", "B"]], "guard": "G9"}]},
         "action 't': unknown guard 'G9'"),
        ({"actions": [{"name": "t", "sends": [["A", "B"]], "guard": 3}]},
         "action 't': 'guard' must be a string, got an integer"),
        ({"guards": {"G": ["A", 3]}},
         "guard 'G' entries must be a string, got an integer"),
        ({"sugar": [{"type": "internal", "name": "i", "from": "A", "to": "B"},
                    "i"]},
         "sugar[1] must be an object, got a string"),
        ({"sugar": [{"type": "internal", "name": "i", "from": "A", "to": "B",
                     "guard": "G9"}]},
         "sugar 'internal': unknown guard 'G9'"),
        ({"sugar": [{"type": "negotiation", "name": "n", "map": {"A": 1}}]},
         "sugar 'negotiation': 'map' entries must be a string, got an integer"),
        # a key of another sugar type is unknown too, and checked first
        ({"sugar": [{"type": "internal", "name": "i", "from": "A", "to": "B",
                     "gaurd": "G9", "map": {}}]},
         "unknown keys ['gaurd', 'map'] in sugar 'internal'"),
        ({"sugar": [{"type": "disjunctive", "action": "t", "witnesses": ["A"],
                     "guard": "ALL"}]},
         "unknown keys ['guard'] in sugar 'disjunctive'"),
        ({"property": {"targt": "B", "count": "x"}},
         "unknown keys ['targt'] in 'property'"),
    ])
    def test_error_context_names(self, overrides, message):
        """Each error names its context exactly."""
        with pytest.raises(ValidationError) as info:
            validate(minimal_raw(**overrides))
        assert str(info.value) == message

    def test_duplicate_action_name(self):
        raw = minimal_raw()
        raw["actions"].append(dict(raw["actions"][0]))
        with pytest.raises(ValidationError, match="duplicate action name 't'"):
            validate(raw)

    def test_duplicate_receive_source(self):
        # the error names the declaration and the state, in a core action
        # and in a negotiation map, and the earlier validator agrees
        core = minimal_raw()
        core["actions"][0]["receives"] = [["A", "B"], ["A", "A"]]
        negotiation = minimal_raw(states=["A", "B", "C"], sugar=[
            {"type": "negotiation", "name": "n", "map": [["C", "A"], ["B", "A"], ["B", "C"]]}])
        for raw, message in (
                (core, "action 't': two receive targets declared for state 'A'"),
                (negotiation, "negotiation 'n': two receive targets declared for state 'B'")):
            for check in (validate, _oracle.validate):
                with pytest.raises(ValidationError) as info:
                    check(raw)
                assert str(info.value) == message

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


def _outcome(check, raw):
    """``check(raw)``'s Protocol, or the type and message it raised."""
    try:
        return check(raw)
    except Exception as e:
        return type(e), str(e)


def _edited(node, path, edit):
    """``node`` with ``edit`` applied to its value at ``path``, copying only
    the containers along the path."""
    if not path:
        return edit(node)
    node = dict(node) if type(node) is dict else list(node)
    node[path[0]] = _edited(node[path[0]], path[1:], edit)
    return node


def _paths(node, path=()):
    """Every ``(path, value)`` inside ``node``, ``node`` itself first."""
    yield path, node
    if type(node) in (dict, list):
        items = node.items() if type(node) is dict else enumerate(node)
        for key, value in items:
            yield from _paths(value, path + (key,))


_JUNK = (None, True, 0, 1.5, "", [], {}, [[]], ["x"], "Nowhere", "ALL")


def _malformed(rng, raw):
    """``raw`` with one or two entries replaced by a value of the wrong
    type or an unknown, known or reserved name, or with a key deleted or
    an unknown key added."""
    known = [*raw["states"], *(a["name"] for a in raw.get("actions", []))]
    for _ in range(rng.choice((1, 2))):
        entries = list(_paths(raw))
        path, value = rng.choice(entries)
        roll = rng.random()
        if roll < 0.15 and path and type(dict(entries)[path[:-1]]) is dict:
            raw = _edited(raw, path[:-1], lambda d, key=path[-1]: {
                k: v for k, v in d.items() if k != key})
        elif (roll < 0.25 or not path) and type(value) is dict:
            raw = _edited(raw, path, lambda d: {**d, "extra": 1})
        elif path:
            junk = rng.choice(_JUNK + (rng.choice(known),))
            raw = _edited(raw, path, lambda _, junk=junk: junk)
    return raw


class TestOracle:
    """``validate`` gives what the earlier validator, ``_oracle.validate``,
    gives: an equal Protocol, or the same error in the same check order."""

    @staticmethod
    def corpus():
        protocols = perfbench_protocols()
        yield from (modelfile.parse_model(path).raw
                    for path in sorted(FIXTURES.glob("*.json")))
        yield chain_raw(6)
        rng = random.Random(2700)
        for i in range(500):
            yield _gen.random_raw(rng)
            yield protocols.random_model(random.Random(f"validate-{i}"))

    def test_valid_documents(self):
        for raw in self.corpus():
            p = validate(raw)
            assert p == _oracle.validate(raw), raw

    def test_malformed_documents(self):
        rng = random.Random(2701)
        bases = list(self.corpus())
        sugared = [raw for raw in bases if raw.get("sugar")]
        errors = []
        for _ in range(5000):
            raw = _malformed(rng, rng.choice(rng.choice((bases, sugared))))
            got = _outcome(validate, raw)
            assert got == _outcome(_oracle.validate, raw), raw
            if type(got) is tuple:
                assert got[0] is ValidationError, (raw, got)
                errors.append(got[1])
        # most edits break the document, in checks of every section
        assert len(errors) > 4000 and len(set(errors)) > 300


class TestRecords:
    def test_immutable_values(self):
        send, guard = Send(0, 1), model.Guard("G", frozenset({0}))
        for record, field in ((send, "src"), (guard, "members")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert send == Send(0, 1) and hash(send) == hash(Send(0, 1))
        assert send != Send(1, 0)
        assert guard == model.Guard("G", frozenset({0}))
        assert hash(guard) == hash(model.Guard("G", frozenset({0})))
        assert guard != model.Guard("G", frozenset({1}))

    @pytest.mark.parametrize("make, field", [
        (lambda p: p, "init"),
        (lambda p: p.actions[0], "name"),
        (lambda p: modelfile.loads('{"states": ["A"]}'), "raw"),
        (lambda p: cutoff.classify_free(p)[0], "free"),
        (lambda p: cutoff.certified_cutoff_check(p, 1, 1), "cutoff"),
        (lambda p: wellbehaved.Violation("C1", "G", ("A", "B")), "detail"),
        (lambda p: wellbehaved.certify(p).actions[0], "status"),
        (lambda p: wellbehaved.certify(p), "well_behaved"),
        (lambda p: wsts.Ucs(wsts.COMPONENT_WISE, ()), "basis"),
        (lambda p: wsts.Wqo((frozenset({0}),)), "guards"),
        (lambda p: explicit.ReachQuery(1, 1, 2), "size"),
    ], ids=["Protocol", "Action", "ModelFile", "Edge", "CutoffVerdict", "Violation",
            "ActionStatus", "GuardCompatReport", "Ucs", "Wqo", "ReachQuery"])
    def test_fields_refuse_writes(self, make, field):
        record = make(validate(minimal_raw()))
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value

    def test_equal_across_validations(self):
        # two validations build distinct records that compare and hash
        # alike, with the hash of the tuple of their fields
        for path in sorted(FIXTURES.glob("*.json")):
            raw = modelfile.parse_model(path).raw
            p, q = validate(raw), validate(raw)
            assert p == q and hash(p) == hash(q)
            for a, b in zip(p.actions, q.actions, strict=True):
                assert a is not b and a == b and hash(a) == hash(b)
                assert hash(a) == hash((a.name, a.kind, a.sends, a.receive_map, a.guard))
            assert p.actions[0] != p.actions[-1]
            order, other = wsts.wqo_for(p), wsts.wqo_for(q)
            assert order == other and hash(order) == hash(other) == hash((order.guards,))
        assert wsts.Wqo((frozenset({0}),)) != wsts.Wqo((frozenset({1}),))

    def test_used_guards_drops_a_repeat(self):
        raw = minimal_raw(states=["A", "B"], guards={"G": ["A"], "H": ["A"]})
        raw["actions"] = [
            {"name": n, "sends": [["A", "B"]], "guard": g}
            for n, g in (("t", "G"), ("u", "H"), ("v", "G"))]
        p = validate(raw)
        assert p.used_guards() == (model.Guard("G", frozenset({0})),
                                   model.Guard("H", frozenset({0})))


class TestMoves:
    """``Action.moves`` is the receive map's non-identity entries, and
    ``is_internal`` the arity-1, identity-map definition, on the fixtures
    and on draws from both random generators."""

    @staticmethod
    def actions():
        for path in sorted(FIXTURES.glob("*.json")):
            yield from validate(modelfile.parse_model(path).raw).actions
        rng = random.Random(3200)
        random_model = perfbench_protocols().random_model
        for i in range(300):
            yield from _gen.random_protocol(rng, certified_only=False).actions
            yield from validate(random_model(random.Random(f"moves-{i}"))).actions

    def test_moves_and_is_internal(self):
        internal = moving = 0
        for a in self.actions():
            identity = tuple(range(len(a.receive_map)))
            assert a.moves == tuple((s, r) for s, r in zip(identity, a.receive_map)
                                    if s != r), a
            assert is_internal(a) is (len(a.sends) == 1 and a.receive_map == identity), a
            internal += is_internal(a)
            moving += bool(a.moves)
        # both shapes occur often enough to be tested
        assert internal > 50 and moving > 500

    def test_moves_is_not_a_field(self):
        fields = ("t", model.SENDER, (Send(1, 2),), (2, 1, 2), model.Guard("ALL", frozenset({0, 1, 2})))
        a, b = model.Action(*fields), model.Action(*fields)
        assert a.moves == ((0, 2),)
        assert a is not b and a == b and hash(a) == hash(b) == hash(fields)
        assert repr(a) == (
            "Action(name='t', kind='sender', sends=(Send(src=1, dst=2),), "
            "receive_map=(2, 1, 2), guard=Guard(name='ALL', members=frozenset({0, 1, 2})))")
        with pytest.raises(AttributeError):
            a.moves = ()
        assert model.Action(*fields[:3], (0, 1, 2), fields[4]) != a


class TestSenderTallies:
    def test_smoke_tallies(self, smoke):
        a = smoke.action("Smoke")
        # states: Env, Ask, Idle, Pick, Report
        assert a.receive_map == (2, 3, 2, 3, 4)
        assert (a.sources, a.caps) == ((1,), (1,))
        assert [uplus for _, uplus in a.outcomes((1,))] == [(0, 0, 0, 1, 0)]

    def test_choose_tallies(self, smoke):
        a = smoke.action("Choose")
        assert a.receive_map == (0, 1, 2, 2, 4)
        assert (a.sources, a.caps) == ((3,), (2,))
        assert [uplus for _, uplus in a.outcomes((2,))] == [(0, 0, 0, 0, 2)]

    def test_sender_tallies_sum_to_arity(self):
        rng = random.Random(1)
        states = 4
        for _ in range(50):
            sends = tuple(Send(rng.randrange(states), rng.randrange(states))
                          for _ in range(rng.randint(1, 3)))
            action = model.Action("x", model.SENDER, sends,
                                  tuple(range(states)),
                                  model.Guard("ALL", frozenset(range(states))))
            assert sum(action.caps) == len(sends)
            [(u, uplus)] = action.outcomes(action.caps)
            assert u == tuple(sum(s.src == t for s in sends) for t in range(states))
            assert sum(uplus) == len(sends)


class TestOutcomes:
    """``Action.outcomes`` is the generic firing rule,
    ``_oracle.reference_outcomes``, in value and in order, on every key
    of the caps box."""

    @staticmethod
    def check(actions):
        for a in actions:
            for key in itertools.product(*(range(c + 1) for c in a.caps)):
                assert a.outcomes(key) == _oracle.reference_outcomes(a, key), (
                    a.name, key)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixtures(self, name):
        self.check(load_fixture(name).actions)

    @pytest.mark.parametrize("k, m, clocks",
                             [(2, 2, 1), (3, 4, 6), (4, 4, 2), (5, 2, 3)])
    def test_ring_family(self, k, m, clocks):
        self.check(validate(perfbench_protocols().ring_family(k, m, clocks)).actions)

    def test_random_protocols(self):
        rng = random.Random(3500)
        for _ in range(300):
            self.check(_gen.random_protocol(rng, certified_only=False, max_arity=4).actions)

    def test_benchmark_random_models(self):
        random_model = perfbench_protocols().random_model
        for i in range(300):
            self.check(validate(random_model(random.Random(f"x-{i}"))).actions)

    @staticmethod
    def one_action(states, action, guards=None):
        p = validate({"states": states, "init": states[0],
                      "guards": guards or {}, "actions": [action]})
        return p.action(action["name"])

    @pytest.mark.parametrize("sends", [
        [["A", "C"], ["A", "C"], ["B", "C"]],
        [["A", "C"], ["A", "C"], ["B", "C"], ["B", "D"]],
        [["B", "D"], ["A", "C"], ["B", "C"], ["A", "C"]],
        [["A", "D"], ["B", "D"], ["B", "D"], ["C", "D"]],
        [["A", "B"], ["A", "C"], ["A", "B"], ["B", "A"]],
    ])
    def test_whole_and_partial_sources_with_repeated_destinations(self, sends):
        a = self.one_action(["A", "B", "C", "D"], {
            "name": "t", "kind": "maximal", "sends": sends})
        # two sources, one with two slots or more: some key of the box
        # takes every slot of one source and part of the other's
        assert len(a.caps) >= 2 and max(a.caps) >= 2
        self.check([a])

    def test_whole_source_is_shared_by_every_outcome(self):
        a = self.one_action(["A", "B", "C", "D"], {
            "name": "t", "kind": "maximal",
            "sends": [["A", "C"], ["A", "C"], ["B", "C"], ["B", "D"]]})
        # A gives both slots to C; B's one sender goes to C or to D
        assert a.outcomes((2, 1)) == (((2, 1, 0, 0), (0, 0, 3, 0)),
                                      ((2, 1, 0, 0), (0, 0, 2, 1)))
        # one of A's two slots to C, twice: one outcome per B's choice
        assert a.outcomes((1, 1)) == (((1, 1, 0, 0), (0, 0, 2, 0)),
                                      ((1, 1, 0, 0), (0, 0, 1, 1)))
        assert a.outcomes((2, 2)) == (((2, 2, 0, 0), (0, 0, 3, 1)),)

    def test_sender_with_a_source_outside_its_guard(self):
        # the guard is not checked here: the full key still fires
        a = self.one_action(["A", "B", "C"], {
            "name": "t", "kind": "sender", "sends": [["A", "C"], ["B", "C"]],
            "guard": "G"}, guards={"G": ["A", "C"]})
        self.check([a])
        assert a.outcomes((1, 1)) == (((1, 1, 0), (0, 0, 2)),)
        assert a.outcomes((1, 0)) == ()


class TestCompiledFields:
    def test_computed_once_into_the_instance(self, smoke_2sender):
        a = smoke_2sender.action("Choose")
        sources = a.sources
        assert a.__dict__["sources"] is sources is a.sources
        with pytest.raises(AttributeError):
            a.sources = ()

    def test_tables_hold_no_cycle(self):
        # each engine's memo keeps an entry's tables and actions alive,
        # and nothing else does: clearing the one that holds them last
        # frees them, before any garbage collection
        memos = (semantics._compiled, wsts._compiled)
        for last in memos:
            p = validate({"states": ["A", "B"], "init": "A", "actions": [
                {"name": "m", "kind": "maximal", "sends": [["A", "B"]]}]})
            a = p.action("m")
            packed = semantics.packed(p, 3)
            assert semantics.successors(packed, 3) == [2 + (1 << 2)]
            assert semantics.fire((1, 0), a) == [(0, 1)]
            assert packed.actions[0][4]  # the maximal action's deltas memo
            assert wsts.decide(p, 1, 1).reachable
            assert wsts._compiled(p).tables[0][0] is a
            gone = weakref.ref(a)
            gc.disable()
            try:
                del p, a, packed
                for memo in memos:
                    assert gone() is not None
                    if memo is not last:
                        memo.cache_clear()
                last.cache_clear()
                assert gone() is None
            finally:
                gc.enable()


class TestParticipations:
    """``wsts._pred_table`` under the bound of every state lists exactly
    the full caps box's participations, in the same order, with their
    senders' support and allowed states as bitmasks."""

    @staticmethod
    def check(protocol):
        def mask(states):
            return sum(1 << s for s in states)

        for a in protocol.actions:
            assert _oracle.unfiltered_table(a) == [
                (u, uplus, mask(s for s, c in enumerate(u) if c), mask(allowed))
                for u, uplus, allowed in _oracle.participations(a)], a.name

    def test_random_protocols(self):
        rng = random.Random(1800)
        for _ in range(300):
            self.check(_gen.random_protocol(rng, certified_only=False))

    def test_benchmark_random_models(self):
        random_model = perfbench_protocols().random_model
        for i in range(300):
            self.check(validate(random_model(random.Random(f"x-{i}"))))

    @pytest.mark.parametrize("k, m, clocks",
                             [(2, 2, 1), (3, 4, 6), (4, 4, 2), (5, 2, 3)])
    def test_ring_family(self, k, m, clocks):
        p = validate(perfbench_protocols().ring_family(k, m, clocks))
        self.check(p)
        assert len(_oracle.unfiltered_table(p.action("i"))) == 1
        # one per non-empty subset of the counting ring's k send slots
        assert len(_oracle.unfiltered_table(p.action("a"))) == 2 ** k - 1

    # hand-made keys whose sources each take no slot or all of them, which
    # ``outcomes`` tallies from one base, and a key that mixes a whole
    # source with a partial one, which it runs through its product

    @staticmethod
    def one_action(states, action, guards=None):
        return validate({"states": states, "init": states[0],
                         "guards": guards or {}, "actions": [action]})

    @pytest.mark.parametrize("kind", ["sender", "maximal"])
    def test_two_slots_to_one_destination_taken_whole(self, kind):
        p = self.one_action(["A", "B", "C"], {
            "name": "t", "kind": kind, "sends": [["A", "B"], ["A", "B"]]})
        self.check(p)
        # the whole key's one outcome puts both senders on B
        assert _oracle.unfiltered_table(p.action("t"))[-1][:2] == ((2, 0, 0), (0, 2, 0))

    def test_sender_with_a_source_outside_the_guard(self):
        p = self.one_action(["A", "B", "C"], {
            "name": "t", "kind": "sender", "sends": [["A", "C"], ["B", "C"]],
            "guard": "G"}, guards={"G": ["A", "C"]})
        self.check(p)
        assert _oracle.unfiltered_table(p.action("t")) == []

    def test_whole_and_partial_source_in_one_key(self):
        # A gives its one slot, B one of its two: the key (1, 1) has two
        # outcomes, one per slot of B
        p = self.one_action(["A", "B", "C", "D"], {
            "name": "t", "kind": "maximal",
            "sends": [["A", "C"], ["B", "C"], ["B", "D"]]})
        self.check(p)
        table = _oracle.unfiltered_table(p.action("t"))
        assert [uplus for u, uplus, _, _ in table if u == (1, 1, 0, 0)] == [
            (0, 0, 2, 0), (0, 0, 1, 1)]


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
