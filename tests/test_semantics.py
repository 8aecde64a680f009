from __future__ import annotations

import itertools
import random

import pytest

from gspmc.model import validate
from gspmc import semantics
from gspmc.semantics import fire

import _gen
import _oracle
from conftest import (
    chain_raw,
    config,
    internal_ring,
    load_fixture,
    named_successors,
    perfbench_protocols,
    perfbench_ring_queries,
)


def enabled(p, q, action):
    return bool(fire(q, action))


class TestEnabled:
    def test_smoke_table(self, smoke):
        p = smoke
        assert enabled(p, config(p, Ask=1), p.action("Smoke"))
        assert not enabled(p, config(p, Env=1), p.action("Smoke"))  # no sender
        # guard G2 = {Idle, Pick, Report}: any Env process disables Choose
        assert enabled(p, config(p, Pick=2), p.action("Choose"))
        assert not enabled(p, config(p, Pick=2, Env=1), p.action("Choose"))
        assert enabled(p, config(p, Env=1), p.action("i"))
        assert not enabled(p, config(p, Env=1, Pick=1), p.action("i"))  # G1

    def test_maximal_fires_below_declared_arity(self, smoke):
        # one Pick process is enough for the 2-maximal variant...
        assert enabled(smoke, config(smoke, Pick=1), smoke.action("Choose"))

    def test_sender_needs_full_arity(self, smoke_2sender):
        # ...but not for the 2-sender one
        p = smoke_2sender
        assert not enabled(p, config(p, Pick=1), p.action("Choose"))
        assert enabled(p, config(p, Pick=2), p.action("Choose"))

    def test_all_zero_config_rejected(self, smoke):
        with pytest.raises(ValueError, match="no processes"):
            enabled(smoke, config(smoke), smoke.action("i"))


class TestFire:
    def test_smoke_broadcast(self, smoke):
        q = config(smoke, Ask=3, Env=2)
        # one Ask sends to Pick; the other two follow Ask->Pick; both Env->Idle
        a = smoke.action("Smoke")
        assert fire(q, a) == [config(smoke, Idle=2, Pick=3)]
        assert [u for u, _ in a.outcomes((1,))] == [config(smoke, Ask=1)]

    def test_choose_two_sender(self, smoke_2sender):
        p = smoke_2sender
        a = p.action("Choose")
        assert fire(config(p, Idle=1, Pick=4), a) == [config(p, Idle=3, Report=2)]
        assert [u for u, _ in a.outcomes((2,))] == [config(p, Pick=2)]

    def test_choose_two_maximal_partial(self, smoke):
        # only one Pick available: u = min(q, v) pointwise, and both of
        # Choose's send slots lead to Report, so there is one outcome
        a = smoke.action("Choose")
        out = fire(config(smoke, Idle=4, Pick=1), a)
        assert out == [config(smoke, Idle=4, Report=1)]
        assert [u for u, _ in a.outcomes((1,))] == [config(smoke, Pick=1)]

    def test_fire_requires_enabled(self, smoke):
        assert fire(config(smoke, Env=1), smoke.action("Smoke")) == []

    def test_successors_enumerates_enabled_only(self, smoke):
        q = config(smoke, Env=1, Ask=1)
        outs = named_successors(smoke, q)
        assert sorted(name for name, _ in outs) == ["Smoke", "i"]


def configs_of(n_states, total):
    """Every count vector over n_states with exactly `total` processes."""
    for cuts in itertools.combinations(range(total + n_states - 1),
                                       n_states - 1):
        prev, vec = -1, []
        for c in cuts:
            vec.append(c - prev - 1)
            prev = c
        vec.append(total + n_states - 2 - prev)
        yield tuple(vec)


def all_configs(n_states, total):
    """Every count vector over n_states with at least one process and at
    most `total` in all."""
    for tot in range(1, total + 1):
        yield from configs_of(n_states, tot)


def check_against_oracle(p, total):
    """The packed successors, unpacked and named by action (in action
    declaration order, then outcome order), and enabled equal the
    multiset oracle at every configuration of at most ``total``
    processes."""
    for q in all_configs(p.n_states, total):
        expected = [
            (name, tuple(succ.get(s, 0) for s in range(p.n_states)))
            for name, succ in _oracle.multiset_successors(
                p, _oracle.as_counter(q))]
        assert named_successors(p, q) == expected, (p.state_names, q)
        for a in p.actions:
            assert enabled(p, q, a) == (
                a.name in {name for name, _ in expected})


class TestOracleAgreement:
    def test_smoke_exhaustive(self, smoke):
        check_against_oracle(smoke, total=5)

    def test_smoke_2sender_exhaustive(self, smoke_2sender):
        check_against_oracle(smoke_2sender, total=5)

    def test_random_protocols(self):
        rng = random.Random(20260814)
        for _ in range(40):
            p = _gen.random_protocol(rng, certified_only=False)
            check_against_oracle(p, total=4)

    def test_conservation(self, smoke):
        rng = random.Random(7)
        for _ in range(200):
            q = tuple(rng.randrange(4) for _ in range(smoke.n_states))
            if sum(q) == 0:
                continue
            for name, succ in named_successors(smoke, q):
                a = smoke.action(name)
                assert succ in fire(q, a)
                assert sum(succ) == sum(q)
                key = tuple(min(q[s], c) for s, c in zip(a.sources, a.caps))
                for u, _ in a.outcomes(key):
                    if a.kind == "sender":
                        assert sum(u) == a.arity
                    else:
                        assert 1 <= sum(u) <= a.arity


# One maximal action whose two send slots leave I for different
# destinations: with one process in I, either slot fires.
SHARED_SOURCE = {
    "states": ["I", "A", "B", "T"], "init": "I",
    "actions": [{"name": "m", "kind": "maximal",
                 "sends": [["I", "A"], ["I", "B"]], "receives": []}]}


def with_shared_source_slots(rng, raw):
    """``raw`` with every maximal action given one more send slot that
    leaves the source of its first slot for a different destination."""
    for spec in raw["actions"]:
        if spec["kind"] == "maximal":
            src, dst = spec["sends"][0]
            other = rng.choice([s for s in raw["states"] if s != dst])
            spec["sends"].insert(rng.randint(0, len(spec["sends"])), [src, other])
    return raw


class TestSharedSourceSlots:
    """Send slots that share a source but not a destination: a maximal
    action with fewer senders than slots takes any of them, one outcome
    per distinct set of destinations reached."""

    def test_every_slot_choice_fires(self):
        p = validate(SHARED_SOURCE)
        m = p.action("m")
        assert fire((1, 0, 0, 0), m) == [(0, 1, 0, 0), (0, 0, 1, 0)]
        assert [u for u, _ in m.outcomes((1,))] == [(1, 0, 0, 0)] * 2
        assert fire((3, 0, 0, 1), m) == [(1, 1, 1, 1)]
        assert [u for u, _ in m.outcomes((2,))] == [(2, 0, 0, 0)]
        check_against_oracle(p, total=4)

    def test_slot_order_orders_outcomes(self):
        raw = {**SHARED_SOURCE, "actions": [
            {**SHARED_SOURCE["actions"][0], "sends": [["I", "B"], ["I", "A"]]}]}
        p = validate(raw)
        assert fire((1, 0, 0, 0), p.action("m")) == [(0, 0, 1, 0), (0, 1, 0, 0)]
        check_against_oracle(p, total=4)

    def test_random_protocols(self):
        rng = random.Random(3141)
        checked = 0
        while checked < 30:
            raw = _gen.random_raw(rng)
            if not any(a["kind"] == "maximal" for a in raw["actions"]):
                continue
            p = validate(with_shared_source_slots(rng, raw))
            check_against_oracle(p, total=4)
            checked += 1


FIXTURES = ("smoke_detector.json", "smoke_detector_2sender.json",
            "smoke_detector_mutant.json", "cutoff_witness.json")


def check_fire_against_oracle(p):
    """``fire`` equals the multiset oracle, outcome for outcome and in
    order, for every action at every configuration of 1, 2, 3, 4, 7 and
    8 processes: both sides of the digit widths 1 to 4."""
    for total in (1, 2, 3, 4, 7, 8):
        for q in configs_of(p.n_states, total):
            states = _oracle.as_counter(q)
            for a in p.actions:
                expected = [tuple(succ[s] for s in range(p.n_states))
                            for succ in _oracle.multiset_fire(states, a)]
                assert fire(q, a) == expected, (p.state_names, a.name, q)


class TestPacked:
    """One int per configuration, one digit of ``n.bit_length()`` bits
    per state."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_round_trip(self, n):
        p = internal_ring(3)
        packed = semantics.packed(p, n)
        assert packed.width == n.bit_length()
        codes = set()
        for q in all_configs(p.n_states, n):
            code = semantics.pack(packed, q)
            assert semantics.unpack(packed, code) == q
            codes.add(code)
        assert len(codes) == sum(1 for _ in all_configs(p.n_states, n))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_oracle(self, name):
        check_against_oracle(load_fixture(name), total=4)

    def test_random_protocols_match_oracle(self):
        rng = random.Random(8080)
        for _ in range(60):
            check_against_oracle(
                _gen.random_protocol(rng, certified_only=False), total=4)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fire_matches_oracle_across_widths(self, name):
        check_fire_against_oracle(load_fixture(name))

    def test_random_fire_matches_oracle_across_widths(self):
        rng = random.Random(9090)
        for _ in range(60):
            check_fire_against_oracle(
                _gen.random_protocol(rng, certified_only=False))

    def test_tables_are_kept_per_width(self):
        # n = 4..7 share a width, n = 8 has a wider one; an equal protocol,
        # validated again, finds the same Packed by its value
        smoke = load_fixture("smoke_detector.json")
        semantics._compiled.cache_clear()
        four, seven, eight = (semantics.packed(smoke, n) for n in (4, 7, 8))
        assert four is seven and four is not eight
        assert not any(a is b for a, b in zip(four.actions, eight.actions))
        copy = load_fixture("smoke_detector.json")
        assert copy is not smoke and copy == smoke
        assert semantics.packed(copy, 5) is four
        assert semantics.packed(copy, 15) is eight
        assert semantics._compiled.cache_info().currsize == 2
        q = config(smoke, Env=2, Ask=2)
        assert (semantics.unpack(eight, semantics.successors(
                    eight, semantics.pack(eight, q))[0])
                == semantics.unpack(four, semantics.successors(
                    four, semantics.pack(four, q))[0]))


def check_memo_identity(p, sizes, every=all_configs):
    """At each size n, the search's ``Packed`` gives the successors of
    the per-entry evaluation at every configuration of ``every(n_states,
    n)``, all on one ``Packed``, so that the memo answers each code whose
    nonzero-digit mask an earlier code filled. Returns how many of those
    ``Packed`` have a non-empty ``head``, which fires from the memo."""
    memoised = 0
    for n in sizes:
        packed = semantics.packed(p, n)
        for q in every(p.n_states, n):
            code = semantics.pack(packed, q)
            assert semantics.successors(packed, code) == (
                _oracle.per_entry_successors(packed, code)), (p.state_names, n, q)
        memoised += bool(packed.kernel[0])
    return memoised


def with_internal_head(rng, raw):
    """``raw`` with one to three single-source senders whose receive map
    moves nobody put before its actions, each under a random guard of
    ``raw`` or none, one in four with cap 2."""
    head = []
    for i in range(rng.randint(1, 3)):
        gname = rng.choice([None, *raw["guards"]])
        pool = raw["guards"][gname] if gname else raw["states"]
        send = [rng.choice(pool), rng.choice(raw["states"])]
        spec = {"name": f"h{i}", "kind": "sender",
                "sends": [send] * (2 if rng.random() < 0.25 else 1)}
        if gname:
            spec["guard"] = gname
        head.append(spec)
    return {**raw, "actions": head + raw["actions"]}


# internal steps under guards: D and E are the sources of no step of the
# leading run but lie outside the guards of t0 and t1
GUARDED_HEAD = {
    "states": ["A", "B", "C", "D", "E"], "init": "A",
    "guards": {"AB": ["A", "B"], "ABC": ["A", "B", "C"]},
    "actions": [
        {"name": "t0", "kind": "sender", "sends": [["A", "B"]], "guard": "AB"},
        {"name": "t1", "kind": "sender", "sends": [["B", "C"]], "guard": "ABC"},
        {"name": "t2", "kind": "sender", "sends": [["C", "A"]]},
        {"name": "m", "kind": "maximal", "sends": [["C", "D"]],
         "receives": [["A", "E"]], "guard": "ABC"},
        {"name": "t3", "kind": "sender", "sends": [["D", "A"]], "guard": "AB"}]}


class TestNonzeroDigitMemo:
    """The leading run of cap-1 single-source senders fires from a memo
    keyed by the code's nonzero-digit mask; every configuration must get
    the per-entry evaluation's successors, in order."""

    def test_ring_across_widths(self):
        # n = 1..9: the widths 1 to 4, both sides of each boundary
        p = internal_ring(8)
        assert check_memo_identity(p, range(1, 10), configs_of) == 9

    def test_guarded_head(self):
        p = validate(GUARDED_HEAD)
        assert check_memo_identity(p, range(1, 8)) == 7
        head, rest = semantics.packed(p, 3).kernel
        assert len(head) == 3 and len(rest) == 2

    def test_cap_two_head_has_no_memo(self):
        raw = {**GUARDED_HEAD, "actions": [
            {"name": "two", "kind": "sender", "sends": [["A", "C"]] * 2},
            *GUARDED_HEAD["actions"]]}
        p = validate(raw)
        # the cap-2 leader is not fast, so it ends the head at once
        assert check_memo_identity(p, range(1, 8)) == 0
        head, rest = semantics.packed(p, 3).kernel
        assert head == () and len(rest) == 6

    def test_random_protocols(self):
        rng = random.Random(1717)
        memoised = 0
        for _ in range(60):
            p = validate(with_internal_head(rng, _gen.random_raw(rng)))
            memoised += check_memo_identity(p, range(1, 5))
        assert memoised >= 100


def table_corpus():
    """The fixtures, 300 ``_gen.random_protocol`` and 300 benchmark
    ``random_model`` draws, the benchmark's ring-family shapes, the
    8-state internal ring and a 200-state chain."""
    protocols = perfbench_protocols()
    rng = random.Random(2323)
    yield from map(load_fixture, FIXTURES)
    for _ in range(300):
        yield _gen.random_protocol(rng, certified_only=False)
    for i in range(300):
        yield validate(protocols.random_model(random.Random(f"tables-{i}")))
    for shape in dict.fromkeys(q[:3] for q in perfbench_ring_queries()):
        yield validate(protocols.ring_family(*shape))
    yield internal_ring(8)
    yield validate(chain_raw(200))


class TestPackedTables:
    def test_match_outcomes_oracle(self):
        """Every action's tables at widths 1 to 5 equal the ones built
        from ``Action.outcomes``; a ``_Deltas`` memo is the same empty
        memo of the same action and width."""
        senders = 0
        for p in table_corpus():
            for a in p.actions:
                for width in range(1, 6):
                    got = semantics._packed_action(a, width)
                    want = _oracle.packed_action(a, width)
                    assert got == want, (p.state_names, a.name, width)
                    if got[2]:
                        senders += 1
                    else:
                        assert type(got[4]) is semantics._Deltas
                        assert (got[4].action, got[4].width) == (a, width)
                        assert not got[4]
        assert senders >= 4000
