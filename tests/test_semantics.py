from __future__ import annotations

import itertools
import random

import pytest

from gspmc.model import validate
from gspmc.semantics import NotEnabled, enabled, fire, successors

import _gen
import _oracle
from conftest import config


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
        out = fire(smoke, q, smoke.action("Smoke"))
        # one Ask sends to Pick; the other two follow Ask->Pick; both Env->Idle
        assert out.successor == config(smoke, Idle=2, Pick=3)
        assert out.participation == config(smoke, Ask=1)

    def test_choose_two_sender(self, smoke_2sender):
        p = smoke_2sender
        out = fire(p, config(p, Idle=1, Pick=4), p.action("Choose"))
        assert out.successor == config(p, Idle=3, Report=2)
        assert out.participation == config(p, Pick=2)

    def test_choose_two_maximal_partial(self, smoke):
        out = fire(smoke, config(smoke, Idle=4, Pick=1), smoke.action("Choose"))
        # only one Pick available: u = min(q, v) pointwise
        assert out.successor == config(smoke, Idle=4, Report=1)
        assert out.participation == config(smoke, Pick=1)

    def test_fire_requires_enabled(self, smoke):
        with pytest.raises(NotEnabled):
            fire(smoke, config(smoke, Env=1), smoke.action("Smoke"))

    def test_successors_enumerates_enabled_only(self, smoke):
        q = config(smoke, Env=1, Ask=1)
        outs = successors(smoke, q)
        assert sorted(name for name, _ in outs) == ["Smoke", "i"]


def all_configs(n_states, total):
    """Every count vector over n_states with at least one process and at
    most `total` in all."""
    for tot in range(1, total + 1):
        for cuts in itertools.combinations(range(tot + n_states - 1),
                                           n_states - 1):
            prev, vec = -1, []
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(tot + n_states - 2 - prev)
            yield tuple(vec)


def check_against_oracle(p, total):
    """successors (in action declaration order) and enabled equal the
    multiset oracle at every configuration of at most ``total`` processes."""
    for q in all_configs(p.n_states, total):
        expected = [
            (name, tuple(succ.get(s, 0) for s in range(p.n_states)))
            for name, succ in _oracle.multiset_successors(
                p, _oracle.as_counter(q))]
        assert successors(p, q) == expected, (p.state_names, q)
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
            for name, succ in successors(smoke, q):
                a = smoke.action(name)
                out = fire(smoke, q, a)
                assert out.successor == succ
                assert sum(succ) == sum(q)
                if a.kind == "sender":
                    assert sum(out.participation) == a.arity
                else:
                    assert 1 <= sum(out.participation) <= a.arity


# One maximal action whose two send slots leave I for different
# destinations: with one process in I, only the first slot fires.
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
    action takes them in ascending send index, so the successor depends
    on the order the compiled per-source destination lists keep."""

    def test_first_slot_fires_first(self):
        p = validate(SHARED_SOURCE)
        m = p.action("m")
        out = fire(p, (1, 0, 0, 0), m)
        assert out.successor == (0, 1, 0, 0)
        assert out.participation == (1, 0, 0, 0)
        assert fire(p, (3, 0, 0, 1), m).successor == (1, 1, 1, 1)
        check_against_oracle(p, total=4)

    def test_slot_order_decides(self):
        raw = {**SHARED_SOURCE, "actions": [
            {**SHARED_SOURCE["actions"][0], "sends": [["I", "B"], ["I", "A"]]}]}
        p = validate(raw)
        assert fire(p, (1, 0, 0, 0), p.action("m")).successor == (0, 0, 1, 0)
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
