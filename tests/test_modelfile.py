from __future__ import annotations

import itertools
import random
import sys

import pytest

from gspmc import modelfile
from gspmc.model import validate
from gspmc.modelfile import (
    IoError,
    ParseError,
    core_document,
    loads,
    parse_model,
    render,
)

import _gen
from conftest import fixture_path, named_successors


class TestLoads:
    def test_round_trip(self):
        raw = {"states": ["A"], "init": "A", "guards": {}, "actions": []}
        assert loads(render(raw)).raw == raw

    def test_syntax_error_cites_position(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            loads('{\n  "states": [,]\n}')

    def test_duplicate_top_level_key(self):
        with pytest.raises(ParseError, match="duplicate key 'init'"):
            loads('{"init": "A", "init": "B"}')

    def test_duplicate_nested_key(self):
        text = '{"guards": {"G": ["A"], "G": ["B"]}}'
        with pytest.raises(ParseError, match="duplicate key 'G'"):
            loads(text)

    def test_non_object_document(self):
        with pytest.raises(ParseError, match="JSON object"):
            loads("[1, 2]")

    def test_deep_nesting(self):
        depth = 100_000
        with pytest.raises(ParseError, match="^nesting too deep$"):
            loads('{"states": ' + "[" * depth + "]" * depth + "}")

    def test_integer_past_the_digit_limit_cites_position(self):
        limit = getattr(sys, "get_int_max_str_digits", None)
        if limit is None or not limit():
            pytest.skip("this interpreter has no int-string limit")
        long = "7" * (limit() + 1)
        # the same digits in a string, a fraction and an exponent are no
        # integer literal; the first one is the negative count
        text = ('{"states": ["A", "' + long + '"],\n "x": 1.' + long
                + ', "y": 1e' + long + ', "z": ' + long + '.5,\n'
                + '  "property": {"count": -' + long + '}, "w": ' + long + "}")
        with pytest.raises(ParseError) as e:
            loads(text)
        column = len('  "property": {"count": ') + 1
        assert str(e.value) == (f"line 3, column {column}: integer literal of "
                                f"{limit() + 1} digits, more than the {limit()} allowed")

    def test_property_block(self):
        mf = loads('{"property": {"target": "T", "count": 2}}')
        assert mf.property_block == {"target": "T", "count": 2}
        assert loads("{}").property_block is None


class TestParseModel:
    def test_reads_fixture(self):
        mf = parse_model(fixture_path("smoke_detector.json"))
        assert mf.raw["init"] == "Env"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            parse_model(tmp_path / "nope.json")

    def test_parse_error_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError, match="bad.json"):
            parse_model(bad)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_error_position_counts_every_line_break(self, tmp_path, newline):
        bad = tmp_path / "bad.json"
        lines = ["{", '  "init": "A",', '  "states": [,]', "}"]
        bad.write_bytes(newline.join(lines).encode())
        with pytest.raises(ParseError,
                           match=r"bad\.json: line 3, column 14: Expecting value$"):
            parse_model(bad)

    def test_byte_order_mark_is_refused(self, tmp_path):
        # as json.loads refuses it, at the mark itself
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + render({"states": ["A"]}).encode())
        with pytest.raises(ParseError) as err:
            parse_model(bom)
        assert str(err.value) == (
            f"{bom}: line 1, column 1: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig)")


class TestCoreDocument:
    def test_smoke_shape(self, smoke):
        doc = core_document(smoke)
        assert doc["states"] == list(smoke.state_names)
        assert doc["init"] == "Env"
        assert doc["guards"] == {
            "G1": ["Ask", "Env"],
            "G2": ["Idle", "Pick"],
            "G3": ["Idle", "Report"],
        }
        by_name = {a["name"]: a for a in doc["actions"]}
        assert by_name["i"] == {
            "name": "i", "kind": "sender", "arity": 1,
            "sends": [["Env", "Ask"]], "receives": [], "guard": "G1"}
        assert by_name["Reset#2"]["sends"] == [["Idle", "Env"]]
        assert sorted(by_name["Reset#2"]["receives"]) == [
            ["Idle", "Env"], ["Report", "Env"]]
        assert "property" not in doc

    def test_property_passthrough(self, smoke):
        doc = core_document(smoke, {"target": "Report", "count": 3})
        assert doc["property"] == {"target": "Report", "count": 3}

    def test_round_trip_is_stable(self, smoke):
        doc = core_document(smoke)
        again = core_document(validate(doc))
        assert again == doc

    def test_semantics_preserved(self):
        rng = random.Random(515)
        for _ in range(25):
            p = _gen.random_protocol(rng, certified_only=False)
            q = validate(core_document(p))
            assert q.state_names == p.state_names
            for vec in itertools.product(range(3), repeat=p.n_states):
                if not any(vec):
                    continue
                assert (set(named_successors(p, vec))
                        == set(named_successors(q, vec)))

    def test_render_parse_identity(self, smoke):
        doc = core_document(smoke, {"target": "Report", "count": 3})
        assert loads(render(doc)).raw == doc
        assert modelfile.render(loads(render(doc)).raw) == render(doc)
