"""Protocol file reading, writing, and core-form emission.

Files are UTF-8 JSON documents with sections ``states``, ``init``,
``guards``, ``actions``, ``sugar`` and ``property``. Parsing rejects
duplicate keys anywhere in the document (a silently-overwritten guard
or receive entry is nearly always an authoring mistake); structural
validation lives in :mod:`gspmc.model`.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple

from gspmc.model import TRIVIAL_GUARD_NAME, Protocol


class ParseError(Exception):
    pass


class IoError(Exception):
    """File could not be read or written."""


class ModelFile(namedtuple("ModelFile", "raw")):
    """A parsed protocol document, before validation."""

    __slots__ = ()

    @property
    def property_block(self) -> dict | None:
        return self.raw.get("property")


def _no_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# one decoder for every document: ``json.loads`` with a keyword builds a
# new decoder and scanner per call
_DECODER = json.JSONDecoder(object_pairs_hook=_no_duplicate_keys)


def _long_integer(text: str) -> str | None:
    """Where the first integer literal past the int-string limit is, and
    its digit count; a float (with a fraction or exponent) has no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # a string, or a number: its integer part, then its fraction and exponent
    for m in re.finditer(r'"[^"\\]*(?:\\.[^"\\]*)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)', text):
        if limit and m[1] and not m[2] and len(m[1]) > limit:
            line = text.count("\n", 0, m.start()) + 1
            column = m.start() - text.rfind("\n", 0, m.start())
            return (f"line {line}, column {column}: integer literal of "
                    f"{len(m[1])} digits, more than the {limit} allowed")


def loads(text: str) -> ModelFile:
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ParseError("nesting too deep") from None
    except ValueError as e:  # an integer literal past the int-string limit
        raise ParseError(_long_integer(text) or str(e)) from None
    if not isinstance(raw, dict):
        raise ParseError("model file must contain a JSON object")
    return ModelFile(raw)


def parse_model(path) -> ModelFile:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        reason = f"{e.reason} at byte {e.start}"
        raise ParseError(f"{path}: not UTF-8 text ({reason})") from None
    if "\r" in text:  # text mode's universal newlines, for error positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return loads(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def render(raw: dict) -> str:
    """Canonical text for a model document (parse . render = identity)."""
    return json.dumps(raw, indent=2, ensure_ascii=False) + "\n"


def core_document(protocol: Protocol, property_block: dict | None = None) -> dict:
    """Emit a validated protocol as a core-only document.

    Sugar has already been expanded, so the result contains plain
    actions only; re-validating it yields a protocol with the same
    structure, and so the same verdict from every analysis.
    """
    names = protocol.state_names
    doc: dict = {
        "states": list(names),
        "init": names[protocol.init],
        "guards": {g.name: sorted(names[s] for s in g.members)
                   for g in protocol.guards
                   if g.name != TRIVIAL_GUARD_NAME},
        "actions": [],
    }
    for a in protocol.actions:
        entry = {
            "name": a.name,
            "kind": a.kind,
            "arity": a.arity,
            "sends": [[names[s.src], names[s.dst]] for s in a.sends],
            "receives": [[names[src], names[dst]] for src, dst in a.moves],
        }
        if a.guard.name != TRIVIAL_GUARD_NAME:
            entry["guard"] = a.guard.name
        doc["actions"].append(entry)
    if property_block is not None:
        doc["property"] = property_block
    return doc
