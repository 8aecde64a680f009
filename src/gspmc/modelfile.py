"""Protocol file reading, writing, and core-form emission.

Files are UTF-8 JSON documents with sections ``states``, ``init``,
``guards``, ``actions``, ``sugar`` and ``property``. Parsing rejects
duplicate keys anywhere in the document (a silently-overwritten guard
or receive entry is nearly always an authoring mistake); structural
validation lives in :mod:`gspmc.model`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from gspmc.model import TRIVIAL_GUARD_NAME, Protocol


class ParseError(Exception):
    pass


class IoError(Exception):
    """File could not be read or written."""


@dataclass(frozen=True)
class ModelFile:
    """A parsed protocol document, before validation."""

    raw: dict

    @property
    def property_block(self) -> dict | None:
        return self.raw.get("property")


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def loads(text: str) -> ModelFile:
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("model file must contain a JSON object")
    return ModelFile(raw)


def parse_model(path) -> ModelFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        reason = f"{e.reason} at byte {e.start}"
        raise ParseError(f"{path}: not UTF-8 text ({reason})") from None
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
            "receives": [[names[src], names[dst]]
                         for src, dst in enumerate(a.receive_map)
                         if src != dst],
        }
        if a.guard.name != TRIVIAL_GUARD_NAME:
            entry["guard"] = a.guard.name
        doc["actions"].append(entry)
    if property_block is not None:
        doc["property"] = property_block
    return doc
