"""Report objects shared by every verification suite.

Serialized shape, for every check:
    {"check": str, "parameters": {...}, "items": [{"name", "expected", "got", "pass"}], "pass": bool}
Item fields are strings so reports are stable and diffable; a report passes
iff it has an item and every item passes, so an empty report never passes.
`write_json` is the one serializer of reports; its bytes are those of
`json.dump(obj, fh, indent=2, sort_keys=True)`, through json's C string escaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


@dataclass
class ReportItem:
    name: str
    expected: str
    got: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "got": self.got,
            "pass": self.passed,
        }


@dataclass
class CheckReport:
    check: str
    parameters: dict = field(default_factory=dict)
    items: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.items) and all(item.passed for item in self.items)

    def add(self, name: str, expected, got, passed: bool):
        self.items.append(ReportItem(name, str(expected), str(got), passed))

    def failures(self) -> list:
        return [item for item in self.items if not item.passed]

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "items": [item.to_json() for item in self.items],
            "pass": self.passed,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.check}: {status} ({len(self.items)} items, {len(self.failures())} failures)"


def write_json(obj, fh) -> None:
    """Write obj as `json.dump(obj, fh, indent=2, sort_keys=True)` would.

    Only dicts with str keys, lists, tuples, str, int, bool and None are
    written; anything else raises TypeError.  The text is streamed: a
    container whose entries hold containers is written entry by entry, any
    other value as one piece, so no whole report is held in memory."""
    _write(obj, "\n", fh.write)


# the JSON text of each scalar type, by exact type; bool comes before int for isinstance
_ATOMS = {str: _quote, bool: {False: "false", True: "true"}.__getitem__, int: int.__repr__, type(None): lambda _: "null"}


def _write(obj, newline: str, write) -> None:
    if isinstance(obj, dict):
        keys = sorted(obj)
        heads, values, ends = [_quote(k) + ": " for k in keys], [obj[k] for k in keys], "{}"
    elif isinstance(obj, (list, tuple)):
        heads, values, ends = [""] * len(obj), obj, "[]"
    else:
        kind = next((kind for kind in _ATOMS if isinstance(obj, kind)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        write(_ATOMS[kind](obj))
        return
    inner = newline + "  "
    try:
        texts = [_ATOMS[type(v)](v) for v in values]
    except KeyError:  # an entry that is not of an exact scalar type: entry by entry
        for i, v in enumerate(values):
            write((ends[0] if i == 0 else ",") + inner + heads[i])
            _write(v, inner, write)
        write(newline + ends[1])
        return
    write(ends[0] + inner + ("," + inner).join(map(str.__add__, heads, texts)) + newline + ends[1] if texts else ends)
