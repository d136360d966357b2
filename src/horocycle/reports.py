"""Report objects shared by every verification suite.

Serialized shape, for every check:
    {"check": str, "parameters": {...}, "items": [{"name", "expected", "got", "pass"}], "pass": bool}
Item fields are strings so reports are stable and diffable; a report passes
iff it has an item and every item passes, so an empty report never passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
