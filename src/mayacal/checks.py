"""Structured pass/fail checks and JSON-ready values, shared by the verification suites and the CLI."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from typing import Any, NamedTuple


class Rows(list):
    """A list made lazily: ``row(key)`` for each of ``keys``, never held in memory whole.

    The list itself stays empty.  Iterating makes the rows, and truth asks
    ``keys``.  ``json``'s pure-Python encoder, the one ``indent`` selects,
    only tests ``not rows`` and iterates, so the rows stream through it.
    There is no length: ``keys`` may be a range too long for ``len``.
    """

    def __init__(self, row: Callable[[Any], dict], keys: Sequence) -> None:
        super().__init__()
        self.row, self.keys = row, keys

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __len__(self) -> int:
        raise TypeError("Rows has no length; count its keys")

    def __iter__(self) -> Iterator[Any]:
        return (jsonable(self.row(key)) for key in self.keys)


def jsonable(value: Any) -> Any:
    """Render exact values losslessly for machine output (Fractions as 'n/d')."""
    if isinstance(value, Rows):
        return value  # each row is made jsonable as it is read
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if type(value) in (list, tuple):  # a record is a tuple too, but renders as its str
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


class Check(NamedTuple):
    """One verified identity: a name, the expected value, and what was computed."""

    name: str
    expected: Any
    computed: Any
    passed: bool

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "expected": jsonable(self.expected),
            "computed": jsonable(self.computed),
            "pass": self.passed,
        }


class Report:
    """A named bundle of checks; ``ok`` iff every check passed."""

    __slots__ = ("title", "checks")

    def __init__(self, title: str, checks: list[Check] | None = None) -> None:
        self.title, self.checks = title, [] if checks is None else checks

    def __repr__(self) -> str:
        return f"Report(title={self.title!r}, checks={self.checks!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is Report and (self.title, self.checks) == (other.title, other.checks)

    def check(self, name: str, expected: Any, computed: Any) -> Check:
        c = Check(name, expected, computed, expected == computed)
        self.checks.append(c)
        return c

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)
