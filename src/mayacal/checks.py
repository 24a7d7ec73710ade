"""Structured pass/fail checks and JSON-ready values, shared by the verification suites and the CLI."""

from __future__ import annotations

from numbers import Number, Rational
from typing import Any, NamedTuple


def jsonable(value: Any) -> Any:
    """A check's value, written losslessly (a Fraction as its str, 'n/d'); payloads are built of such values already."""
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


class Report(NamedTuple("Report", [("title", str), ("checks", list[Check])])):
    """A named bundle of checks; ``ok`` iff every check passed.  ``checks`` is its own list, fresh when not given."""

    __slots__ = ()

    def __new__(cls, title: str, checks: list[Check] | None = None) -> Report:
        return super().__new__(cls, title, [] if checks is None else checks)

    def check(self, name: str, expected: Any, computed: Any) -> Check:
        """Record whether ``computed`` equals ``expected``; an inexact number in either is refused,
        since ``Fraction(1, 2) == 0.5`` would let a float pass."""
        if _inexact(expected) or _inexact(computed):
            raise TypeError(f"check {name!r} compares an inexact value: expected {expected!r}, got {computed!r}")
        c = Check(name, expected, computed, expected == computed)
        self.checks.append(c)
        return c

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _inexact(value: Any) -> bool:
    """Whether ``value`` holds, at any depth, a number that is not rational (a float, complex or Decimal)."""
    if isinstance(value, Number):
        return not isinstance(value, Rational)
    if isinstance(value, dict):
        return any(_inexact(k) or _inexact(v) for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):  # a record is a tuple
        return any(map(_inexact, value))
    return False
