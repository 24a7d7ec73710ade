"""Parser and formatter for Long Count and Calendar Round date strings.

Grammar (whitespace-tolerant, names case-insensitive):

    long count      ::= B.K.T.W.I            five dot-separated integers;
                                             the leading digit may be written
                                             "13(0)", era completion = baktun 13,
                                             or "k×13(0)" with k >= 2 = baktun 13k
    calendar round  ::= <1..13> <tzolkin-name> <0..19> <haab-month>
    combined        ::= long count calendar round

Parse errors carry the byte offset of the offending token.  "13(0)" and
"k×13(0)" are the era-completion sugar that :func:`era_display` prints; any
other parenthetical or multiplier, or an ASCII "x", is an error.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .arith import crt
from .cycles import (
    ERA,
    HAAB_DAYS,
    HAAB_EPOCH,
    HAAB_MONTHS,
    KAWIL_CYCLE,
    KAWIL_DAYS,
    KAWIL_EPOCH,
    LONG_COUNT_DIGITS,
    TZOLKIN_DAYS,
    TZOLKIN_EPOCH,
    TZOLKIN_NAMES,
    HaabDate,
    LongCount,
    TzolkinDate,
    cycle_date,
)

_TZOLKIN_BY_NAME = {name.lower(): i for i, name in enumerate(TZOLKIN_NAMES)}
_HAAB_BY_NAME = {name.lower(): i for i, name in enumerate(HAAB_MONTHS)}

_LEADING_DIGIT = re.compile(r"(?:(\d+)×)?(\d+)(\(\d+\))?$")


class DateParseError(ValueError):
    """A malformed date string; ``position`` is the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DateExpression(NamedTuple("DateExpression", [
    ("long_count", LongCount | None),
    ("tzolkin", TzolkinDate | None),
    ("haab", HaabDate | None),
    ("kawil", tuple[int, int] | None),  # (count 0..818, direction-color 0..3)
])):
    """A date as written: any subset of Long Count, Calendar Round, Kawil parts.

    Components are not cross-checked at construction; consistency for some
    day number is decided by :func:`resolution`.
    """

    __slots__ = ()

    def __new__(cls, long_count=None, tzolkin=None, haab=None, kawil=None) -> DateExpression:
        if long_count is None and tzolkin is None and haab is None and kawil is None:
            raise ValueError("date expression needs at least one component")
        if kawil is not None:
            count, color = kawil
            if not 0 <= count <= 818:
                raise ValueError(f"Kawil count must be 0..818, got {count}")
            if not 0 <= color <= 3:
                raise ValueError(f"direction-color must be 0..3, got {color}")
        return super().__new__(cls, long_count, tzolkin, haab, kawil)


class Resolution(NamedTuple):
    """Days in a window matching an expression, with the inconsistency verdict."""

    days: range
    inconsistent: bool  # Long Count in the window but another component disagreed


def read_int(token: str, what: str, at: int) -> int:
    """The value of the decimal digits ``token``, or a DateParseError at ``at``
    when it is longer than the interpreter converts (4300 digits by default)."""
    try:
        return int(token)
    except ValueError:
        raise DateParseError(f"{what} is too long: {len(token)} digits", at) from None


def expression_from_day(day: int) -> DateExpression:
    """The full combined expression (Long Count + Calendar Round) of a day."""
    cd = cycle_date(day)
    return DateExpression(long_count=cd.long_count, tzolkin=cd.tzolkin, haab=cd.haab)


def _parse_long_count(word: str, offset: int) -> LongCount:
    parts = word.split(".")
    if len(parts) != 5:
        raise DateParseError(
            f"long count needs 5 dot-separated digits, got {len(parts)}", offset
        )
    positions = []
    at = offset
    for part in parts:
        positions.append(at)
        at += len(part) + 1
    lead = _LEADING_DIGIT.match(parts[0])
    if lead is None:
        raise DateParseError(f"bad long count digit {parts[0]!r}", positions[0])
    multiple, baktun, era = lead.groups()
    if era is not None and baktun + era != "13(0)":
        raise DateParseError(f"only 13(0) marks an era completion, got {parts[0]!r}", positions[0])
    if multiple is not None and (era is None or read_int(multiple, "era multiple", positions[0]) < 2):
        raise DateParseError(f"an era multiple is k×13(0) with k >= 2, got {parts[0]!r}", positions[0])
    digits = [read_int(baktun, "baktun", positions[0]) * int(multiple or 1)]
    for part, at in zip(parts[1:], positions[1:]):
        if not part.isdecimal():
            raise DateParseError(f"bad long count digit {part!r}", at)
        digits.append(read_int(part, "long count digit", at))
    for (name, limit), value, at in zip(LONG_COUNT_DIGITS[1:], digits[1:], positions[1:]):
        if value > limit:
            raise DateParseError(f"{name} {value} out of range 0..{limit}", at)
    return LongCount(*digits)


def _parse_calendar_round(tokens: list[tuple[str, int]], text_len: int) -> tuple[TzolkinDate, HaabDate]:
    if len(tokens) < 4:
        missing = text_len if not tokens else tokens[-1][1] + len(tokens[-1][0])
        raise DateParseError(
            "calendar round needs <number> <tzolkin-name> <day> <haab-month>", missing
        )
    (num_tok, num_at), (tz_tok, tz_at), (day_tok, day_at), (month_tok, month_at) = tokens[:4]
    if len(tokens) > 4:
        raise DateParseError(f"unexpected trailing text {tokens[4][0]!r}", tokens[4][1])

    if not num_tok.isdecimal():
        raise DateParseError(f"bad Tzolk'in number {num_tok!r}", num_at)
    number = read_int(num_tok, "Tzolk'in number", num_at)
    if not 1 <= number <= 13:
        raise DateParseError(f"Tzolk'in number {number} out of range 1..13", num_at)
    tz_index = _TZOLKIN_BY_NAME.get(tz_tok.lower())
    if tz_index is None:
        raise DateParseError(f"unknown Tzolk'in day name {tz_tok!r}", tz_at)

    if not day_tok.isdecimal():
        raise DateParseError(f"bad Haab' day {day_tok!r}", day_at)
    day = read_int(day_tok, "Haab' day", day_at)
    month_index = _HAAB_BY_NAME.get(month_tok.lower())
    if month_index is None:
        raise DateParseError(f"unknown Haab' month name {month_tok!r}", month_at)
    try:
        haab = HaabDate(day, month_index)  # the day limit: 19, or 4 in the Uayeb
    except ValueError as exc:
        raise DateParseError(str(exc), day_at) from None
    return TzolkinDate(number, tz_index), haab


def parse(text: str) -> DateExpression:
    """Parse a Long Count, Calendar Round, or combined date string."""
    tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise DateParseError("empty date string", 0)

    long_count = None
    if "." in tokens[0][0]:
        long_count = _parse_long_count(tokens[0][0], tokens[0][1])
        tokens = tokens[1:]

    tzolkin = haab = None
    if tokens:
        tzolkin, haab = _parse_calendar_round(tokens, len(text))
    elif long_count is None:
        raise DateParseError("not a date string", 0)
    return DateExpression(long_count=long_count, tzolkin=tzolkin, haab=haab)


def era_display(day: int) -> str:
    """Era-completion notation for whole multiples of the 13-baktun Era.

    Day 0 and day 1872000 are both written "13(0).0.0.0.0" (creation is the
    completion of the previous era); larger multiples carry a multiplier,
    e.g. "365×13(0).0.0.0.0" for the 5 Aeon, which :func:`parse` reads back.
    """
    if day % ERA != 0:
        raise ValueError(f"{day} is not a multiple of the {ERA}-day era")
    k = day // ERA
    return "13(0).0.0.0.0" if k <= 1 else f"{k}×13(0).0.0.0.0"


def format_date(expr: DateExpression, style: str = "plain") -> str:
    """Render an expression; ``annotated`` style marks era completions as 13(0)."""
    if style not in ("plain", "annotated"):
        raise ValueError(f"style must be 'plain' or 'annotated', got {style!r}")
    parts = []
    if expr.long_count is not None:
        days = expr.long_count.days
        if style == "annotated" and days % ERA == 0:
            parts.append(era_display(days))
        else:
            parts.append(str(expr.long_count))
    if expr.tzolkin is not None:
        parts.append(str(expr.tzolkin))
    if expr.haab is not None:
        parts.append(str(expr.haab))
    return " ".join(parts)


def resolution(expr: DateExpression, window: tuple[int, int]) -> Resolution:
    """All days in the inclusive window matching every present component.

    Each cycle is one congruence on the day, joined by :func:`crt`; a Long
    Count narrows the window to its own day.
    """
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"window must satisfy 0 <= lo <= hi, got {window}")

    congruences = []
    if expr.tzolkin is not None:
        congruences.append((expr.tzolkin.position - TZOLKIN_EPOCH, TZOLKIN_DAYS))
    if expr.haab is not None:
        congruences.append((expr.haab.position - HAAB_EPOCH, HAAB_DAYS))
    if expr.kawil is not None:
        count, color = expr.kawil
        congruences.append((KAWIL_DAYS * color + count - KAWIL_EPOCH, KAWIL_CYCLE))
    if expr.long_count is not None:
        day = expr.long_count.days
        lo, hi = max(lo, day), min(hi, day)  # lo > hi when the day is outside

    solved = crt(congruences)
    days = range(0)
    if solved is not None:
        base, period = solved
        days = range(lo + (base - lo) % period, hi + 1, period)
    return Resolution(days=days, inconsistent=expr.long_count is not None and lo <= hi and not days)
