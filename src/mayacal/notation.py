"""Parser and formatter for Long Count and Calendar Round date strings.

Grammar (whitespace-tolerant, names case-insensitive):

    long count      ::= B.K.T.W.I            five dot-separated integers;
                                             the leading digit may be written
                                             "13(0)", era completion = baktun 13
    calendar round  ::= <1..13> <tzolkin-name> <0..19> <haab-month>
    combined        ::= long count calendar round

Parse errors carry the byte offset of the offending token.  The "13(0)"
parenthetical is display sugar for era completion; the parsed value is
baktun 13.  Any other parenthetical is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cycles import (
    ERA,
    HAAB_MONTHS,
    TZOLKIN_NAMES,
    CycleDate,
    HaabDate,
    LongCount,
    TzolkinDate,
    calendar_round_day,
    cycle_date,
)

_TZOLKIN_BY_NAME = {name.lower(): i for i, name in enumerate(TZOLKIN_NAMES)}
_HAAB_BY_NAME = {name.lower(): i for i, name in enumerate(HAAB_MONTHS)}

_LEADING_DIGIT = re.compile(r"(\d+)(?:\((\d+)\))?$")


class DateParseError(ValueError):
    """A malformed date string; ``position`` is the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class DateExpression:
    """A date as written: any subset of Long Count, Calendar Round, Kawil parts.

    Components are not cross-checked at construction; consistency for some
    day number is decided by :func:`resolution`.
    """

    long_count: LongCount | None = None
    tzolkin: TzolkinDate | None = None
    haab: HaabDate | None = None
    kawil: tuple[int, int] | None = None  # (count 0..818, direction-color 0..3)

    def __post_init__(self) -> None:
        if self.long_count is None and self.tzolkin is None and self.haab is None and self.kawil is None:
            raise ValueError("date expression needs at least one component")
        if self.kawil is not None:
            count, color = self.kawil
            if not 0 <= count <= 818:
                raise ValueError(f"Kawil count must be 0..818, got {count}")
            if not 0 <= color <= 3:
                raise ValueError(f"direction-color must be 0..3, got {color}")

    def matches(self, cd: CycleDate) -> bool:
        """Whether every present component agrees with the given day."""
        if self.long_count is not None and self.long_count != cd.long_count:
            return False
        if self.tzolkin is not None and self.tzolkin != cd.tzolkin:
            return False
        if self.haab is not None and self.haab != cd.haab:
            return False
        if self.kawil is not None and self.kawil != (cd.kawil, cd.direction_color):
            return False
        return True


@dataclass(frozen=True)
class Resolution:
    """Days in a window matching an expression, with the inconsistency verdict."""

    days: tuple[int, ...]
    inconsistent: bool  # Long Count resolved but another component disagreed


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
    if lead.group(2) is not None and lead.group(0) != "13(0)":
        raise DateParseError(f"only 13(0) marks an era completion, got {parts[0]!r}", positions[0])
    digits = [int(lead.group(1))]
    for part, at in zip(parts[1:], positions[1:]):
        if not part.isdigit():
            raise DateParseError(f"bad long count digit {part!r}", at)
        digits.append(int(part))
    baktun, katun, tun, winal, kin = digits
    for name, value, limit, at in (
        ("katun", katun, 19, positions[1]),
        ("tun", tun, 19, positions[2]),
        ("winal", winal, 17, positions[3]),
        ("kin", kin, 19, positions[4]),
    ):
        if value > limit:
            raise DateParseError(f"{name} {value} out of range 0..{limit}", at)
    return LongCount(baktun, katun, tun, winal, kin)


def _parse_calendar_round(tokens: list[tuple[str, int]], text_len: int) -> tuple[TzolkinDate, HaabDate]:
    if len(tokens) < 4:
        missing = text_len if not tokens else tokens[-1][1] + len(tokens[-1][0])
        raise DateParseError(
            "calendar round needs <number> <tzolkin-name> <day> <haab-month>", missing
        )
    (num_tok, num_at), (tz_tok, tz_at), (day_tok, day_at), (month_tok, month_at) = tokens[:4]
    if len(tokens) > 4:
        raise DateParseError(f"unexpected trailing text {tokens[4][0]!r}", tokens[4][1])

    if not num_tok.isdigit():
        raise DateParseError(f"bad Tzolk'in number {num_tok!r}", num_at)
    number = int(num_tok)
    if not 1 <= number <= 13:
        raise DateParseError(f"Tzolk'in number {number} out of range 1..13", num_at)
    tz_index = _TZOLKIN_BY_NAME.get(tz_tok.lower())
    if tz_index is None:
        raise DateParseError(f"unknown Tzolk'in day name {tz_tok!r}", tz_at)

    if not day_tok.isdigit():
        raise DateParseError(f"bad Haab' day {day_tok!r}", day_at)
    day = int(day_tok)
    month_index = _HAAB_BY_NAME.get(month_tok.lower())
    if month_index is None:
        raise DateParseError(f"unknown Haab' month name {month_tok!r}", month_at)
    limit = 4 if month_index == 18 else 19
    if day > limit:
        raise DateParseError(
            f"Haab' day {day} out of range 0..{limit} for {HAAB_MONTHS[month_index]}", day_at
        )
    return TzolkinDate(number, tz_index), HaabDate(day, month_index)


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
    e.g. "365x13(0).0.0.0.0" for the 5 Aeon.
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


def _first_hit(base: int, period: int, lo: int) -> int:
    """Smallest day >= lo congruent to base mod period."""
    if lo <= base:
        return base
    return lo + (base - lo) % period


def resolution(expr: DateExpression, window: tuple[int, int]) -> Resolution:
    """All days in the inclusive window matching every present component."""
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"window must satisfy 0 <= lo <= hi, got {window}")

    if expr.long_count is not None:
        day = expr.long_count.days
        if not lo <= day <= hi:
            return Resolution(days=(), inconsistent=False)
        if expr.matches(cycle_date(day)):
            return Resolution(days=(day,), inconsistent=False)
        return Resolution(days=(), inconsistent=True)

    if expr.tzolkin is not None and expr.haab is not None:
        base = calendar_round_day(expr.tzolkin, expr.haab)
        if base is None:
            return Resolution(days=(), inconsistent=False)
        period = 18980
    elif expr.tzolkin is not None:
        base = (expr.tzolkin.position - 160) % 260
        period = 260
    elif expr.haab is not None:
        base = (expr.haab.position - 349) % 365
        period = 365
    else:
        count, color = expr.kawil  # type: ignore[misc]  # post-init guarantees presence
        base = (819 * color + count - 3) % 3276
        period = 3276

    hits = []
    day = _first_hit(base, period, lo)
    while day <= hi:
        if expr.matches(cycle_date(day)):
            hits.append(day)
        day += period
    return Resolution(days=tuple(hits), inconsistent=False)
