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

from .arith import checked_replace, crt
from .cycles import (
    ERA,
    HAAB_DAYS,
    HAAB_EPOCH,
    HAAB_MONTHS,
    KAWIL_CYCLE,
    KAWIL_DAYS,
    KAWIL_EPOCH,
    LONG_COUNT_DIGITS,
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
    _replace = checked_replace

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
    return DateExpression._make((cd.long_count, cd.tzolkin, cd.haab, None))


def _parse_baktun(lead: str, at: int) -> int:
    """Plain digits, or the era sugar 13(0) or k×13(0) that :func:`era_display` prints."""
    if lead.isdecimal():
        return read_int(lead, "baktun", at)
    match = _LEADING_DIGIT.match(lead)
    if match is None:
        raise DateParseError(f"bad long count digit {lead!r}", at)
    multiple, baktun, era = match.groups()
    if era is not None and baktun + era != "13(0)":
        raise DateParseError(f"only 13(0) marks an era completion, got {lead!r}", at)
    if multiple is not None and (era is None or read_int(multiple, "era multiple", at) < 2):
        raise DateParseError(f"an era multiple is k×13(0) with k >= 2, got {lead!r}", at)
    return read_int(baktun, "baktun", at) * int(multiple or 1)


def _parse_long_count(word: str, offset: int) -> LongCount:
    parts = word.split(".")
    if len(parts) != 5:
        raise DateParseError(f"long count needs 5 dot-separated digits, got {len(parts)}", offset)
    digits = [_parse_baktun(parts[0], offset)]
    at = offset + len(parts[0]) + 1
    out_of_range = None  # raised after the loop: a bad digit further on is reported first
    for (name, limit), part in zip(LONG_COUNT_DIGITS[1:], parts[1:]):
        if not part.isdecimal():
            raise DateParseError(f"bad long count digit {part!r}", at)
        value = read_int(part, "long count digit", at)
        if value > limit and out_of_range is None:
            out_of_range = DateParseError(f"{name} {value} out of range 0..{limit}", at)
        digits.append(value)
        at += len(part) + 1
    if out_of_range is not None:
        raise out_of_range
    return LongCount._make(digits)


def _parse_calendar_round(tokens: list[tuple[str, int]]) -> tuple[TzolkinDate, HaabDate]:
    if len(tokens) < 4:
        last, at = tokens[-1]
        raise DateParseError("calendar round needs <number> <tzolkin-name> <day> <haab-month>", at + len(last))
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
    return TzolkinDate._make((number, tz_index)), haab


def parse(text: str) -> DateExpression:
    """Parse a Long Count, Calendar Round, or combined date string."""
    tokens, at = [], 0
    for word in text.split():  # str.split and re's \S+ agree on what is whitespace
        at = text.index(word, at)
        tokens.append((word, at))
        at += len(word)
    if not tokens:
        raise DateParseError("empty date string", 0)

    long_count = None
    if "." in tokens[0][0]:
        long_count = _parse_long_count(tokens[0][0], tokens[0][1])
        tokens = tokens[1:]

    tzolkin = haab = None
    if tokens:
        tzolkin, haab = _parse_calendar_round(tokens)
    return DateExpression._make((long_count, tzolkin, haab, None))


def era_display(day: int) -> str:
    """Era-completion notation for whole multiples of the 13-baktun Era.

    Day 0 and day 1872000 are both written "13(0).0.0.0.0" (creation is the
    completion of the previous era); larger multiples carry a multiplier,
    e.g. "365×13(0).0.0.0.0" for the 5 Aeon, which :func:`parse` reads back.
    """
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    if day % ERA != 0:
        raise ValueError(f"{day} is not a multiple of the {ERA}-day era")
    k = day // ERA
    return "13(0).0.0.0.0" if k <= 1 else f"{k}×13(0).0.0.0.0"


def format_date(expr: DateExpression, style: str = "plain") -> str:
    """Render an expression; ``annotated`` style marks era completions as 13(0)."""
    if style not in ("plain", "annotated"):
        raise ValueError(f"style must be 'plain' or 'annotated', got {style!r}")
    long_count, tzolkin, haab, _ = expr
    parts = []
    if long_count is not None:
        if style == "annotated" and long_count.days % ERA == 0:
            parts.append(era_display(long_count.days))
        else:
            parts.append(str(long_count))
    if tzolkin is not None:
        parts.append(str(tzolkin))
    if haab is not None:
        parts.append(str(haab))
    return " ".join(parts)


def resolution(expr: DateExpression, window: tuple[int, int]) -> Resolution:
    """All days in the inclusive window matching every present component.

    Each cycle is a congruence on the day (the Tzolk'in two, one per wheel),
    all joined by one :func:`crt`; a Long Count narrows the window to its own day.
    """
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"window must satisfy 0 <= lo <= hi, got {window}")

    long_count, tzolkin, haab, kawil = expr
    congruences = []
    if tzolkin is not None:
        # One congruence per wheel: the day's Tzolk'in ordinal, day + TZOLKIN_EPOCH - 1,
        # is number - 1 mod 13 and name_index mod 20.
        number, name_index = tzolkin
        congruences += ((number - TZOLKIN_EPOCH, 13), (name_index + 1 - TZOLKIN_EPOCH, 20))
    if haab is not None:
        congruences.append((haab.position - HAAB_EPOCH, HAAB_DAYS))
    if kawil is not None:
        count, color = kawil
        congruences.append((KAWIL_DAYS * color + count - KAWIL_EPOCH, KAWIL_CYCLE))
    if long_count is not None:
        day = long_count.days
        lo, hi = max(lo, day), min(hi, day)  # lo > hi when the day is outside

    solved = crt(congruences)
    days = range(0)
    if solved is not None:
        base, period = solved
        days = range(lo + (base - lo) % period, hi + 1, period)
    return Resolution(days, long_count is not None and lo <= hi and not days)
