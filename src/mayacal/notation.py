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
other parenthetical or multiplier, or an ASCII "x", is an error.  A bare
"13(0)" is day v or ERA + v (v the lower digits' value), whichever the Calendar
Round agrees with (ERA is 11960 mod 18980, so at most one does): creation,
"13(0).0.0.0.0 4 Ahau 8 Cumku", is day 0.  Otherwise it is baktun 13.
"""

from __future__ import annotations

import re
import sys
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


class _TokenError(Exception):
    """A parse error's message, the index of its word in the split text and its offset in that word.

    :func:`parse` finds where the word starts only when it reports the error.
    """


#: The most digits a number read from input may have: at most 4000, and 8 below
#: the interpreter's int/str limit (``sys.get_int_max_str_digits()``, 4300 by
#: default, 0 for none), as a number mayacal derives from one adds at most 7
#: digits (×1872000 for an era multiple) and 1 (the correlation's carry).
MAX_DIGITS = min(4000, (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4008) - 8)


def _read_int(token: str, what: str, index: int, shift: int = 0) -> int:
    if len(token) > MAX_DIGITS:
        raise _TokenError(f"{what} is too long: {len(token)} digits", index, shift)
    return int(token)


def expression_from_day(day: int) -> DateExpression:
    """The full combined expression (Long Count + Calendar Round) of a day."""
    _, tzolkin, haab, _, _, long_count = cycle_date(day)
    return DateExpression._make((long_count, tzolkin, haab, None))


def _parse_baktun(lead: str) -> int:
    """Plain digits, or the era sugar 13(0) or k×13(0) that :func:`era_display` prints."""
    if lead.isdecimal():
        return _read_int(lead, "baktun", 0)
    match = _LEADING_DIGIT.match(lead)
    if match is None:
        raise _TokenError(f"bad long count digit {lead!r}", 0, 0)
    multiple, baktun, era = match.groups()
    if era is not None and baktun + era != "13(0)":
        raise _TokenError(f"only 13(0) marks an era completion, got {lead!r}", 0, 0)
    if multiple is not None and (era is None or _read_int(multiple, "era multiple", 0) < 2):
        raise _TokenError(f"an era multiple is k×13(0) with k >= 2, got {lead!r}", 0, 0)
    return _read_int(baktun, "baktun", 0) * int(multiple or 1)


def _parse_long_count(word: str) -> LongCount:
    """The Long Count written as the first word."""
    parts = word.split(".")
    if len(parts) != 5:
        raise _TokenError(f"long count needs 5 dot-separated digits, got {len(parts)}", 0, 0)
    try:
        baktun, katun, tun, winal, kin = map(int, parts)
    except ValueError:  # era sugar, an empty part, a letter or too many digits
        pass
    else:
        # int() also reads a sign or an underscore, which are not digits here.  No part is
        # longer than MAX_DIGITS in a word of MAX_DIGITS + 8 (the four dots and four digits).
        if ("".join(parts).isdecimal() and len(word) <= MAX_DIGITS + 8
                and katun <= 19 and tun <= 19 and winal <= 17 and kin <= 19):
            return LongCount._make((baktun, katun, tun, winal, kin))
    # Digit by digit: era sugar, or the error to report.  A bad digit further
    # on is reported before an out-of-range one.
    digits = [_parse_baktun(parts[0])]
    at = len(parts[0]) + 1
    out_of_range = None
    for (name, limit), part in zip(LONG_COUNT_DIGITS[1:], parts[1:]):
        if not part.isdecimal():
            raise _TokenError(f"bad long count digit {part!r}", 0, at)
        value = _read_int(part, "long count digit", 0, at)
        if value > limit and out_of_range is None:
            out_of_range = _TokenError(f"{name} {value} out of range 0..{limit}", 0, at)
        digits.append(value)
        at += len(part) + 1
    if out_of_range is not None:
        raise out_of_range
    return LongCount._make(digits)


def _parse_calendar_round(words: list[str], first: int) -> tuple[TzolkinDate, HaabDate]:
    """The Calendar Round written as ``words[first:]``."""
    count = len(words) - first
    if count < 4:
        raise _TokenError("calendar round needs <number> <tzolkin-name> <day> <haab-month>",
                          len(words) - 1, len(words[-1]))
    if count > 4:
        raise _TokenError(f"unexpected trailing text {words[first + 4]!r}", first + 4, 0)
    num_tok, tz_tok, day_tok, month_tok = words[first:]

    if not num_tok.isdecimal():
        raise _TokenError(f"bad Tzolk'in number {num_tok!r}", first, 0)
    number = _read_int(num_tok, "Tzolk'in number", first)
    if not 1 <= number <= 13:
        raise _TokenError(f"Tzolk'in number {number} out of range 1..13", first, 0)
    tz_index = _TZOLKIN_BY_NAME.get(tz_tok.lower())
    if tz_index is None:
        raise _TokenError(f"unknown Tzolk'in day name {tz_tok!r}", first + 1, 0)

    if not day_tok.isdecimal():
        raise _TokenError(f"bad Haab' day {day_tok!r}", first + 2, 0)
    day = _read_int(day_tok, "Haab' day", first + 2)
    month_index = _HAAB_BY_NAME.get(month_tok.lower())
    if month_index is None:
        raise _TokenError(f"unknown Haab' month name {month_tok!r}", first + 3, 0)
    try:
        haab = HaabDate(day, month_index)  # the day limit: 19, or 4 in the Uayeb
    except ValueError as exc:
        raise _TokenError(str(exc), first + 2, 0) from None
    return TzolkinDate._make((number, tz_index)), haab


def parse(text: str) -> DateExpression:
    """Parse a Long Count, Calendar Round, or combined date string."""
    words = text.split()  # str.split and re's \S+ agree on what is whitespace
    if not words:
        raise DateParseError("empty date string", 0)
    long_count = tzolkin = haab = None
    first = 0
    try:
        if "." in words[0]:
            long_count, first = _parse_long_count(words[0]), 1
        if len(words) > first:
            tzolkin, haab = _parse_calendar_round(words, first)
            if words[0].startswith("13(0)."):  # the Era's completion: day v or ERA + v, as the Round agrees
                _, at_tzolkin, at_haab, *_ = cycle_date(long_count.days - ERA)
                if (at_tzolkin, at_haab) == (tzolkin, haab):
                    long_count = LongCount._make((0, *long_count[1:]))
    except _TokenError as exc:
        message, index, shift = exc.args
        at = 0
        for word in words[:index + 1]:
            at = text.index(word, at) + len(word)
        raise DateParseError(message, at - len(words[index]) + shift) from None
    return DateExpression._make((long_count, tzolkin, haab, None))


def era_display(day: int) -> str:
    """Era-completion notation for whole multiples of the 13-baktun Era.

    Day 0 and day 1872000 are both written "13(0).0.0.0.0" (creation is the
    completion of the previous era), told apart by a Calendar Round after it;
    larger multiples carry a multiplier, e.g. "365×13(0).0.0.0.0" for the
    5 Aeon.  :func:`parse` reads each back.
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
            parts.append("{}.{}.{}.{}.{}".format(*long_count))
    if tzolkin is not None:
        parts.append(f"{tzolkin[0]} {TZOLKIN_NAMES[tzolkin[1]]}")
    if haab is not None:
        parts.append(f"{haab[0]} {HAAB_MONTHS[haab[1]]}")
    return " ".join(parts)


def resolution(expr: DateExpression, window: tuple[int, int]) -> Resolution:
    """All days in the inclusive window matching every present component.

    Each cycle is a congruence on the day (the Tzolk'in two, one per wheel).
    A Long Count names one day: the result is that day if it lies in the
    window and meets every congruence, and none otherwise.  Without a Long
    Count, one :func:`crt` joins the congruences.
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
        if not lo <= day <= hi:
            return Resolution(range(0), False)
        for residue, modulus in congruences:
            if (day - residue) % modulus:
                return Resolution(range(0), True)
        return Resolution(range(day, day + 1), False)

    solved = crt(congruences)
    if solved is None:
        return Resolution(range(0), False)
    base, period = solved
    return Resolution(range(lo + (base - lo) % period, hi + 1, period), False)
