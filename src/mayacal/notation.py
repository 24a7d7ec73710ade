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

from .arith import checked_replace, crt, new_record
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
    WINAL,
    HaabDate,
    LongCount,
    TzolkinDate,
    calendar_parts,
)

_TZOLKIN_BY_NAME = {name.lower(): i for i, name in enumerate(TZOLKIN_NAMES)}
_HAAB_BY_NAME = {name.lower(): i for i, name in enumerate(HAAB_MONTHS)}

#: The canonical spellings "0".."19" of the digits below the winal's radix: the four lower Long Count digits, a
#: Tzolk'in number and a Haab' day are read here first.  Leading zeros or other decimal scripts go to :func:`int`.
_DIGITS = {str(n): n for n in range(WINAL)}

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
        return new_record(cls, (long_count, tzolkin, haab, kawil))


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


def read_int(text: str, what: str) -> int:
    """A number from input: decimal digits only (any script's, as :func:`int` reads them), no sign, and at most
    :data:`MAX_DIGITS` of them.  Else ValueError, ``bad {what} {text!r}`` or ``{what} is too long: {n} digits``."""
    if not text.isdecimal():
        raise ValueError(f"bad {what} {text!r}")
    if len(text) > MAX_DIGITS:
        raise ValueError(f"{what} is too long: {len(text)} digits")
    return int(text)


def _read_int(token: str, what: str, index: int, shift: int = 0) -> int:
    """:func:`read_int` of a date string's token, its error placed at the token's ``index`` and ``shift``."""
    try:
        return read_int(token, what)
    except ValueError as exc:
        raise _TokenError(str(exc), index, shift) from None


def expression_from_day(day: int) -> DateExpression:
    """The full combined expression (Long Count + Calendar Round) of a day."""
    return new_record(DateExpression, calendar_parts(day) + (None,))


def _parse_baktun(lead: str) -> int:
    """Plain digits, or the era sugar 13(0) or k×13(0) that :func:`era_display` prints."""
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
    lead, katun, tun, winal, kin = parts
    if (katun in _DIGITS and tun in _DIGITS and winal in _DIGITS and kin in _DIGITS and _DIGITS[winal] <= 17
            and lead.isdecimal() and len(lead) <= MAX_DIGITS):
        return new_record(LongCount, (int(lead), _DIGITS[katun], _DIGITS[tun], _DIGITS[winal], _DIGITS[kin]))
    # Digit by digit: era sugar, or the error to report.  A bad digit further
    # on is reported before an out-of-range one.
    digits = [_parse_baktun(lead)]
    at = len(lead) + 1
    out_of_range = None
    for (name, limit), part in zip(LONG_COUNT_DIGITS[1:], parts[1:]):
        value = _read_int(part, "long count digit", 0, at)
        if value > limit and out_of_range is None:
            out_of_range = _TokenError(f"{name} {value} out of range 0..{limit}", 0, at)
        digits.append(value)
        at += len(part) + 1
    if out_of_range is not None:
        raise out_of_range
    return new_record(LongCount, digits)


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
        count = len(words) - first
        if count:  # the Calendar Round, words[first:]
            if count < 4:
                raise _TokenError("calendar round needs <number> <tzolkin-name> <day> <haab-month>",
                                  len(words) - 1, len(words[-1]))
            if count > 4:
                raise _TokenError(f"unexpected trailing text {words[first + 4]!r}", first + 4, 0)
            num_tok, tz_tok, day_tok, month_tok = words[first:]
            number = _DIGITS[num_tok] if num_tok in _DIGITS else _read_int(num_tok, "Tzolk'in number", first)
            if not 1 <= number <= 13:
                raise _TokenError(f"Tzolk'in number {number} out of range 1..13", first, 0)
            tz_index = _TZOLKIN_BY_NAME.get(tz_tok.lower())
            if tz_index is None:
                raise _TokenError(f"unknown Tzolk'in day name {tz_tok!r}", first + 1, 0)
            day = _DIGITS[day_tok] if day_tok in _DIGITS else _read_int(day_tok, "Haab' day", first + 2)
            month_index = _HAAB_BY_NAME.get(month_tok.lower())
            if month_index is None:
                raise _TokenError(f"unknown Haab' month name {month_tok!r}", first + 3, 0)
            try:
                haab = HaabDate(day, month_index)  # the day limit: 19, or 4 in the Uayeb
            except ValueError as exc:
                raise _TokenError(str(exc), first + 2, 0) from None
            tzolkin = new_record(TzolkinDate, (number, tz_index))
            if words[0].startswith("13(0)."):  # the Era's completion: day v or ERA + v, as the Round agrees
                if calendar_parts(long_count.days - ERA)[1:] == (tzolkin, haab):
                    long_count = new_record(LongCount, (0, *long_count[1:]))
    except _TokenError as exc:
        message, index, shift = exc.args
        at = 0
        for word in words[:index + 1]:
            at = text.index(word, at) + len(word)
        raise DateParseError(message, at - len(words[index]) + shift) from None
    return new_record(DateExpression, (long_count, tzolkin, haab, None))


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
    """Render an expression; ``annotated`` style marks era completions, 13k baktuns and lower digits 0, as 13(0)."""
    if style not in ("plain", "annotated"):
        raise ValueError(f"style must be 'plain' or 'annotated', got {style!r}")
    long_count, tzolkin, haab, _ = expr
    parts = []
    if long_count is not None:
        if style == "annotated" and long_count[0] % 13 == 0 and long_count[1:] == (0, 0, 0, 0):
            parts.append(era_display(long_count.days))
        else:
            parts.append("%s.%s.%s.%s.%s" % long_count)
    if tzolkin is not None:
        parts.append(f"{tzolkin[0]} {TZOLKIN_NAMES[tzolkin[1]]}")
    if haab is not None:
        parts.append(f"{haab[0]} {HAAB_MONTHS[haab[1]]}")
    return " ".join(parts)


def resolution(expr: DateExpression, window: tuple[int, int]) -> Resolution:
    """All days in the inclusive window matching every present component.

    A Long Count names one day: the result is that day if it lies in the
    window and each other component is the day's own, and none otherwise.
    Without a Long Count, each cycle is a congruence on the day (the Tzolk'in
    two, one per wheel), and one :func:`crt` joins them.
    """
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"window must satisfy 0 <= lo <= hi, got {window}")

    long_count, tzolkin, haab, kawil = expr
    if long_count is not None:
        day = long_count.days
        if not lo <= day <= hi:
            return new_record(Resolution, (range(0), False))
        # The day's own Tzolk'in and Haab' ordinals and Kawil sum, in the closed form of cycle_date.
        tz, hb, kw = day + TZOLKIN_EPOCH - 1, (day + HAAB_EPOCH - 1) % HAAB_DAYS, day + KAWIL_EPOCH
        if (tzolkin is not None and (tzolkin[0] != tz % 13 + 1 or tzolkin[1] != tz % 20)
                or haab is not None and (haab[0] != hb % 20 or haab[1] != hb // 20)
                or kawil is not None and (kawil[0] != kw % KAWIL_DAYS or kawil[1] != kw // KAWIL_DAYS % 4)):
            return new_record(Resolution, (range(0), True))
        return new_record(Resolution, (range(day, day + 1), False))
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
    solved = crt(congruences)
    if solved is None:
        return new_record(Resolution, (range(0), False))
    base, period = solved
    return new_record(Resolution, (range(lo + (base - lo) % period, hi + 1, period), False))
