"""Correlation of the day count to Julian Day Numbers and civil dates.

The day count maps to astronomy's continuous day scale by a single added
constant: JDN = day + 584283 under the Goodman-Martinez-Thompson (GMT)
correlation, the unique constant placing the creation day on 11 August
3114 BC (proleptic Gregorian) and the 13-baktun era completion on
21 December 2012.  The constant is configurable for competing correlations
(e.g. 584285).

Civil conversions use the integer Julian/Gregorian algorithms of Fliegel &
Van Flandern (Commun. ACM, 1968), the one statement of the leap rules: a civil
date is valid when it converts back to itself.  Years are astronomical (0 = 1
BC); "BC" is only displayed.  Because sources rarely state which calendar a
historical date is written in, :func:`describe` always reports both.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .arith import Memo, checked_replace, new_record

GMT_CORRELATION = 584283

Calendar = Literal["julian", "gregorian"]

MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)


class CorrelationConstant(NamedTuple("CorrelationConstant", [("jdn_at_creation", int)])):
    """JDN assigned to day 0 of the count."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, jdn_at_creation: int = GMT_CORRELATION) -> CorrelationConstant:
        if jdn_at_creation <= 0:
            raise ValueError(f"correlation constant must be positive, got {jdn_at_creation}")
        return new_record(cls, (jdn_at_creation,))


GMT = CorrelationConstant()


class CivilDate(NamedTuple("CivilDate", [("year", int), ("month", int), ("day", int), ("calendar", Calendar)])):
    """A calendar date; ``year`` is astronomical (0 = 1 BC, -1 = 2 BC, ...)."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, year: int, month: int, day: int, calendar: Calendar) -> CivilDate:
        if not 1 <= month <= 12:
            raise ValueError(f"month must be 1..12, got {month}")
        date = new_record(cls, (year, month, day, calendar))
        # _civil_fields checks the calendar's name, and a day past its month converts to another date.
        if _civil_fields(civil_to_jdn(date), calendar)[:3] != date[:3]:
            raise ValueError(f"day {day} invalid for {year}-{month:02d} ({calendar})")
        return date

    def __str__(self) -> str:
        return civil_text(civil_to_jdn(self), self.calendar)  # a valid date converts back to itself


def civil_text(jdn: int, calendar: Calendar) -> str:
    """The civil date at a JDN as ``str(jdn_to_civil(jdn, calendar))`` writes it: '11 August 3114 BC' for year -3113."""
    year, _, _, day_month = _civil_fields(jdn, calendar)
    return f"{day_month}{year}" if year > 0 else f"{day_month}{1 - year} BC"


def to_jdn(day: int, constant: CorrelationConstant = GMT) -> int:
    """Julian Day Number of a day of the count."""
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    return day + constant.jdn_at_creation


def jdn_to_civil(jdn: int, calendar: Calendar) -> CivilDate:
    """Civil date at a Julian Day Number (proleptic in both calendars)."""
    if jdn < 0:
        raise ValueError(f"jdn must be non-negative, got {jdn}")
    return CivilDate(*_civil_fields(jdn, calendar)[:3], calendar)


def _civil_fields(jdn: int, calendar: Calendar) -> tuple[int, int, int, str]:
    """Year, month, day and "day Month " text at a JDN (negative ones too), in either calendar, whose name it checks."""
    if calendar == "gregorian":
        a = jdn + 32044
        b = (4 * a + 3) // 146097
        c = a - 146097 * b // 4
    elif calendar == "julian":
        b = 0
        c = jdn + 32082
    else:
        raise ValueError(f"calendar must be 'julian' or 'gregorian', got {calendar!r}")
    d = (4 * c + 3) // 1461
    carry, month, day, day_month = _DAYS_OF_YEAR[c - 1461 * d // 4]
    return 100 * b + d - 4800 + carry, month, day, day_month


def _day_of_year(e: int) -> tuple[int, int, int, str]:
    """The year carry (1 in January and February), month, day and "day Month " text of day ``e`` of a March year."""
    m = (5 * e + 2) // 153
    month, day = m + 3 - 12 * (m // 10), e - (153 * m + 2) // 5 + 1
    return m // 10, month, day, f"{day} {MONTH_NAMES[month - 1]} "


#: :func:`_day_of_year` by ``e``: both calendars share it, as their months differ only in the leap day.
_DAYS_OF_YEAR = Memo(_day_of_year)


def civil_to_jdn(date: CivilDate) -> int:
    """Julian Day Number of a civil date; inverse of :func:`jdn_to_civil`."""
    a = (14 - date.month) // 12
    y = date.year + 4800 - a
    m = date.month + 12 * a - 3
    base = date.day + (153 * m + 2) // 5 + 365 * y + y // 4
    if date.calendar == "gregorian":
        return base - y // 100 + y // 400 - 32045
    return base - 32083


class CorrelationReport(NamedTuple):
    """A day rendered on both civil calendars so source ambiguity stays visible."""

    jdn: int
    julian: CivilDate
    gregorian: CivilDate


def describe(day: int, constant: CorrelationConstant = GMT) -> CorrelationReport:
    """JDN plus Julian and proleptic-Gregorian dates of a day of the count."""
    jdn = to_jdn(day, constant)  # positive, as the day is checked and the constant positive
    return new_record(CorrelationReport, (jdn, new_record(CivilDate, _civil_fields(jdn, "julian")[:3] + ("julian",)),
                                          new_record(CivilDate, _civil_fields(jdn, "gregorian")[:3] + ("gregorian",))))
