"""Correlation of the day count to Julian Day Numbers and civil dates.

The day count maps to astronomy's continuous day scale by a single added
constant: JDN = day + 584283 under the Goodman-Martinez-Thompson (GMT)
correlation, the unique constant placing the creation day on 11 August
3114 BC (proleptic Gregorian) and the 13-baktun era completion on
21 December 2012.  The constant is configurable for competing correlations
(e.g. 584285).

Civil conversions use the standard integer Julian/Gregorian algorithms
with astronomical year numbering (year 0 = 1 BC); "BC" appears only in
display strings.  Because sources rarely state which calendar a historical
date is written in, :func:`describe` always reports both.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .arith import checked_replace

GMT_CORRELATION = 584283

Calendar = Literal["julian", "gregorian"]

MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class CorrelationConstant(NamedTuple("CorrelationConstant", [("jdn_at_creation", int)])):
    """JDN assigned to day 0 of the count."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, jdn_at_creation: int = GMT_CORRELATION) -> CorrelationConstant:
        if jdn_at_creation <= 0:
            raise ValueError(f"correlation constant must be positive, got {jdn_at_creation}")
        return super().__new__(cls, jdn_at_creation)


GMT = CorrelationConstant()


def is_leap_year(year: int, calendar: Calendar) -> bool:
    if calendar == "julian":
        return year % 4 == 0
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def month_length(year: int, month: int, calendar: Calendar) -> int:
    if month == 2 and is_leap_year(year, calendar):
        return 29
    return _DAYS_IN_MONTH[month - 1]


class CivilDate(NamedTuple("CivilDate", [("year", int), ("month", int), ("day", int), ("calendar", Calendar)])):
    """A calendar date; ``year`` is astronomical (0 = 1 BC, -1 = 2 BC, ...)."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, year: int, month: int, day: int, calendar: Calendar) -> CivilDate:
        if calendar not in ("julian", "gregorian"):
            raise ValueError(f"calendar must be 'julian' or 'gregorian', got {calendar!r}")
        if not 1 <= month <= 12:
            raise ValueError(f"month must be 1..12, got {month}")
        if not 1 <= day <= month_length(year, month, calendar):
            raise ValueError(f"day {day} invalid for {year}-{month:02d} ({calendar})")
        return super().__new__(cls, year, month, day, calendar)

    @property
    def year_display(self) -> str:
        """Era-style year: astronomical year -3113 displays as '3114 BC'."""
        return f"{1 - self.year} BC" if self.year <= 0 else str(self.year)

    def __str__(self) -> str:
        return f"{self.day} {MONTH_NAMES[self.month - 1]} {self.year_display}"


def to_jdn(day: int, constant: CorrelationConstant = GMT) -> int:
    """Julian Day Number of a day of the count."""
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    return day + constant.jdn_at_creation


def jdn_to_civil(jdn: int, calendar: Calendar) -> CivilDate:
    """Civil date at a Julian Day Number (proleptic in both calendars)."""
    if jdn < 0:
        raise ValueError(f"jdn must be non-negative, got {jdn}")
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
    e = c - 1461 * d // 4
    m = (5 * e + 2) // 153
    day = e - (153 * m + 2) // 5 + 1
    month = m + 3 - 12 * (m // 10)
    year = 100 * b + d - 4800 + m // 10
    return CivilDate(year=year, month=month, day=day, calendar=calendar)


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
    jdn = to_jdn(day, constant)
    return CorrelationReport(
        jdn=jdn,
        julian=jdn_to_civil(jdn, "julian"),
        gregorian=jdn_to_civil(jdn, "gregorian"),
    )
