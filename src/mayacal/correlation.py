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

from .arith import checked_replace, new_record

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
        if calendar not in ("julian", "gregorian"):
            raise ValueError(f"calendar must be 'julian' or 'gregorian', got {calendar!r}")
        if not 1 <= month <= 12:
            raise ValueError(f"month must be 1..12, got {month}")
        date = new_record(cls, (year, month, day, calendar))
        if _civil_fields(civil_to_jdn(date), calendar) != (year, month, day):  # a day past its month is another date
            raise ValueError(f"day {day} invalid for {year}-{month:02d} ({calendar})")
        return date

    @property
    def year_display(self) -> str:
        """Era-style year: astronomical year -3113 displays as '3114 BC'."""
        return str(self).split(" ", 2)[2]

    def __str__(self) -> str:
        return _civil_text(self.year, self.month, self.day)


def _civil_text(year: int, month: int, day: int) -> str:
    """The display of a civil date, with an era-style year: '11 August 3114 BC' for year -3113."""
    if year <= 0:
        return f"{day} {MONTH_NAMES[month - 1]} {1 - year} BC"
    return f"{day} {MONTH_NAMES[month - 1]} {year}"


def gregorian_display(jdn: int) -> str:
    """``str(jdn_to_civil(jdn, "gregorian"))`` without building the record."""
    return _civil_text(*_civil_fields(jdn, "gregorian"))


def to_jdn(day: int, constant: CorrelationConstant = GMT) -> int:
    """Julian Day Number of a day of the count."""
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    return day + constant.jdn_at_creation


def jdn_to_civil(jdn: int, calendar: Calendar) -> CivilDate:
    """Civil date at a Julian Day Number (proleptic in both calendars)."""
    if jdn < 0:
        raise ValueError(f"jdn must be non-negative, got {jdn}")
    if calendar not in ("julian", "gregorian"):
        raise ValueError(f"calendar must be 'julian' or 'gregorian', got {calendar!r}")
    return new_record(CivilDate, _civil_fields(jdn, calendar) + (calendar,))  # in range by construction


def _civil_fields(jdn: int, calendar: Calendar) -> tuple[int, int, int]:
    """Year, month and day at a Julian Day Number (negative ones too), in a calendar :func:`jdn_to_civil` accepts."""
    if calendar == "gregorian":
        a = jdn + 32044
        b = (4 * a + 3) // 146097
        c = a - 146097 * b // 4
    else:
        b = 0
        c = jdn + 32082
    d = (4 * c + 3) // 1461
    e = c - 1461 * d // 4
    m = (5 * e + 2) // 153
    return 100 * b + d - 4800 + m // 10, m + 3 - 12 * (m // 10), e - (153 * m + 2) // 5 + 1


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
    return new_record(CorrelationReport, (jdn, new_record(CivilDate, _civil_fields(jdn, "julian") + ("julian",)),
                                          new_record(CivilDate, _civil_fields(jdn, "gregorian") + ("gregorian",))))
