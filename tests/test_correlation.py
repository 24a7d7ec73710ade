import random
from datetime import date as _pydate
from json.encoder import encode_basestring

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mayacal.correlation import (
    GMT,
    GMT_CORRELATION,
    CivilDate,
    CorrelationConstant,
    civil_text,
    civil_to_jdn,
    describe,
    jdn_to_civil,
    to_jdn,
)
from mayacal.window import WindowMatches


class TestToJdn:
    def test_creation(self):
        assert to_jdn(0) == 584283

    def test_era_completion(self):
        assert to_jdn(1872000) == 2456283

    def test_itza_prophecy(self):
        assert to_jdn(1708200) == 2292483

    def test_custom_constant(self):
        assert to_jdn(0, CorrelationConstant(584285)) == 584285

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            to_jdn(-1)


class TestJdnToCivil:
    def test_era_completion_gregorian(self):
        d = jdn_to_civil(2456283, "gregorian")
        assert (d.year, d.month, d.day) == (2012, 12, 21)
        assert str(d) == "21 December 2012"

    def test_creation_gregorian(self):
        d = jdn_to_civil(584283, "gregorian")
        assert (d.year, d.month, d.day) == (-3113, 8, 11)
        assert str(d) == "11 August 3114 BC"

    def test_creation_julian(self):
        d = jdn_to_civil(584283, "julian")
        assert (d.year, d.month, d.day) == (-3113, 9, 6)

    def test_tikal_lunar_date(self):
        # Day 1416600: the Gregorian rendering is 17 February 766.
        assert (jdn_to_civil(2000883, "gregorian").year,
                jdn_to_civil(2000883, "gregorian").month,
                jdn_to_civil(2000883, "gregorian").day) == (766, 2, 17)
        assert (jdn_to_civil(2000883, "julian").month,
                jdn_to_civil(2000883, "julian").day) == (2, 13)

    def test_bad_calendar(self):
        with pytest.raises(ValueError):
            jdn_to_civil(2456283, "islamic")
        with pytest.raises(ValueError, match="^calendar must be 'julian' or 'gregorian', got 'Gregorian'$"):
            civil_text(2456283, "Gregorian")  # not read as the Julian calendar

    def test_negative_jdn_rejected(self):
        with pytest.raises(ValueError):
            jdn_to_civil(-1, "gregorian")


class TestDescribe:
    def test_itza_prophecy(self):
        report = describe(1708200)
        assert str(report.gregorian) == "3 July 1564"
        assert str(report.julian) == "23 June 1564"
        assert report.jdn == 2292483

    def test_creation(self):
        report = describe(0)
        assert str(report.gregorian) == "11 August 3114 BC"
        assert str(report.julian) == "6 September 3114 BC"

    def test_increment_consistency(self):
        a, b = describe(0), describe(1)
        assert b.jdn == a.jdn + 1
        assert (b.gregorian.day, b.gregorian.month) == (12, 8)
        assert (b.julian.day, b.julian.month) == (7, 9)


class TestCivilDate:
    def test_leap_rules(self):
        CivilDate(1900, 2, 29, "julian")
        with pytest.raises(ValueError, match=r"^day 29 invalid for 1900-02 \(gregorian\)$"):
            CivilDate(1900, 2, 29, "gregorian")
        CivilDate(2000, 2, 29, "gregorian")
        CivilDate(0, 2, 29, "gregorian")
        CivilDate(-3112, 2, 29, "julian")  # astronomical year -3112 % 4 == 0

    def test_replace_checks_the_day(self):
        with pytest.raises(ValueError, match="day 30 invalid for 2000-02"):
            CivilDate(2000, 2, 1, "gregorian")._replace(day=30)
        with pytest.raises(ValueError, match="day 29 invalid for -3113-02"):
            CivilDate(-3113, 2, 28, "julian")._replace(day=29)

    def test_validation(self):
        CivilDate(1900, 2, 29, "julian")
        with pytest.raises(ValueError):
            CivilDate(1900, 2, 29, "gregorian")
        for month in (0, 13):  # refused by the bound, before the round trip would refuse the day
            with pytest.raises(ValueError, match=f"^month must be 1..12, got {month}$"):
                CivilDate(2000, month, 1, "gregorian")
        with pytest.raises(ValueError):
            CivilDate(2000, 4, 31, "gregorian")

    def test_bc_display(self):
        assert str(CivilDate(0, 3, 1, "gregorian")) == "1 March 1 BC"
        assert str(CivilDate(-3113, 8, 11, "gregorian")) == "11 August 3114 BC"
        assert str(CivilDate(766, 2, 17, "julian")) == "17 February 766"


@pytest.mark.parametrize("jdn,text", [(1721426, "1 January 1"), (1721425, "31 December 1 BC")])
def test_first_year_of_the_era(jdn, text):
    # Year 1 is the first without "BC", and the year before it is 1 BC: there is no year 0.
    assert str(jdn_to_civil(jdn, "gregorian")) == text
    row = WindowMatches(range(1), jdn)  # day 0 at this JDN
    assert "".join(row.text("")).endswith(f"\n    gregorian: {text}")
    assert "".join(row.json(encode_basestring, "\n")).endswith(f'"gregorian": "{text}"\n}}')


def test_round_trip_sampled_both_calendars():
    rng = random.Random(584283)
    samples = [0, 1, 584283, 1721425, 2299160, 2299161, 2456283, 3 * 10**6]
    samples += [rng.randrange(0, 3 * 10**6 + 1) for _ in range(20000)]
    for jdn in samples:
        for calendar in ("julian", "gregorian"):
            assert civil_to_jdn(jdn_to_civil(jdn, calendar)) == jdn


def test_gregorian_against_datetime_oracle():
    # datetime.date is proleptic Gregorian with ordinal 1 = 0001-01-01,
    # which sits at JDN 1721426.
    rng = random.Random(1)
    for _ in range(5000):
        jdn = rng.randrange(1721426, 3 * 10**6)
        d = jdn_to_civil(jdn, "gregorian")
        assert _pydate(d.year, d.month, d.day).toordinal() + 1721425 == jdn


def test_monotonic_day_by_day():
    # Contiguous scans across year 0, a skipped Gregorian century (1900),
    # a kept century (2000), and the creation era; no gaps or repeats.
    windows = [(1721000, 1721900), (2415000, 2415100), (2451500, 2451700), (584283, 584700)]
    for lo, hi in windows:
        for calendar in ("julian", "gregorian"):
            prev = jdn_to_civil(lo, calendar)
            for jdn in range(lo + 1, hi):
                cur = jdn_to_civil(jdn, calendar)
                assert civil_to_jdn(cur) == civil_to_jdn(prev) + 1
                prev = cur


def test_calendar_drift_at_anchor_dates():
    # Reading the Julian civil date as if Gregorian shifts the JDN by the
    # accumulated drift: 13 days in 2012, 10 in 1564, 4 in 766.
    def drift(jdn):
        j = jdn_to_civil(jdn, "julian")
        return jdn - civil_to_jdn(CivilDate(j.year, j.month, j.day, "gregorian"))

    assert drift(2456283) == 13
    assert drift(2292483) == 10
    assert drift(2000883) == 4
    assert drift(584283) == -26


def test_leap_day_round_trips():
    for year, calendar in ((2000, "gregorian"), (1900, "julian"), (-3112, "julian"), (0, "gregorian")):
        d = CivilDate(year, 2, 29, calendar)
        assert jdn_to_civil(civil_to_jdn(d), calendar) == d


def leap_rule_accepts(year, month, day, calendar):
    """Oracle: the leap-year and month-length rule, stated apart from the JDN algorithms."""
    leap = year % 4 == 0 and (calendar == "julian" or year % 100 != 0 or year % 400 == 0)
    return 1 <= day <= (31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)[month - 1]


def civil_date_accepts(year, month, day, calendar):
    try:
        CivilDate(year, month, day, calendar)
    except ValueError as exc:
        assert str(exc) == f"day {day} invalid for {year}-{month:02d} ({calendar})"
        return False
    return True


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(("julian", "gregorian")), st.integers(-10**6, 10**6) | st.integers(-5000, 3000),
       st.integers(1, 12), st.integers(0, 32))
@example("gregorian", -10**6, 2, 29)  # JDN about -3.6e8
@example("julian", -4716, 2, 29)  # a leap day before JDN 0, 1 January 4713 BC (year -4712)
@example("gregorian", 10**6, 2, 29)
@example("gregorian", -100, 2, 29)
def test_civil_date_accepts_what_the_leap_rule_accepts(calendar, year, month, day):
    assert civil_date_accepts(year, month, day, calendar) == leap_rule_accepts(year, month, day, calendar)


def test_civil_date_agrees_with_the_leap_rule_on_every_day():
    # Every (calendar, year, month, day) over two whole 400-year cycles, one around year 0 and one
    # where the JDN is negative, and eight years at a million; days 0..32 take in both ends of every month.
    years = [*range(-200, 200), *range(-5000, -4600), *range(10**6 - 4, 10**6 + 4)]
    for calendar in ("julian", "gregorian"):
        for year in years:
            for month in range(1, 13):
                for day in range(0, 33):
                    date = (year, month, day, calendar)
                    assert civil_date_accepts(*date) == leap_rule_accepts(*date), date
