import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mayacal.cycles import (
    CALENDAR_ROUND,
    ERA,
    KAWIL_CYCLE,
    HaabDate,
    LongCount,
    TzolkinDate,
    calendar_parts,
    cycle_date,
    haab_from_pos,
    tzolkin_from_pos,
)
from mayacal.notation import DateExpression, resolution


def brute_calendar_round_days(tzolkin, haab):
    # Oracle: scan one full Calendar Round for the matching position pair.
    positions = (tzolkin.position, haab.position)
    hits = [d for d in range(CALENDAR_ROUND) if ((d + 160) % 260, (d + 349) % 365) == positions]
    assert len(hits) <= 1
    return tuple(hits)


def calendar_round_days(tzolkin, haab):
    # The days of the first Calendar Round carrying both positions.
    return tuple(resolution(DateExpression(tzolkin=tzolkin, haab=haab), (0, 18979)).days)


class TestTzolkin:
    def test_creation_position(self):
        t = tzolkin_from_pos(160)
        assert (t.number, t.name) == (4, "Ahau")

    def test_first_of_ordered_list(self):
        t = tzolkin_from_pos(1)
        assert (t.number, t.name) == (1, "Imix")

    def test_position_zero_wraps_to_last(self):
        t = tzolkin_from_pos(0)
        assert (t.number, t.name) == (13, "Ahau")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tzolkin_from_pos(260)
        with pytest.raises(ValueError):
            tzolkin_from_pos(-1)

    def test_bijection_exhaustive(self):
        seen = set()
        for pos in range(260):
            t = tzolkin_from_pos(pos)
            assert t.position == pos
            seen.add((t.number, t.name_index))
        assert len(seen) == 260

    def test_crt_uniqueness(self):
        # Exactly one ordinal carries each (number, name) pair.
        for number in (1, 7, 13):
            for name_index in (0, 10, 19):
                t = TzolkinDate(number, name_index)
                matches = [
                    d for d in range(260) if d % 13 == number - 1 and d % 20 == name_index
                ]
                assert matches == [t.ordinal]

    def test_validation(self):
        with pytest.raises(ValueError):
            TzolkinDate(0, 5)
        with pytest.raises(ValueError):
            TzolkinDate(14, 5)
        with pytest.raises(ValueError):
            TzolkinDate(4, 20)


class TestHaab:
    def test_creation_position(self):
        h = haab_from_pos(349)
        assert str(h) == "8 Cumku"

    def test_zip_position(self):
        assert str(haab_from_pos(49)) == "8 Zip"

    def test_kankin_position(self):
        assert str(haab_from_pos(264)) == "3 Kankin"

    def test_position_zero_wraps_to_last(self):
        assert str(haab_from_pos(0)) == "4 Uayeb"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            haab_from_pos(365)

    def test_bijection(self):
        for pos in range(365):
            assert haab_from_pos(pos).position == pos

    def test_uayeb_day_limit(self):
        HaabDate(4, 18)
        with pytest.raises(ValueError):
            HaabDate(5, 18)
        with pytest.raises(ValueError):
            HaabDate(20, 0)


class TestLongCount:
    def test_long_round(self):
        assert LongCount(9, 9, 16, 0, 0).days == 1366560

    def test_single_kin(self):
        assert LongCount(0, 0, 0, 0, 1).days == 1

    def test_xultun_largest(self):
        assert LongCount(17, 0, 1, 3, 0).days == 2448420

    def test_digit_ranges(self):
        with pytest.raises(ValueError):
            LongCount(0, 0, 0, 18, 0)
        with pytest.raises(ValueError):
            LongCount(0, 0, 0, 0, 20)
        with pytest.raises(ValueError):
            LongCount(0, 20, 0, 0, 0)
        with pytest.raises(ValueError):
            LongCount(0, 0, 20, 0, 0)
        with pytest.raises(ValueError):
            LongCount(-1, 0, 0, 0, 0)

    def test_baktun_unbounded(self):
        assert LongCount(4745, 0, 0, 0, 0).days == 683280000


class TestCycleDate:
    def test_creation(self):
        cd = cycle_date(0)
        assert (cd.tzolkin.position, cd.haab.position) == (160, 349)
        assert cd.calendar_round == "4 Ahau 8 Cumku"
        assert cd.kawil == 3
        assert cd.direction_color == 0
        assert cd.direction_color_name == "East-Red"
        assert str(cd.long_count) == "0.0.0.0.0"

    def test_itza_prophecy_day(self):
        cd = cycle_date(1708200)
        assert str(cd.long_count) == "11.17.5.0.0"
        assert cd.calendar_round == "4 Ahau 8 Cumku"
        assert cd.kawil == 588
        assert cd.direction_color == 1

    def test_era_completion(self):
        cd = cycle_date(1872000)
        assert str(cd.long_count) == "13.0.0.0.0"
        assert cd.calendar_round == "4 Ahau 3 Kankin"
        assert cd.kawil == 588
        assert cd.direction_color == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cycle_date(-1)
        with pytest.raises(ValueError, match="day must be non-negative, got -1"):
            calendar_parts(-1)


class TestCalendarRoundDay:
    def test_creation_pair(self):
        assert calendar_round_days(TzolkinDate(4, 19), HaabDate(8, 17)) == (0,)

    def test_zip_pair_matches_brute_force(self):
        t, h = TzolkinDate(4, 19), HaabDate(8, 2)
        assert brute_calendar_round_days(t, h) == (14300,)
        assert calendar_round_days(t, h) == (14300,)

    def test_unreachable_pair(self):
        t, h = TzolkinDate(1, 0), HaabDate(1, 0)
        assert brute_calendar_round_days(t, h) == ()
        assert calendar_round_days(t, h) == ()

    def test_agrees_with_brute_force_sample(self):
        rng = random.Random(7)
        for _ in range(40):
            t = TzolkinDate(rng.randint(1, 13), rng.randrange(20))
            h = HaabDate(rng.randrange(20) if (m := rng.randrange(19)) != 18 else rng.randrange(5), m)
            assert calendar_round_days(t, h) == brute_calendar_round_days(t, h)

    def test_reachable_count(self):
        # 5 of every 25 (number, day) residue pairs line up: 18980 reachable pairs.
        seen = set()
        for d in range(CALENDAR_ROUND):
            cd = cycle_date(d)
            seen.add((cd.tzolkin.position, cd.haab.position))
        assert len(seen) == CALENDAR_ROUND
        first = cycle_date(0)
        again = cycle_date(CALENDAR_ROUND)
        assert (first.tzolkin.position, first.haab.position) == (again.tzolkin.position, again.haab.position)


def test_commensuration_identity():
    assert 73 * 260 == 52 * 365 == CALENDAR_ROUND
    assert 4 * 819 == KAWIL_CYCLE


def test_cycle_periodicity_sampled():
    rng = random.Random(2012)
    for _ in range(10**4):
        d = rng.randrange(0, 4 * ERA)
        a, b = cycle_date(d), cycle_date(d + CALENDAR_ROUND)
        assert (a.tzolkin, a.haab) == (b.tzolkin, b.haab)
        c = cycle_date(d + KAWIL_CYCLE)
        assert (a.kawil, a.direction_color) == (c.kawil, c.direction_color)


def test_long_count_round_trip_dense():
    for d in range(0, ERA + 1, 13):
        assert cycle_date(d).long_count.days == d
    # Digit rollovers at every place value.
    for boundary in (20, 360, 7200, 144000, ERA):
        for d in (boundary - 1, boundary, boundary + 1):
            assert calendar_parts(d)[0].days == d


@given(st.integers(min_value=0, max_value=10 * ERA))
def test_long_count_round_trip_property(d):
    assert calendar_parts(d)[0].days == d


@given(st.integers(min_value=0, max_value=10**9))
def test_positions_in_range(d):
    cd = cycle_date(d)
    assert 0 <= cd.tzolkin.position < 260
    assert 0 <= cd.haab.position < 365
    assert cd.tzolkin.position == (d + 160) % 260
    assert cd.haab.position == (d + 349) % 365
    assert 0 <= cd.kawil < 819
    assert 0 <= cd.direction_color < 4
