from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mayacal.arith import decimal_str, round_nearest
from mayacal.lunar import (
    MODERN_SYNODIC_MONTH,
    PALENQUE_RATIO,
    eclipse_commensuration,
    epsilon,
    moon_age,
    ratio_table,
    search,
    verify_palenque,
    verify_ratio_table,
    verify_search,
)
from mayacal.supernumber import SUPER_NUMBER

N = SUPER_NUMBER


def brute_epsilon(n, days, lunations):
    # Oracle: try both enclosing multiples of `days` around n*lunations.
    product = n * lunations
    k = product // days
    best = min(abs(product - k * days), abs(product - (k + 1) * days))
    return Fraction(best, lunations)


class TestEpsilon:
    def test_palenque(self):
        assert epsilon(N, 2392, 81) == Fraction(104, 81)

    def test_pentalunex_is_exact(self):
        assert epsilon(N, 148, 5) == 0

    def test_copan(self):
        e = epsilon(N, 4400, 149)
        assert e == brute_epsilon(N, 4400, 149) == Fraction(280, 149)
        assert decimal_str(e, 2) == "1.88"

    def test_matches_brute_force(self):
        for days, lunations in ((11960, 405), (4784, 162), (4606, 156), (4429, 150), (30, 1)):
            assert epsilon(N, days, lunations) == brute_epsilon(N, days, lunations)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            epsilon(N, 0, 5)
        with pytest.raises(ValueError):
            epsilon(N, 5, 0)


class TestRatioTable:
    def test_report_passes(self):
        report = verify_ratio_table(N)
        assert report.ok, report.failures

    def test_lunation_counts(self):
        rows = ratio_table(N)[:-1]
        assert [(r.days, r.lunations) for r in rows] == [
            (11960, 405), (4784, 162), (4606, 156), (4429, 150), (4400, 149), (2392, 81),
        ]

    def test_ratio_decimals(self):
        rows = ratio_table(N)[:-1]
        assert [decimal_str(r.ratio, 6) for r in rows] == [
            "29.530864", "29.530864", "29.525641", "29.526667", "29.530201", "29.530864",
        ]

    def test_rounded_errors(self):
        rows = ratio_table(N)[:-1]
        assert [round_nearest(r.error) for r in rows] == [1, 1, 8, 11, 2, 1]

    def test_modern_row(self):
        modern = ratio_table(N)[-1]
        assert modern.ratio == MODERN_SYNODIC_MONTH
        assert modern.lcm260 is None  # not a whole-day length
        assert round_nearest(modern.error) == 4

    def test_dresden_table_commensuration(self):
        rows = {r.days: r for r in ratio_table(N)[:-1]}
        assert rows[11960].lcm260 == 11960
        assert rows[2392].lcm260 == 11960


class TestPalenque:
    def test_report_passes(self):
        report = verify_palenque(N)
        assert report.ok, report.failures

    def test_exact_equation(self):
        assert 81 * N + 104 == 26008014145502 * 2392

    def test_multiplier_is_rounded_quotient(self):
        assert round_nearest(Fraction(81 * N, 2392)) == 26008014145502

    def test_equivalent_ratios(self):
        assert Fraction(2392, 81) == Fraction(4784, 162) == Fraction(11960, 405) == PALENQUE_RATIO
        assert decimal_str(PALENQUE_RATIO, 6) == "29.530864"


class TestSearch:
    def test_report_passes(self):
        report = verify_search(search(N))
        assert report.ok, report.failures

    def test_zero_error_set_is_exact(self):
        result = search(N)
        assert sorted((c.days, c.lunations) for c in result.zero_error) == [
            (30, 1), (59, 2), (118, 4), (148, 5), (236, 8), (295, 10),
        ]
        assert {c.ratio for c in result.zero_error} == {
            Fraction(30), Fraction(59, 2), Fraction(148, 5),
        }

    def test_first_lunation(self):
        result = search(N)
        first = result.candidates[0]
        assert (first.days, first.lunations, first.error) == (30, 1, 0)

    def test_best_nonzero_is_palenque(self):
        result = search(N)
        assert result.best is not None
        assert result.best.ratio == PALENQUE_RATIO
        assert result.best.error == Fraction(104, 81)

    def test_minimal_nonzero_members(self):
        # Both the 81- and 405-lunation forms reach the minimal error.
        result = search(N)
        assert sorted((c.days, c.lunations) for c in result.minimal_nonzero) == [
            (2392, 81), (11960, 405),
        ]

    def test_scan_covers_one_calendar_round(self):
        result = search(N)
        assert len(result.candidates) == 643
        assert result.candidates[-1].days == 18988
        assert result.candidates[-1].days > 18980

    def test_pareto_front(self):
        result = search(N)
        ratios = {c.ratio for c in result.pareto}
        assert ratios == {Fraction(59, 2), PALENQUE_RATIO}

    def test_filter_excludes_double_palenque(self):
        # 4784 = 2 x 2392 exceeds one Calendar Round against the Tzolk'in.
        result = search(N)
        assert all(c.days != 4784 for c in result.filtered)
        assert any(c.days == 4784 for c in result.candidates)

    def test_long_scan_matches_default(self):
        # No T0 >= one Calendar Round passes the filter, so the scan stops building there.
        short, long = search(N), search(N, max_lunations=10**8)
        assert len(short.candidates) == len(long.candidates) == 643
        assert long.filtered == short.filtered
        assert long.zero_error == short.zero_error
        assert long.minimal_nonzero == short.minimal_nonzero
        assert long.best == short.best
        assert long.pareto == short.pareto

    def test_max_lunations_validated(self):
        with pytest.raises(ValueError):
            search(N, max_lunations=0)


class TestMoonAge:
    def test_zero_elapsed(self):
        assert moon_age(100, 100, PALENQUE_RATIO) == 0

    def test_exact_lunations(self):
        assert moon_age(2392, 0, PALENQUE_RATIO) == 0

    def test_tikal_date(self):
        # Oracle: (1416600 * 81) mod 2392, over 81.
        assert (1416600 * 81) % 2392 == 360
        age = moon_age(1416600, 0, PALENQUE_RATIO)
        assert age == Fraction(360, 81) == Fraction(40, 9)
        assert 0 <= age < PALENQUE_RATIO

    def test_rejects_reversed_order(self):
        with pytest.raises(ValueError):
            moon_age(5, 10, PALENQUE_RATIO)

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValueError):
            moon_age(5, 0, Fraction(0))


class TestEclipseCommensuration:
    def test_report_passes(self):
        report = eclipse_commensuration()
        assert report.ok, report.failures

    def test_values(self):
        from mayacal.arith import lcm_many

        assert lcm_many([260, 2392]) == 11960 == 5 * 2392
        assert lcm_many([11960, 18980]) == 873080
        assert 873080 == 73 * 11960 == 365 * 2392 == 46 * 18980


def test_error_bound_over_search():
    result = search(N)
    for c in result.candidates:
        assert 0 <= c.error <= Fraction(c.days, 2 * c.lunations)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=50))
def test_zero_error_characterization(days, lunations):
    e = epsilon(N, days, lunations)
    assert (e == 0) == ((N * lunations) % days == 0)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=50))
def test_epsilon_matches_brute_force(days, lunations):
    assert epsilon(N, days, lunations) == brute_epsilon(N, days, lunations)


@given(st.integers(min_value=0, max_value=10**7))
def test_moon_age_range(elapsed):
    age = moon_age(elapsed, 0, PALENQUE_RATIO)
    assert 0 <= age < PALENQUE_RATIO
    # Adding whole lunations never changes the age.
    assert moon_age(elapsed + 2392, 0, PALENQUE_RATIO) == age
