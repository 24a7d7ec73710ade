"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or use
``mayacal verify all`` for the equivalent CLI gate.  Every comparison is
exact; printed decimals are compared as rendered strings.
"""

import json
import random
from fractions import Fraction

from mayacal.arith import decimal_str, lcm_factorization, round_nearest
from mayacal.cli import main
from mayacal.correlation import describe, jdn_to_civil, civil_to_jdn
from mayacal.cycles import cycle_date
from mayacal.lunar import epsilon, ratio_table, search
from mayacal.notation import expression_from_day, format_date, parse, resolution
from mayacal.supernumber import (
    CANONICAL_PERIODS,
    XULTUN,
    creation_residues,
    cultural_dates,
    derive_constants,
)


def report(number, name, passed):
    print(f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {name}")
    assert passed, f"criterion {number}: {name}"


def test_criterion_01_supernumber(capsys):
    code = main(["--format", "json", "verify", "eq1"])
    out = json.loads(capsys.readouterr().out)
    factors = lcm_factorization(CANONICAL_PERIODS)
    ok = (
        code == 0
        and out["status"] == "ok"
        and factors.value == 768039133778280
        and factors.as_dict()
        == {2: 3, 3: 3, 5: 1, 7: 1, 13: 1, 19: 1, 29: 1, 37: 1, 59: 1, 73: 1, 89: 1}
    )
    with capsys.disabled():
        report(1, "super-number value and factorization", ok)


def test_criterion_02_xultun_ratios():
    from math import gcd

    ratios = [x // 56940 for x in XULTUN]
    divisible = all(x % 56940 == 0 for x in XULTUN)
    common = 0
    for x in XULTUN:
        common = gcd(common, x)
    report(2, "Xultun ratios 6/21/31/43 and common divisor 56940",
           ratios == [6, 21, 31, 43] and divisible and common == 56940)


def test_criterion_03_euclidean_identities():
    c = derive_constants()
    n37 = c.n // 37
    x0 = XULTUN[0]
    ok = (
        c.n % 37 == 0
        and n37 == 956592000 * 21699 + 724618440
        and n37 == 136656000 * 151898 + 41338440
        and 724618440 == 126 * sum(XULTUN)
        and 41338440 == 121 * x0
    )
    report(3, "Euclidean divisions of N/37 and remainder decompositions", ok)


def test_criterion_04_aeon_identity():
    from mayacal.arith import lcm_many

    x0, x1, x2, x3 = XULTUN
    five_a = 5 * 136656000
    ok = (
        five_a - 5 * x0
        == lcm_many([x1 + x2 + x3, x1 + 2 * x2 + x3])
        == 681571800
        == 95 * 126 * 56940
    )
    report(4, "5-Aeon identity over the Xultun numbers", ok)


def test_criterion_05_creation_residues():
    computed = {c.name: c.computed for c in creation_residues(derive_constants()).checks}
    ok = (
        computed["N / (13*37*73)"] == 21873355560
        and (computed["mod 260"], computed["mod 13"], computed["mod 20"], computed["mod 73"])
        == (160, 4, 0, 49)
        and computed["mod(N/37/32760, 4)"] == 3
    )
    report(5, "creation residues of N/(13*37*73) and the Kawil index", ok)


def test_criterion_06_cultural_dates():
    rows = {row.label: row for row in cultural_dates(derive_constants())}
    expected = {
        "I0": (160, 349, 3, 0),
        "5X0": (160, 349, 588, 1),
        "E": (160, 264, 588, 1),
        "5A": (160, 349, 588, 1),
        "GC": (160, 349, 3, 0),
    }
    ok = all(rows[label].position == pos for label, pos in expected.items())
    report(6, "five cultural dates reproduce {T;H;K;n}", ok)


def test_criterion_07_lunar_table():
    rows = ratio_table(768039133778280)
    attested, modern = rows[:-1], rows[-1]
    ok = (
        [r.lunations for r in attested] == [405, 162, 156, 150, 149, 81]
        and [decimal_str(r.ratio, 6) for r in attested]
        == ["29.530864", "29.530864", "29.525641", "29.526667", "29.530201", "29.530864"]
        and [round_nearest(r.error) for r in attested] == [1, 1, 8, 11, 2, 1]
        and round_nearest(modern.error) == 4
    )
    report(7, "lunar table lunations, ratios, and rounded errors", ok)


def test_criterion_08_palenque_identity():
    n = 768039133778280
    ok = (
        81 * n + 104 == 26008014145502 * 2392
        and epsilon(n, 2392, 81) == Fraction(104, 81)
    )
    report(8, "Palenque identity and its exact error", ok)


def test_criterion_09_search():
    result = search(768039133778280)
    zero = sorted((c.days, c.lunations) for c in result.zero_error)
    ok = (
        zero == [(30, 1), (59, 2), (118, 4), (148, 5), (236, 8), (295, 10)]
        and result.best is not None
        and result.best.ratio == Fraction(2392, 81)
    )
    report(9, "lunation search: zero-error set and best nonzero ratio", ok)


def test_criterion_10_eclipse_commensuration():
    from mayacal.arith import lcm_many

    ok = (
        lcm_many([260, 2392]) == 11960
        and lcm_many([11960, 18980]) == 46 * 18980 == 873080
    )
    report(10, "eclipse-table commensurations", ok)


def test_criterion_11_correlation():
    creation = describe(0)
    era = describe(1872000)
    itza = describe(1708200)
    tikal = describe(1416600)
    ok = (
        str(era.gregorian) == "21 December 2012"
        and str(creation.gregorian) == "11 August 3114 BC"
        # Both 1564 and 766 match on the proleptic Gregorian side.
        and "3 July 1564" in (str(itza.gregorian), str(itza.julian))
        and "17 February 766" in (str(tikal.gregorian), str(tikal.julian))
    )
    report(11, "GMT correlation anchor dates", ok)


def test_criterion_12_property_suites():
    rng = random.Random(18980)
    ok = True

    for _ in range(10**4):
        d = rng.randrange(0, 4 * 1872000)
        a, b, c = cycle_date(d), cycle_date(d + 18980), cycle_date(d + 3276)
        ok = ok and (a.tzolkin, a.haab) == (b.tzolkin, b.haab)
        ok = ok and (a.kawil, a.direction_color) == (c.kawil, c.direction_color)

    for d in range(0, 1872001, 13):
        ok = ok and cycle_date(d).long_count.days == d

    for _ in range(10**4):
        d = rng.randrange(0, 1872001)
        expr = expression_from_day(d)
        ok = ok and parse(format_date(expr)) == expr
    for _ in range(200):
        d = rng.randrange(0, 1872001)
        expr = expression_from_day(d)
        ok = ok and tuple(resolution(expr, (max(0, d - 9000), d + 9000)).days) == (d,)

    for _ in range(10**4):
        jdn = rng.randrange(0, 3 * 10**6 + 1)
        for calendar in ("julian", "gregorian"):
            ok = ok and civil_to_jdn(jdn_to_civil(jdn, calendar)) == jdn

    report(12, "periodicity, round-trip, and parser property suites", ok)
