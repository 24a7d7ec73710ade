import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mayacal import arith
from mayacal.arith import (
    INT63_MAX,
    Factorization,
    crt,
    decimal_str,
    factorize,
    is_prime,
    lcm_factorization,
    round_nearest,
)

NINE_PERIODS = (116, 584, 365, 780, 399, 378, 177, 178, 148)


def brute_gcd(a, b):
    # Oracle: largest d dividing both, by scan.
    best = 0
    for d in range(1, min(a, b) + 1):
        if a % d == 0 and b % d == 0:
            best = d
    return best


def pairwise_lcm(values):
    # Oracle: repeated a*b // gcd, no factorization involved.
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def brute_crt(congruences):
    # Oracle: scan one joint period for the days meeting every congruence.
    period = pairwise_lcm([m for _, m in congruences])
    hits = [x for x in range(period) if all((x - r) % m == 0 for r, m in congruences)]
    assert len(hits) <= 1
    return (hits[0], period) if hits else None


def trial_is_prime(n):
    # Reference: trial division by every odd d up to sqrt(n).
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_factorize(n):
    # Reference: trial division by every d from 2 up to sqrt(n).
    factors = []
    d = 2
    while d * d <= n:
        mult = 0
        while n % d == 0:
            n //= d
            mult += 1
        if mult:
            factors.append((d, mult))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


class TestFactorize:
    def test_venus_period(self):
        assert factorize(584).as_dict() == {2: 3, 73: 1}

    def test_one_is_empty_product(self):
        assert factorize(1).as_dict() == {}
        assert factorize(1).value == 1

    def test_supernumber(self):
        assert factorize(768039133778280).as_dict() == {
            2: 3, 3: 3, 5: 1, 7: 1, 13: 1, 19: 1, 29: 1, 37: 1, 59: 1, 73: 1, 89: 1,
        }

    def test_all_nine_periods(self):
        expected = {
            116: {2: 2, 29: 1},
            584: {2: 3, 73: 1},
            365: {5: 1, 73: 1},
            780: {2: 2, 3: 1, 5: 1, 13: 1},
            399: {3: 1, 7: 1, 19: 1},
            378: {2: 1, 3: 3, 7: 1},
            177: {3: 1, 59: 1},
            178: {2: 1, 89: 1},
            148: {2: 2, 37: 1},
        }
        for period, facts in expected.items():
            assert factorize(period).as_dict() == facts
            assert factorize(period).value == period

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_rejects_beyond_63_bits(self):
        with pytest.raises(ValueError):
            factorize(INT63_MAX + 1)

    def test_reconstruction_exhaustive_small(self):
        for n in range(1, 100001):
            assert factorize(n).value == n

    def test_rendering(self):
        assert str(factorize(3276)) == "2^2 × 3^2 × 7 × 13"
        assert str(factorize(399)) == "3 × 7 × 19"
        assert str(factorize(1)) == "1"


class TestLargeInputs:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (2**61 - 1, {2**61 - 1: 1}),
            (2**63 - 25, {2**63 - 25: 1}),  # the largest prime below 2**63
            (2**63 - 1, {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1}),
            (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
            (561, {3: 1, 11: 1, 17: 1}),
            (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
            (3037000493**2, {3037000493: 2}),
            (2147483647**2, {2147483647: 2}),
            (2097143**3, {2097143: 3}),
            (1000000007 * 1000000009, {1000000007: 1, 1000000009: 1}),
        ],
    )
    def test_exact_factors(self, n, expected):
        f = factorize(n)
        assert f.as_dict() == expected
        assert f.value == n

    def test_prime_square_without_rho(self, monkeypatch):
        # A square of a prime beyond the trial bound is split by its integer square root.
        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(arith, "_rho", no_rho)
        assert factorize(3037000493**2).as_dict() == {3037000493: 2}

    def test_strong_pseudoprimes_are_composite(self):
        # psi_k: the least odd composite passing the strong test to the first
        # k prime bases (3825123056546413051 passes bases 2..31).
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 561, 41041):
            assert not is_prime(n)

    def test_is_prime_rejects_beyond_exact_range(self):
        # psi_12 passes the strong test to all twelve bases.
        with pytest.raises(ValueError):
            is_prime(318665857834031151167461)

    def test_factorization_checks_large_factors(self):
        with pytest.raises(ValueError):
            Factorization(((3825123056546413051, 1),))


class TestFactorizationInvariants:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            Factorization(((4, 1),))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError):
            Factorization(((3, 1), (2, 1)))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Factorization(((2, 0),))


class TestGcd:
    def test_xultun_pair_matches_brute_force(self):
        assert brute_gcd(341640, 1195740) == 170820
        assert math.gcd(341640, 1195740) == 170820

    def test_all_four_xultun_numbers(self):
        # The common divisor of the whole set is one third of the pairwise one.
        values = (341640, 1195740, 1765140, 2448420)
        assert math.gcd(*values) == 56940

    def test_cycle_pair(self):
        assert brute_gcd(260, 365) == 5
        assert math.gcd(260, 365) == 5


class TestLcm:
    def test_calendar_round(self):
        assert lcm_factorization([260, 365]).value == 18980

    def test_supernumber(self):
        assert lcm_factorization(NINE_PERIODS).value == 768039133778280

    def test_single_element(self):
        assert lcm_factorization([365]).value == 365

    def test_venus_mars(self):
        assert lcm_factorization([584, 780]).value == 113880

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lcm_factorization([])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lcm_factorization([0, 5])

    def test_overflow_is_distinct_error(self):
        with pytest.raises(OverflowError):
            lcm_factorization([2**62, 3**39])
        with pytest.raises(OverflowError, match=f"^lcm {3 * 2**62} exceeds 2\\*\\*63 - 1$"):
            lcm_factorization([2**62, 3])
        # 2**63 - 1 itself is in range.
        assert str(lcm_factorization([INT63_MAX])) == "7^2 × 73 × 127 × 337 × 92737 × 649657"


class TestCrt:
    def test_no_congruences(self):
        assert crt([]) == (0, 1)

    def test_calendar_round_and_kawil(self):
        # Creation residues: the paper's joint periods 18980 and X1 = 1195740.
        assert crt([(0, 260), (0, 365)]) == (0, 18980)
        assert crt([(0, 260), (0, 365), (0, 3276)]) == (0, 1195740)

    def test_shared_factor_conflict(self):
        # 260 and 365 share 5; residues 1 and 0 disagree mod 5.
        assert crt([(1, 260), (0, 365)]) is None
        assert brute_crt([(1, 260), (0, 365)]) is None

    def test_residues_outside_modulus(self):
        assert crt([(-1, 7), (15, 4)]) == brute_crt([(-1, 7), (15, 4)]) == (27, 28)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            crt([(0, 0)])
        with pytest.raises(ValueError):
            crt([(1, 5), (0, -3)])

    def test_all_small_pairs(self):
        for m1 in range(1, 11):
            for m2 in range(1, 11):
                for r1 in range(m1):
                    for r2 in range(m2):
                        assert crt([(r1, m1), (r2, m2)]) == brute_crt([(r1, m1), (r2, m2)])


class TestEuclidDiv:
    def test_grand_cycle_division(self):
        # Dividend is the supernumber divided by 37, computed exactly.
        n37 = 768039133778280 // 37
        assert n37 == 20757814426440
        assert divmod(n37, 956592000) == (21699, 724618440)

    def test_aeon_division(self):
        n37 = 768039133778280 // 37
        assert divmod(n37, 136656000) == (151898, 41338440)


class TestRoundNearest:
    def test_palenque_error(self):
        assert round_nearest(Fraction(104, 81)) == 1

    def test_half_away_from_zero(self):
        assert round_nearest(Fraction(59, 2)) == 30
        assert round_nearest(Fraction(-59, 2)) == -30
        assert round_nearest(Fraction(1, 2)) == 1
        assert round_nearest(Fraction(-1, 2)) == -1

    def test_lunation_count(self):
        # 4429 days at the modern month, compared exactly as a rational.
        assert round_nearest(Fraction(4429 * 1000000, 29530588)) == 150

    def test_integers_pass_through(self):
        assert round_nearest(7) == 7
        assert round_nearest(Fraction(21, 3)) == 7

    @pytest.mark.parametrize("value", [2.5, Decimal("2.5"), "7/2"], ids=["float", "Decimal", "str"])
    def test_only_int_or_fraction(self, value):
        with pytest.raises(TypeError, match=f"round_nearest takes an int or a Fraction, got {type(value).__name__}"):
            round_nearest(value)


class TestDecimalStr:
    def test_palenque_ratio(self):
        assert decimal_str(Fraction(2392, 81), 6) == "29.530864"

    def test_rounds_last_digit(self):
        assert decimal_str(Fraction(4429, 150), 6) == "29.526667"

    def test_zero_places(self):
        assert decimal_str(Fraction(104, 81), 0) == "1"

    def test_negative(self):
        assert decimal_str(Fraction(-1, 8), 3) == "-0.125"

    def test_refused_arguments(self):
        with pytest.raises(ValueError, match="places must be >= 0"):
            decimal_str(1, -1)
        for value in (2.5, Decimal("2.5"), "7/2"):
            with pytest.raises(TypeError, match=f"takes an int or a Fraction, got {type(value).__name__}"):
                decimal_str(value, 6)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_lcm_gcd_product_identity(a, b):
    assert lcm_factorization([a, b]).value * math.gcd(a, b) == a * b


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    assert factorize(n).value == n


@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == trial_factorize(n)


@given(st.integers(min_value=-10, max_value=10**7))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_is_prime(n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3037000499), st.integers(min_value=1, max_value=3037000499))
def test_factorize_is_multiplicative(a, b):
    # a * b <= 3037000499**2 < 2**63 - 1; its factorization merges those of a and b.
    merged = factorize(a).as_dict()
    for prime, mult in factorize(b).factors:
        merged[prime] = merged.get(prime, 0) + mult
    f = factorize(a * b)
    assert f.as_dict() == merged
    assert Factorization(f.factors) == f  # built without the checks, but passes them


@given(
    st.lists(
        st.tuples(st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=30)),
        max_size=3,
    )
)
def test_crt_matches_brute_force(congruences):
    assert crt(congruences) == brute_crt(congruences)


@given(st.permutations([116, 584, 365, 780, 399, 378, 177, 178, 148]))
def test_lcm_order_independent(values):
    assert lcm_factorization(values).value == 768039133778280


@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6))
@example([137, 1016, 1637, 2465, 3687, 4457])  # LCM 9229871395499451240, past 2**63 - 1
def test_lcm_matches_pairwise_oracle(values):
    if math.lcm(*values) > INT63_MAX:  # six values up to 5000 can pass it
        with pytest.raises(OverflowError):
            lcm_factorization(values)
        return
    f = lcm_factorization(values)
    assert f.value == pairwise_lcm(values)
    assert f.value == math.lcm(*values)
    assert Factorization(f.factors) == f


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=100),
)
def test_rational_normalization(a, b, k):
    assert Fraction(a, b) == Fraction(k * a, k * b)
    f = Fraction(a, b)
    assert f.denominator > 0
    assert math.gcd(abs(f.numerator), f.denominator) == 1


@given(st.fractions(min_value=-1000, max_value=1000))
def test_round_nearest_is_nearest(r):
    n = round_nearest(r)
    assert abs(r - n) <= Fraction(1, 2)
