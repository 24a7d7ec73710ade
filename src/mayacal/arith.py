"""Exact integer and rational arithmetic primitives.

Everything downstream (cycle conversions, the super-number identities, the
lunar error function) is exact integer or rational arithmetic; floating
point never enters an identity check.  Rationals are ``fractions.Fraction``
(always in lowest terms, positive denominator).  Least common multiples are
``math.lcm``, except the super-number N, the LCM of the nine canonical
periods: :func:`lcm_factorization` merges their prime tables, so N is
auditable against the factorization it came from.  No ``math.lcm`` call
needs its 2**63 overflow check: every argument is a module constant, or a
lunation length T0 <= 18988, as the lunar search at the modern month stops
at the first T0 >= 18980.

Factorization covers every n up to 2**63 - 1 in milliseconds: trial division
by the primes below ``TRIAL_BOUND`` (which alone factors every n below
``TRIAL_BOUND**2``, and so every period in the model), then a deterministic
Miller-Rabin test and Brent's variant of Pollard rho on what is left.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

#: All inputs the model factorizes fit in a signed 64-bit word; results
#: beyond this bound are reported as overflow, never wrapped.
INT63_MAX = 2**63 - 1

#: factorize trial-divides by the primes below this bound, so every n below
#: its square is factored by trial division alone.
TRIAL_BOUND = 1000

#: Miller-Rabin bases: the first 12 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)

#: psi_k, the least odd composite that passes the strong test to the first k
#: bases (Jaeschke, Math. Comp. 1993; Jiang & Deng, Math. Comp. 2014;
#: Sorenson & Webster, Math. Comp. 2017).  Below psi_k those k bases decide
#: primality exactly; psi_12 is about 3.2e23, far above the 63-bit bound.
_MR_EXACT_BELOW = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)

#: Brent-Pollard rho steps whose differences share one gcd.
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n below psi_12.

    Small prime divisors are ruled out first; each further base is tried
    only while n is not yet below the bound that makes the bases so far
    exact.  Integer arithmetic only.  Raises ValueError for n >= psi_12
    (about 3.2e23), where 12 bases no longer decide primality.
    """
    if n <= 37:
        return n in _MR_BASES
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return False
    if n < 41 * 41:  # no prime factor up to 37, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, bound in zip(_MR_BASES, _MR_EXACT_BELOW):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    raise ValueError(f"{n} is beyond the range where Miller-Rabin with 12 bases is exact")


def checked_replace(record, /, **changes):
    """``_replace`` for a record that checks its fields in ``__new__``: the copy is
    built by the constructor, where the named tuple's own goes through ``_make``."""
    values = [changes.pop(name, value) for name, value in zip(record._fields, record)]
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return type(record)(*values)


class Factorization(NamedTuple("Factorization", [("factors", tuple[tuple[int, int], ...])])):
    """A multiset of (prime, multiplicity) pairs, primes strictly increasing.

    The represented integer is the product of ``prime**multiplicity`` over
    all entries; the empty factorization represents 1.
    """

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, factors: tuple[tuple[int, int], ...]) -> Factorization:
        last = 1
        for prime, mult in factors:
            if prime <= last:
                raise ValueError(f"primes must be strictly increasing, got {prime} after {last}")
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            if mult < 1:
                raise ValueError(f"multiplicity of {prime} must be >= 1, got {mult}")
            last = prime
        return super().__new__(cls, factors)

    @property
    def value(self) -> int:
        n = 1
        for prime, mult in self.factors:
            n *= prime**mult
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for prime, mult in self.factors:
            parts.append(f"{prime}^{mult}" if mult > 1 else str(prime))
        return " × ".join(parts)


def factorize(n: int) -> Factorization:
    """Factor ``n`` exactly (1 <= n <= 2**63 - 1).

    Trial division by 2, 3 and 6k +/- 1 below ``TRIAL_BOUND`` removes every
    small prime; it alone factors every n below ``TRIAL_BOUND**2``, which
    covers every period in the model.  A larger cofactor is prime by
    :func:`is_prime` or is split by Brent-Pollard rho, and each part again.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    if n > INT63_MAX:
        raise ValueError(f"{n} exceeds the 63-bit input bound")
    factors = []
    remaining = n
    for p in (2, 3):
        mult = 0
        while remaining % p == 0:
            remaining //= p
            mult += 1
        if mult:
            factors.append((p, mult))
    d = 5
    while d * d <= remaining and d < TRIAL_BOUND:
        mult = 0
        while remaining % d == 0:
            remaining //= d
            mult += 1
        if mult:
            factors.append((d, mult))
        d += 2 if d % 6 == 5 else 4  # skip multiples of 2 and 3
    # Every prime below d is divided out, so a cofactor below d*d is prime.
    if d * d > remaining > 1:
        factors.append((remaining, 1))
    elif remaining > 1:
        large = _large_prime_factors(remaining)
        factors += ((p, large.count(p)) for p in sorted(set(large)))
    return Factorization(tuple(factors))


def _large_prime_factors(m: int) -> list[int]:
    """Prime factors of ``m``, with repetition; ``m`` has no prime factor below ``TRIAL_BOUND``."""
    if is_prime(m):
        return [m]
    d = _rho(m)
    return _large_prime_factors(d) + _large_prime_factors(m // d)


def _rho(n: int) -> int:
    """A divisor 1 < d < n of a composite ``n`` with no prime factor below ``TRIAL_BOUND``.

    Brent's variant of Pollard rho (Brent, BIT 1980): iterate x -> x*x + c
    mod n from x = 2, doubling the cycle-search window, for c = 1, 2, ...
    until a run splits n.  The differences of ``_RHO_BATCH`` steps are
    multiplied so that one gcd serves them all; a batch whose gcd is n is
    replayed one step at a time.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def lcm_factorization(values: list[int] | tuple[int, ...]) -> Factorization:
    """LCM of positive integers as a merged factorization (max multiplicity per prime).

    An LCM past 2**63 - 1 is an OverflowError, never a wrapped value.
    """
    if not values:
        raise ValueError("lcm of an empty list is undefined")
    merged: dict[int, int] = {}
    for v in values:
        if v < 1:
            raise ValueError(f"lcm arguments must be >= 1, got {v}")
        for prime, mult in factorize(v).factors:
            if mult > merged.get(prime, 0):
                merged[prime] = mult
    result = Factorization(tuple(sorted(merged.items())))
    if result.value > INT63_MAX:
        raise OverflowError(f"lcm {result.value} exceeds 2**63 - 1")
    return result


def crt(congruences: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> tuple[int, int] | None:
    """Joint solution ``(base, period)`` of ``x = residue (mod modulus)`` over the pairs.

    The solutions are ``base + k * period``, ``0 <= base < period``, with
    ``period`` the LCM of the moduli, which may share a factor; ``None`` when
    the congruences conflict, ``(0, 1)`` for none.
    """
    base, period = 0, 1
    for residue, modulus in congruences:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        g = math.gcd(period, modulus)
        diff = residue - base
        if diff % g:
            return None
        step = modulus // g
        base += period * (diff // g * pow(period // g, -1, step) % step)
        period *= step
    return base, period


def round_nearest(r: Fraction | int) -> int:
    """Nearest integer to ``r``; exact halves round away from zero."""
    f = Fraction(r)
    n, d = f.numerator, f.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((2 * -n + d) // (2 * d))


def decimal_str(r: Fraction | int, places: int) -> str:
    """Exact decimal rendering of a rational, rounded to ``places`` digits.

    Rounding matches :func:`round_nearest` (half away from zero) applied at
    the last printed digit, e.g. 4429/150 -> "29.526667" at 6 places.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    scaled = round_nearest(Fraction(r) * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"
