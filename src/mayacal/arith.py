"""Exact integer and rational arithmetic primitives.

Everything downstream (cycle conversions, the super-number identities, the
lunar error function) is exact integer or rational arithmetic; floating
point never enters an identity check.  Rationals are ``fractions.Fraction``
(always in lowest terms, positive denominator); :func:`round_nearest` and
:func:`decimal_str` take an ``int`` or a ``Fraction`` and raise TypeError for
anything else.  Least common multiples are ``math.lcm``, except the
super-number N, the LCM of the nine canonical periods:
:func:`lcm_factorization` merges their prime tables, so N is auditable
against the factorization it came from.  No ``math.lcm`` call needs its
2**63 overflow check: every argument is a module constant, or a lunation
length T0 <= 18988, as the lunar search at the modern month stops at the
first T0 >= 18980.

Factorization covers every n up to 2**63 - 1 in milliseconds: trial division
by 2 and then odd d below ``TRIAL_BOUND`` (which alone factors every n below
``TRIAL_BOUND**2``, and so every period in the model), then Miller-Rabin with
12 bases, exact below psi_12, and Brent's variant of Pollard rho on the rest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

#: All inputs the model factorizes fit in a signed 64-bit word; results
#: beyond this bound are reported as overflow, never wrapped.
INT63_MAX = 2**63 - 1

#: factorize trial-divides by 2 and the odd numbers below this bound, so
#: every n below its square is factored by trial division alone.
TRIAL_BOUND = 1000

#: Miller-Rabin bases: the first 12 primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)

#: psi_12, the least odd composite that passes the strong test to all 12
#: bases (Jiang & Deng, Math. Comp. 2014).  Below it the bases decide
#: primality exactly; it is about 3.2e23, far above the 63-bit bound.
_MR_EXACT_BELOW = 318665857834031151167461

#: Brent-Pollard rho steps whose differences share one gcd.
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every n below psi_12.

    An n up to 37 or sharing a factor with the bases is prime only if it is a
    base; any other must pass the strong test to all 12 bases.  Integer
    arithmetic only.  Raises ValueError for an n >= psi_12 (about 3.2e23) that
    passes them all, as 12 bases no longer decide its primality.
    """
    if n <= 37 or math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the range where Miller-Rabin with 12 bases is exact")
    return True


#: ``new_record(Record, values)`` is ``Record._make(values)`` without its classmethod call and length check.
new_record = tuple.__new__


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
        return new_record(cls, (factors,))

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

    Trial division by 2 and then by odd d below ``TRIAL_BOUND`` removes
    every small prime; it alone factors every n below ``TRIAL_BOUND**2``,
    which covers every period in the model.  A larger cofactor is prime by
    :func:`is_prime` or is split by Brent-Pollard rho, and each part again.
    Each prime is divided out or proven, so the result is built with :data:`new_record`.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    if n > INT63_MAX:
        raise ValueError(f"{n} exceeds the 63-bit input bound")
    factors = []
    remaining = n
    d = 2
    while d * d <= remaining and d < TRIAL_BOUND:
        mult = 0
        while remaining % d == 0:
            remaining //= d
            mult += 1
        if mult:
            factors.append((d, mult))
        d += 1 if d == 2 else 2
    # Every prime below d is divided out, so a cofactor below d*d is prime.
    if d * d > remaining > 1:
        factors.append((remaining, 1))
    elif remaining > 1:
        large = _large_prime_factors(remaining)
        factors += ((p, large.count(p)) for p in sorted(set(large)))
    return new_record(Factorization, (tuple(factors),))


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
    result = new_record(Factorization, (tuple(sorted(merged.items())),))
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
    """Nearest integer to an ``int`` or a ``Fraction``; exact halves round away from zero.

    Any other type, a float or a Decimal included, is a TypeError.
    """
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"round_nearest takes an int or a Fraction, got {type(r).__name__}")
    n, d = r.numerator, r.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((2 * -n + d) // (2 * d))


def decimal_str(r: Fraction | int, places: int) -> str:
    """Exact decimal rendering of an ``int`` or a ``Fraction``, rounded to ``places`` digits.

    Rounding matches :func:`round_nearest` (half away from zero) applied at
    the last printed digit, e.g. 4429/150 -> "29.526667" at 6 places.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    if not isinstance(r, (int, Fraction)):  # a str or a list would be repeated 10**places times
        raise TypeError(f"decimal_str takes an int or a Fraction, got {type(r).__name__}")
    scaled = round_nearest(r * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"
