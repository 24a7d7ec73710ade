"""Seeded inputs for the three workloads; the same seed gives the same pass.

A pass is the fixed list of operations a workload repeats until its time is
up.  Every pass of a run is identical, so failure counts per pass repeat
exactly and counts from the traced run divide evenly by the pass count.

CLI operations are dicts: ``kind`` (which oracle check applies), ``fmt``
(text or json), ``argv`` (arguments after ``--format``) and the parameters
the oracle needs.
"""

from __future__ import annotations

import random

import oracle

ERA = oracle.ERA
GRAND_CYCLE_DAYS = 956592000  # 511 Eras, the largest day the paper names
FACTOR_MAX = 2**61 - 1  # 2305843009213693951, a Mersenne prime

# Years 1..9999 of the proleptic Gregorian calendar, where datetime applies
# without the 400-year shift.
DATETIME_DAYS = (1721426 - oracle.GMT, 5373484 - oracle.GMT)


def _cr_base(text: str) -> int:
    """Residue mod 18980 of every day written with Calendar Round ``text``."""
    for d in range(oracle.CALENDAR_ROUND):
        if oracle.calendar_round(d) == text:
            return d
    raise ValueError(f"{text!r} is not a reachable Calendar Round")


def _lc_days(text: str) -> int:
    total = 0
    for digit, place in zip(text.split("."), (144000, 7200, 360, 20, 1)):
        total += int(digit) * place
    return total


def _both(spec: dict) -> list[dict]:
    return [{**spec, "fmt": fmt} for fmt in ("text", "json")]


def paper_cli(rng: random.Random) -> list[dict]:
    """The paper's commands, each in text and JSON, in seeded order."""
    specs = [
        {"kind": "day", "argv": ["convert", "9.9.16.0.0"], "day": _lc_days("9.9.16.0.0")},
        {"kind": "day", "argv": ["convert", "--day", "1872000"], "day": 1872000},
        {"kind": "window", "argv": ["convert", "4 Ahau 3 Kankin", "--window", "0..1872000"],
         "base": _cr_base("4 Ahau 3 Kankin"), "window": (0, 1872000)},
        {"kind": "verify", "argv": ["verify", "all"], "scope": "all"},
        {"kind": "verify", "argv": ["verify", "eq1"], "scope": "eq1"},
        {"kind": "lunar_table", "argv": ["lunar", "table"]},
        {"kind": "search", "argv": ["lunar", "search"], "max": 643},
        {"kind": "age", "argv": ["lunar", "age", "--lc", "9.16.15.0.0", "--lc0", "0", "--ratio", "2392/81"],
         "lc": _lc_days("9.16.15.0.0"), "lc0": 0, "ratio": oracle.Fraction(2392, 81)},
        {"kind": "factor", "argv": ["factor", "3276"], "n": 3276},
        {"kind": "table", "argv": ["table", "cultural-dates"]},
        # A Calendar Round without --window is a usage error: exit 2.
        {"kind": "usage", "argv": ["convert", "4 Ahau 3 Kankin"]},
    ]
    ops = [op for spec in specs for op in _both(spec)]
    rng.shuffle(ops)
    return ops


def _window(rng: random.Random, size: int, fmt: str, lo: int | None = None) -> dict:
    text = oracle.calendar_round(rng.randrange(oracle.CALENDAR_ROUND))
    lo = rng.randrange(10**6) if lo is None else lo
    hi = lo + size
    return {"kind": "window", "fmt": fmt, "argv": ["convert", text, "--window", f"{lo}..{hi}"],
            "base": _cr_base(text), "window": (lo, hi)}


def _prime_near(rng: random.Random, magnitude: int) -> int:
    return oracle.next_prime(rng.randrange(magnitude, magnitude + magnitude // 10))


def _factor(rng: random.Random, n: int) -> dict:
    return {"kind": "factor", "fmt": rng.choice(("text", "json")), "argv": ["factor", str(n)], "n": n}


def _smooth(rng: random.Random) -> int:
    n = 1
    while n < 10**15:
        n *= rng.choice((2, 3, 5, 7, 11, 13, 19, 29, 37, 59, 73, 89, 97))
    return n


def _search(rng: random.Random, max_lunations: int) -> dict:
    return {"kind": "search", "fmt": rng.choice(("text", "json")),
            "argv": ["lunar", "search", "--max", str(max_lunations)], "max": max_lunations}


# (size, calls per pass).  Counts are set so that the median and the tail
# percentile of a pass fall inside a group of similar calls, not on the edge
# between two groups, where a small change of speed would swap them.  The
# tail, p80 of 53 calls, is the 11th slowest call.  Above it sit the 4 calls
# stopped at the cap and the 5 windows of 10^9 days (about 3 s each), so it
# is the second slowest of the 8 primes near 10^14 (about 1.5 s each).  The
# top of that group is steady from run to run; its middle is not, because
# the shared host runs some calls up to a third faster for seconds at a time.
# Over ten seeds the 11th slowest call spread by 0.26 of its median when it
# was the sixth of these primes.  As the second it spread by 0.12 over ten
# other seeds, in a set where the host's drift spread p50 by 0.19.
WINDOW_SIZES = ((10**6, 7), (10**7, 3), (10**8, 2), (10**9, 5))
PRIME_SIZES = ((10**10, 4), (10**12, 1), (10**14, 8))
SEMIPRIME_HALVES = ((10**6, 2), (10**7, 2))
SEARCH_SIZES = ((643, 2), (1000, 3), (10000, 1))
SMOOTH_CALLS = 9


def worst_queries(rng: random.Random) -> list[dict]:
    """Inverse and scan queries stepping by decades, in seeded order.

    Sizes skip the decades whose run time in mayacal 0.1.0 would sit
    within a factor of about three of the per-call cap, so that a call either
    finishes well inside the cap or cannot finish at all.  The last call of
    each family (window 0..10^13, factor 2^61-1 and a balanced semiprime near
    10^18, lunar search --max 10^8) does not finish in mayacal 0.1.0.
    """
    ops = []
    for size, calls in WINDOW_SIZES:
        ops += [_window(rng, size, ("text", "json")[i % 2]) for i in range(calls)]
    ops.append(_window(rng, 10**13, "text", lo=0))

    ops += [_factor(rng, _smooth(rng)) for _ in range(SMOOTH_CALLS)]
    for magnitude, calls in PRIME_SIZES:
        ops += [_factor(rng, _prime_near(rng, magnitude)) for _ in range(calls)]
    for half, calls in SEMIPRIME_HALVES:
        for _ in range(calls):
            p = _prime_near(rng, half)
            ops.append(_factor(rng, p * oracle.next_prime(p + 1 + rng.randrange(half // 100))))
    ops.append(_factor(rng, FACTOR_MAX))
    p = _prime_near(rng, 10**9)
    ops.append(_factor(rng, p * oracle.next_prime(p + 1 + rng.randrange(10**8))))

    for low, calls in SEARCH_SIZES:
        ops += [_search(rng, rng.randrange(low, low + low // 10) if low > 643 else low) for _ in range(calls)]
    ops.append(_search(rng, 10**8))
    rng.shuffle(ops)
    return ops


DAYS_PER_PASS = 2000


def day_batch(rng: random.Random) -> list[int]:
    """Seeded days in 0..956592000 with a fixed set of Era multiples.

    Every pass holds day 0, one Era, and six Era multiples k*1872000 with
    k in 2..511; the rest are days that are not Era multiples, a quarter of
    them in the years 1..9999 that datetime covers directly.
    """
    eras = [0, ERA] + [k * ERA for k in rng.sample(range(2, 512), 6)]
    days = set()
    while len(days) < DAYS_PER_PASS - len(eras):
        lo, hi = DATETIME_DAYS if len(days) % 4 == 0 else (1, GRAND_CYCLE_DAYS)
        d = rng.randrange(lo, hi)
        if d % ERA:
            days.add(d)
    batch = eras + sorted(days)
    rng.shuffle(batch)
    return batch


WORKLOADS = {"paper-cli": paper_cli, "day-batch": day_batch, "worst-queries": worst_queries}
