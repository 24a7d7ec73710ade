"""Lunar ratios: the error function, the ratio table, and the lunation search.

A lunar equation "L lunations = T days" defines the Moon ratio S = T/L.
Against the super-number N its error is

    epsilon = |N - Rd(N/S) * S|

with Rd the nearest-integer round.  Everything is exact rational
arithmetic: epsilon = |N*L - Rd(N*L/T) * T| / L, so epsilon = 0 exactly
when T divides N*L.  Decimal renderings exist only for display.

The search scans lunar equations i = 1..643 built from the modern synodic
month (29.530588 days), keeps those commensurate with the Tzolk'in inside
one Calendar Round (LCM(260, T) < 18980), and flags the zero-error ratios
and the best non-zero approximation - the 81-lunation = 2392-day Palenque
formula, whose exact statement is 81*N + 104 = 26008014145502 * 2392.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import decimal_str, round_nearest
from .checks import Report
from .cycles import CALENDAR_ROUND

#: Modern Moon synodic period, 29.530588 days, as an exact rational.
MODERN_SYNODIC_MONTH = Fraction(29530588, 1000000)

#: Attested lunar-table lengths in days and their sources, in table order.
TABLE_SOURCES = {
    11960: "Dresden Codex eclipse table",
    4784: "Xultun lunar table",
    4606: "Xultun lunar table",
    4429: "Xultun lunar table",
    4400: "Copan Moon ratio",
    2392: "Palenque formula",
}
TABLE_LENGTHS = tuple(TABLE_SOURCES)

PALENQUE_DAYS = 2392
PALENQUE_LUNATIONS = 81
PALENQUE_RATIO = Fraction(PALENQUE_DAYS, PALENQUE_LUNATIONS)
PALENQUE_MULTIPLIER = 26008014145502  # lunations in N: 81*N + 104 = multiplier * 2392


def epsilon(n: int, days: int, lunations: int) -> Fraction:
    """Exact error of the lunar equation ``lunations = days`` against ``n``.

    Always in [0, days/(2*lunations)]; zero exactly when days | n*lunations.
    """
    if days < 1 or lunations < 1:
        raise ValueError("days and lunations must be positive")
    nearest = round_nearest(Fraction(n * lunations, days))
    return Fraction(abs(n * lunations - nearest * days), lunations)


class LunarCandidate(NamedTuple):
    """One lunar equation: T0 days = L lunations, with its ratio and error."""

    days: int  # T0
    lunations: int  # L
    ratio: Fraction  # S = T0/L
    error: Fraction  # epsilon against the super-number
    lcm260: int | None  # LCM(260, T0), commensuration with the Tzolk'in

    @property
    def ratio_str(self) -> str:
        return f"{self.days}/{self.lunations}"


def candidate(n: int, days: int, lunations: int) -> LunarCandidate:
    return LunarCandidate(
        days=days,
        lunations=lunations,
        ratio=Fraction(days, lunations),
        error=epsilon(n, days, lunations),
        lcm260=math.lcm(260, days),
    )


def ratio_table(n: int) -> list[LunarCandidate]:
    """The attested lunar equations plus the modern synodic month.

    For each attested table length T the lunation count is
    L = Rd(T / 29.53); the modern row carries S = 29.530588 directly (its
    error uses the same formula on the reduced numerator/denominator, which
    leaves epsilon unchanged).
    """
    month_estimate = Fraction(2953, 100)
    rows = []
    for days in TABLE_LENGTHS:
        lunations = round_nearest(Fraction(days) / month_estimate)
        rows.append(candidate(n, days, lunations))
    modern = MODERN_SYNODIC_MONTH
    rows.append(
        LunarCandidate(
            days=modern.numerator,
            lunations=modern.denominator,
            ratio=modern,
            error=epsilon(n, modern.numerator, modern.denominator),
            lcm260=None,  # not a whole-day table length; no Tzolk'in commensuration
        )
    )
    return rows


class SearchResult(NamedTuple):
    """Outcome of the lunation search i = 1..max."""

    candidates: tuple[LunarCandidate, ...]  # one per i, ordered by i, up to the first T0 >= one CR
    filtered: tuple[LunarCandidate, ...]  # LCM(260, T0) < one Calendar Round
    zero_error: tuple[LunarCandidate, ...]  # filtered, epsilon = 0
    minimal_nonzero: tuple[LunarCandidate, ...]  # filtered, smallest epsilon > 0
    best: LunarCandidate | None  # of minimal_nonzero, closest ratio to the target
    pareto: tuple[LunarCandidate, ...]  # filtered, Pareto-optimal in (epsilon, |S - target|)


def search(
    n: int,
    target: Fraction = MODERN_SYNODIC_MONTH,
    max_lunations: int = 643,
) -> SearchResult:
    """Scan lunar equations i = 1..max_lunations with T0_i = Rd(i * target).

    Flags, among the candidates with LCM(260, T0) < 18980, the zero-error
    set, the smallest-nonzero-error set, the member of that set closest to
    the target ratio, and the full (error, |S - target|) Pareto front.
    Candidates are built up to the first T0 of at least one Calendar Round
    (T = 18988 at i = 643, the default bound): T0 only grows with i and
    LCM(260, T0) >= T0, so no later i can pass the filter.
    """
    if max_lunations < 1:
        raise ValueError("max_lunations must be >= 1")
    candidates = []
    for i in range(1, max_lunations + 1):
        days = round_nearest(i * target)
        candidates.append(candidate(n, days, i))
        if days >= CALENDAR_ROUND:
            break

    filtered = tuple(c for c in candidates if c.lcm260 < CALENDAR_ROUND)
    zero = tuple(c for c in filtered if c.error == 0)
    nonzero = [c for c in filtered if c.error > 0]
    minimal: tuple[LunarCandidate, ...] = ()
    best = None
    if nonzero:
        floor = min(c.error for c in nonzero)
        minimal = tuple(c for c in nonzero if c.error == floor)
        best = min(minimal, key=lambda c: abs(c.ratio - target))

    pareto = tuple(
        c
        for c in filtered
        if not any(
            (d.error <= c.error and abs(d.ratio - target) < abs(c.ratio - target))
            or (d.error < c.error and abs(d.ratio - target) <= abs(c.ratio - target))
            for d in filtered
        )
    )
    return SearchResult(
        candidates=tuple(candidates),
        filtered=filtered,
        zero_error=zero,
        minimal_nonzero=minimal,
        best=best,
        pareto=pareto,
    )


def moon_age(lc: int, lc0: int, ratio: Fraction) -> Fraction:
    """Days into the current lunation: remainder of (lc - lc0) modulo the ratio.

    Exact rational in [0, ratio); lc must not precede the new-Moon anchor lc0.
    """
    if ratio <= 0:
        raise ValueError(f"Moon ratio must be positive, got {ratio}")
    if lc < lc0:
        raise ValueError(f"day {lc} precedes the new-Moon anchor {lc0}")
    return Fraction(lc - lc0) % ratio


def verify_ratio_table(n: int) -> Report:
    """Table rows: lunation counts, printed 6-decimal ratios, rounded errors."""
    report = Report("lunar ratio table")
    rows = ratio_table(n)
    attested, modern = rows[:-1], rows[-1]
    report.check("lunation counts L", [405, 162, 156, 150, 149, 81], [r.lunations for r in attested])
    report.check(
        "ratios S at 6 decimals",
        ["29.530864", "29.530864", "29.525641", "29.526667", "29.530201", "29.530864"],
        [decimal_str(r.ratio, 6) for r in attested],
    )
    report.check(
        "rounded errors",
        [1, 1, 8, 11, 2, 1],
        [round_nearest(r.error) for r in attested],
    )
    report.check("modern ratio at 6 decimals", "29.530588", decimal_str(modern.ratio, 6))
    report.check("modern rounded error", 4, round_nearest(modern.error))
    return report


def verify_palenque(n: int) -> Report:
    """The exact Palenque statement and its equivalent table lengths."""
    report = Report("Palenque formula")
    report.check(
        "81*N + 104 = 26008014145502 * 2392",
        PALENQUE_MULTIPLIER * PALENQUE_DAYS,
        PALENQUE_LUNATIONS * n + 104,
    )
    report.check(
        "multiplier = Rd(81*N / 2392)",
        PALENQUE_MULTIPLIER,
        round_nearest(Fraction(PALENQUE_LUNATIONS * n, PALENQUE_DAYS)),
    )
    report.check("epsilon(2392, 81)", Fraction(104, 81), epsilon(n, PALENQUE_DAYS, PALENQUE_LUNATIONS))
    report.check(
        "2392/81 = 4784/162 = 11960/405",
        [PALENQUE_RATIO] * 2,
        [Fraction(4784, 162), Fraction(11960, 405)],
    )
    report.check("ratio at 6 decimals", "29.530864", decimal_str(PALENQUE_RATIO, 6))
    return report


def verify_search(result: SearchResult) -> Report:
    """The published outcome of the 643-lunation scan ``result``."""
    report = Report("lunation search")
    report.check(
        "zero-error ratios inside one CR",
        [(30, 1), (59, 2), (118, 4), (148, 5), (236, 8), (295, 10)],
        sorted((c.days, c.lunations) for c in result.zero_error),
    )
    report.check(
        "zero-error reduced ratios",
        [Fraction(59, 2), Fraction(148, 5), Fraction(30)],
        sorted({c.ratio for c in result.zero_error}),
    )
    best = result.best
    report.check("best nonzero ratio", PALENQUE_RATIO, best.ratio if best else None)
    report.check("best nonzero error", Fraction(104, 81), best.error if best else None)
    report.check(
        "final scan length exceeds one CR",
        True,
        result.candidates[-1].days > CALENDAR_ROUND,
    )
    return report


def eclipse_commensuration() -> Report:
    """Commensuration of the Tzolk'in, the Palenque formula, and the Calendar Round."""
    report = Report("eclipse commensuration")
    table = math.lcm(260, PALENQUE_DAYS)
    report.check("LCM(260, 2392)", 11960, table)
    report.check("LCM(260, 2392) = 5 * 2392", table, 5 * PALENQUE_DAYS)
    combined = math.lcm(11960, CALENDAR_ROUND)
    report.check("LCM(11960, 18980)", 873080, combined)
    report.check("= 73 * 11960", combined, 73 * 11960)
    report.check("= 365 * 2392", combined, 365 * PALENQUE_DAYS)
    report.check("= 46 Calendar Rounds", combined, 46 * CALENDAR_ROUND)
    return report
