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
from typing import TYPE_CHECKING, NamedTuple

from .arith import decimal_str, round_nearest
from .checks import Report
from .cycles import CALENDAR_ROUND

if TYPE_CHECKING:
    from .supernumber import Derived

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

#: The published scan's bound, i = 1..643: i = 643 gives T = 18988, the first T of at least one Calendar Round.
PUBLISHED_MAX_LUNATIONS = 643

PALENQUE_RATIO = Fraction(2392, 81)
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
    L = Rd(T / 29.53); the modern row is the equation S = 29.530588 in
    lowest terms, whose epsilon is that of 29530588 days = 1000000 lunations.
    """
    month_estimate = Fraction(2953, 100)
    rows = [candidate(n, days, round_nearest(days / month_estimate)) for days in TABLE_LENGTHS]
    modern = MODERN_SYNODIC_MONTH  # not a whole-day table length: no Tzolk'in commensuration
    rows.append(candidate(n, modern.numerator, modern.denominator)._replace(lcm260=None))
    return rows


class SearchResult(NamedTuple):
    """Outcome of the lunation search i = 1..max."""

    candidates: tuple[LunarCandidate, ...]  # one per i, ordered by i, up to the first T0 >= one CR
    filtered: tuple[LunarCandidate, ...]  # LCM(260, T0) < one Calendar Round
    zero_error: tuple[LunarCandidate, ...]  # filtered, epsilon = 0
    minimal_nonzero: tuple[LunarCandidate, ...]  # filtered, smallest epsilon > 0
    best: LunarCandidate | None  # of minimal_nonzero, closest ratio to the modern month S0
    pareto: tuple[LunarCandidate, ...]  # filtered, Pareto-optimal in (epsilon, |S - S0|)


def search(n: int, max_lunations: int = PUBLISHED_MAX_LUNATIONS) -> SearchResult:
    """Scan lunar equations i = 1..max_lunations with T0_i = Rd(i * S0).

    S0 is the modern synodic month, MODERN_SYNODIC_MONTH.  Flags, among the
    candidates with LCM(260, T0) < 18980, the zero-error set, the
    smallest-nonzero-error set, the member of that set closest to S0, and
    the full (error, |S - S0|) Pareto front.
    Candidates are built up to the first T0 of at least one Calendar Round
    (T = 18988 at i = 643, the default bound): T0 only grows with i and
    LCM(260, T0) >= T0, so no later i can pass the filter.
    """
    if max_lunations < 1:
        raise ValueError("max_lunations must be >= 1")
    candidates = []
    for i in range(1, max_lunations + 1):
        days = round_nearest(i * MODERN_SYNODIC_MONTH)
        candidates.append(candidate(n, days, i))
        if days >= CALENDAR_ROUND:
            break

    filtered = tuple(c for c in candidates if c.lcm260 < CALENDAR_ROUND)
    # Each kept equation beside its point (epsilon, |S - S0|), computed once.
    points = [(c, c.error, abs(c.ratio - MODERN_SYNODIC_MONTH)) for c in filtered]
    zero = tuple(c for c in filtered if c.error == 0)
    floor = min((e for _, e, _ in points if e), default=None)
    minimal = tuple(c for c, e, _ in points if e == floor)
    best = min((p for p in points if p[1] == floor), key=lambda p: p[2], default=(None,))[0]
    # On the front: no point other than an equal one is <= in both coordinates.
    pareto = tuple(
        c for c, e, s in points if not any(f <= e and t <= s and (f, t) != (e, s) for _, f, t in points)
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


def verify_palenque(c: Derived) -> Report:
    """The exact Palenque statement and its equivalent table lengths."""
    report = Report("Palenque formula")
    days, lunations = c.model.palenque
    ratio = Fraction(days, lunations)
    report.check("81*N + 104 = 26008014145502 * 2392", PALENQUE_MULTIPLIER * days, lunations * c.n + 104)
    report.check("multiplier = Rd(81*N / 2392)", PALENQUE_MULTIPLIER, round_nearest(Fraction(lunations * c.n, days)))
    report.check("epsilon(2392, 81)", Fraction(104, 81), epsilon(c.n, days, lunations))
    report.check("2392/81 = 4784/162 = 11960/405", [Fraction(4784, 162), Fraction(11960, 405)], [ratio] * 2)
    report.check("ratio at 6 decimals", "29.530864", decimal_str(ratio, 6))
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


def eclipse_commensuration(c: Derived) -> Report:
    """Commensuration of the Tzolk'in, the Palenque formula, and the Calendar Round."""
    report = Report("eclipse commensuration")
    days, calendar_round = c.model.palenque[0], c.model.calendar_round
    table = math.lcm(260, days)
    report.check("LCM(260, 2392)", 11960, table)
    report.check("LCM(260, 2392) = 5 * 2392", table, 5 * days)
    combined = math.lcm(11960, calendar_round)
    report.check("LCM(11960, 18980)", 873080, combined)
    report.check("= 73 * 11960", combined, 73 * 11960)
    report.check("= 365 * 2392", combined, 365 * days)
    report.check("= 46 Calendar Rounds", combined, 46 * calendar_round)
    return report
