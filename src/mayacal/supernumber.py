"""The calendar super-number and the identities derived from it.

The super-number N is the least common multiple of nine canonical periods:
the synodic periods of Mercury, Venus, Earth's year, Mars, Jupiter and
Saturn, the two 177/178-day lunar semesters and the 148-day pentalunex.
With the canonical inputs,

    N = 768039133778280 = 2^3 x 3^3 x 5 x 7 x 13 x 19 x 29 x 37 x 59 x 73 x 89

Euclidean division of N/37 by the 956592000-day grand cycle and by the
136656000-day Aeon leaves remainders that decompose exactly over the four
Xultun numbers (341640, 1195740, 1765140, 2448420, all multiples of 56940),
and the residues of N/13/37/73 pin the Calendar Round position of the
creation date.  Every identity is checked exactly; any mismatch reports
expected against computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Factorization, crt, lcm_factorization, lcm_many
from .checks import Report
from .cycles import (
    CALENDAR_ROUND,
    ERA,
    HAAB_DAYS,
    HAAB_EPOCH,
    KAWIL_CYCLE,
    CycleDate,
    cycle_date,
    haab_from_pos,
    tzolkin_from_pos,
)
from .notation import era_display

SUPER_NUMBER = 768039133778280

#: The four Xultun mural numbers and their common unit 56940 = LCM(365, 780).
XULTUN = (341640, 1195740, 1765140, 2448420)
XULTUN_UNIT = 56940

LONG_ROUND = 1366560  # 9.9.16.0.0, Dresden Codex Venus table


#: The nine canonical day counts behind the super-number: the synodic
#: periods of Mercury, Venus, Earth (the Haab'), Mars, Jupiter and Saturn,
#: the two lunar semesters and the pentalunex.
CANONICAL_PERIODS = (116, 584, 365, 780, 399, 378, 177, 178, 148)


@dataclass(frozen=True)
class DerivedConstants:
    """The cycle lengths derived from the canonical periods (all day counts).

    Derived values only: the deciphered and attested numbers (``XULTUN``,
    ``ERA``, ``LONG_ROUND``, ``CALENDAR_ROUND``, ``KAWIL_CYCLE``) are inputs
    and stay module constants, read directly by the suites.
    """

    n: int
    n_factors: Factorization
    tun_haab_kawil: int  # LCM(360, 365, 3276)
    aeon: int  # 400 * X0
    grand_cycle: int  # 7 * aeon


def derive_constants() -> DerivedConstants:
    """Derive every named cycle from the canonical periods.

    N is the LCM of the periods, kept with the merged factorization it came
    from.
    """
    factors = lcm_factorization(CANONICAL_PERIODS)
    x0 = lcm_many([260, 360, 365])
    return DerivedConstants(
        n=factors.value,
        n_factors=factors,
        tun_haab_kawil=lcm_many([360, 365, KAWIL_CYCLE]),
        aeon=400 * x0,
        grand_cycle=7 * 400 * x0,
    )


def verify_supernumber(c: DerivedConstants) -> Report:
    """The super-number value, factorization, and per-period cofactors."""
    report = Report("super-number")
    report.check("N", SUPER_NUMBER, c.n)
    report.check(
        "N factorization",
        {2: 3, 3: 3, 5: 1, 7: 1, 13: 1, 19: 1, 29: 1, 37: 1, 59: 1, 73: 1, 89: 1},
        c.n_factors.as_dict(),
    )
    report.check("N divisible by every period", [0] * 9, [c.n % p for p in CANONICAL_PERIODS])
    y = c.tun_haab_kawil
    report.check(
        "cofactors LCM(P_i, Y)/Y",
        [29, 1, 1, 1, 19, 3, 59, 89, 37],
        [lcm_many([p, y]) // y for p in CANONICAL_PERIODS],
    )
    report.check("N = Y * 3 * 19 * 29 * 37 * 59 * 89", c.n, y * 3 * 19 * 29 * 37 * 59 * 89)
    return report


def verify_xultun(c: DerivedConstants) -> Report:
    """Xultun number ratios and their 56940-day common unit."""
    report = Report("Xultun numbers")
    x0, x1 = XULTUN[:2]
    report.check("X_i / 56940", [6, 21, 31, 43], [x // XULTUN_UNIT for x in XULTUN])
    report.check("X_i divisible by 56940", [0, 0, 0, 0], [x % XULTUN_UNIT for x in XULTUN])
    report.check("gcd of the X_i", XULTUN_UNIT, math.gcd(*XULTUN))
    report.check("56940 = LCM(365, 780)", XULTUN_UNIT, lcm_many([365, 780]))
    report.check("X0 = LCM(260, 360, 365)", x0, lcm_many([260, 360, 365]))
    report.check("X0 = LR / 4", x0, LONG_ROUND // 4)
    report.check("X1 = 365 * 3276", x1, 365 * KAWIL_CYCLE)
    report.check("Y = LCM(360, 365, 3276) = 7 * X0", c.tun_haab_kawil, 7 * x0)
    return report


def verify_grand_cycle_division(c: DerivedConstants) -> Report:
    """Euclidean division of N/37 by the 956592000-day grand cycle.

    N/37 is the LCM of the inputs without the pentalunex; the remainder
    decomposes as 126 * sum(X_i) over the Xultun numbers.
    """
    report = Report("division by the grand cycle")
    report.check("37 divides N", 0, c.n % 37)
    n37 = c.n // 37
    report.check(
        "N/37 = LCM of periods without pentalunex",
        n37,
        lcm_many(CANONICAL_PERIODS[:-1]),
    )
    sum_x = sum(XULTUN)
    q, r = divmod(n37, c.grand_cycle)
    report.check("N/37 = GC*q + r: q", 21699, q)
    report.check("N/37 = GC*q + r: r", 724618440, r)
    report.check("r = 101 * 126 * 56940", r, 101 * 126 * XULTUN_UNIT)
    report.check("r = 126 * sum(X_i)", r, 126 * sum_x)
    report.check("N/37 - 126*sum(X_i) = 151893 * A", n37 - 126 * sum_x, 151893 * c.aeon)
    return report


def verify_aeon_division(c: DerivedConstants) -> Report:
    """Euclidean division of N/37 by the 136656000-day Aeon.

    The remainder is 121 * X0, the first Xultun number.
    """
    report = Report("division by the Aeon")
    report.check("37 divides N", 0, c.n % 37)
    n37 = c.n // 37
    x0 = XULTUN[0]
    q, r = divmod(n37, c.aeon)
    report.check("N/37 = A*q + r: q", 151898, q)
    report.check("N/37 = A*q + r: r", 41338440, r)
    report.check("r = 6 * 121 * 56940", r, 6 * 121 * XULTUN_UNIT)
    report.check("r = 121 * X0", r, 121 * x0)
    report.check("N/37 - 121*X0 = 151898 * A", n37 - 121 * x0, 151898 * c.aeon)
    return report


def verify_aeon_identity(c: DerivedConstants) -> Report:
    """The 5-Aeon identity and the Era/grand-cycle relations around it."""
    report = Report("Aeon identity")
    x0, x1, x2, x3 = XULTUN
    five_a = 5 * c.aeon
    five_x0 = 5 * x0
    report.check("5A - 5X0 = 95 * 126 * 56940", five_a - five_x0, 95 * 126 * XULTUN_UNIT)
    report.check(
        "5A - 5X0 = LCM(X1+X2+X3, X1+2*X2+X3)",
        five_a - five_x0,
        lcm_many([x1 + x2 + x3, x1 + 2 * x2 + x3]),
    )
    report.check("5A = 5X0 + 570 * X1", five_a, five_x0 + 570 * x1)
    report.check("5A = 365 * Era", five_a, 365 * ERA)
    report.check("5A = 12000 * 56940", five_a, 12000 * XULTUN_UNIT)
    report.check("Era - 5X0", 163800, ERA - five_x0)
    report.check("Era - 5X0 = 10 * LCM(260, 3276)", ERA - five_x0, 10 * lcm_many([260, KAWIL_CYCLE]))
    report.check("A = LCM(260, 365, 144000)", c.aeon, lcm_many([260, 365, 144000]))
    report.check("A = 13 * 73 * 144000", c.aeon, 13 * 73 * 144000)
    report.check("A = 7200 * 18980", c.aeon, 7200 * CALENDAR_ROUND)
    # 37960 = LCM(260, 584) = 2 CR, the Venus commensuration with the Tzolk'in.
    report.check("A = 3600 * 37960", c.aeon, 3600 * lcm_many([260, 584]))
    report.check("A = 2400 * 56940", c.aeon, 2400 * XULTUN_UNIT)
    report.check("A = 100 * LR", c.aeon, 100 * LONG_ROUND)
    report.check("GC = 7 * A", c.grand_cycle, 7 * c.aeon)
    report.check("GC = 511 * Era", c.grand_cycle, 511 * ERA)
    report.check("GC = LCM(365, 3276, 144000)", c.grand_cycle, lcm_many([365, KAWIL_CYCLE, 144000]))
    report.check("GC = LCM(260, 365, 3276, Era)", c.grand_cycle, lcm_many([260, 365, KAWIL_CYCLE, ERA]))
    return report


def creation_residues(c: DerivedConstants) -> Report:
    """Initialize the Calendar Round and Kawil indices from the super-number.

    The residues of N/13/37/73 name the pair {160; 49}, i.e. 4 Ahau 8 Zip.
    Counting from that day, the first completion of a 13-Tun cycle (4680
    days) that lands back on a 4 Ahau day is 4 Ahau 8 Cumku, the pair
    {160; 349} taken as day 0 of the Long Count.  The shift is solved by
    :func:`crt`, not assumed; it recurs every 341640 = X0 days, i.e.
    LCM(4680, 365).
    """
    divisor = 13 * 37 * 73
    if c.n % divisor != 0:
        raise ArithmeticError(f"super-number {c.n} is not divisible by 13*37*73")
    if c.n % 37 != 0 or (c.n // 37) % 32760 != 0:
        raise ArithmeticError(f"super-number {c.n} is not divisible by 37*32760")
    q = c.n // divisor
    kawil_residue = (c.n // 37 // 32760) % 4

    report = Report("creation residues")
    report.check("N / (13*37*73)", 21873355560, q)
    report.check("mod 260", 160, q % 260)
    report.check("mod 13", 4, q % 13)
    report.check("mod 20", 0, q % 20)
    report.check("mod 73", 49, q % 73)
    report.check("mod(N/37/32760, 4)", 3, kawil_residue)

    anchor_t = tzolkin_from_pos(q % 260)
    anchor_h = haab_from_pos(q % 73)  # position pair {160; 49}
    report.check("anchor Tzolk'in", "4 Ahau", str(anchor_t))
    report.check("anchor Haab'", "8 Zip", str(anchor_h))

    # A whole number of 13-Tun cycles (so Tzolk'in 160 again, as 260 | 4680)
    # that moves Haab' 49 to 349 (8 Cumku).
    shift, _ = crt(((0, 4680), (HAAB_EPOCH - 49, HAAB_DAYS)))
    shifted_h = haab_from_pos((shift + 49) % 365)
    report.check("13-Tun shift to 8 Cumku", 4680, shift)
    report.check("shifted Haab'", "8 Cumku", str(shifted_h))
    report.check("creation Kawil count", 3, kawil_residue)
    report.check("creation direction-color", "East-Red", cycle_date(0).direction_color_name)
    return report


@dataclass(frozen=True)
class CulturalDate:
    """One row of the cultural-dates table: a named day and its cyclical position."""

    label: str
    meaning: str
    day: int
    lcc_display: str
    cycle: CycleDate

    @property
    def position(self) -> tuple[int, int, int, int]:
        """{Tzolk'in; Haab'; Kawil; direction-color} as published."""
        return (
            self.cycle.tzolkin.position,
            self.cycle.haab.position,
            self.cycle.kawil,
            self.cycle.direction_color,
        )


def cultural_dates(c: DerivedConstants) -> list[CulturalDate]:
    """The five anchor dates: creation, 5*X0, Era end, 5 Aeon, grand cycle."""
    x0 = XULTUN[0]
    rows = [
        ("I0", "mythical date of creation", 0),
        ("5X0", "date of the Itza prophecy", 5 * x0),
        ("E", "end of the 13 Baktun Era", ERA),
        ("5A", "end of the 5 Maya Aeon", 5 * c.aeon),
        ("GC", "end of the Maya grand cycle", c.grand_cycle),
    ]
    table = []
    for label, meaning, day in rows:
        cd = cycle_date(day)
        display = era_display(day) if day % ERA == 0 else str(cd.long_count)
        table.append(CulturalDate(label=label, meaning=meaning, day=day, lcc_display=display, cycle=cd))
    return table


def verify_cultural_dates(c: DerivedConstants) -> Report:
    """The published {T; H; K; n} sets for the five anchor dates."""
    expected = {
        "I0": (0, "13(0).0.0.0.0", (160, 349, 3, 0)),
        "5X0": (1708200, "11.17.5.0.0", (160, 349, 588, 1)),
        "E": (1872000, "13(0).0.0.0.0", (160, 264, 588, 1)),
        "5A": (683280000, "365×13(0).0.0.0.0", (160, 349, 588, 1)),
        "GC": (956592000, "511×13(0).0.0.0.0", (160, 349, 3, 0)),
    }
    report = Report("cultural dates")
    for row in cultural_dates(c):
        day, display, position = expected[row.label]
        report.check(f"{row.label} day", day, row.day)
        report.check(f"{row.label} LCC", display, row.lcc_display)
        report.check(f"{row.label} {{T;H;K;n}}", position, row.position)
    # 5X0 keeps the canonical digit expansion as well as the published form.
    report.check("5X0 digits", "11.17.5.0.0", str(cycle_date(1708200).long_count))
    return report
