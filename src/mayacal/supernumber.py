"""The calendar super-number and the identities derived from it.

The super-number N is the least common multiple of nine canonical periods:
the synodic periods of Mercury, Venus, Earth's year, Mars, Jupiter and
Saturn, the two 177/178-day lunar semesters and the 148-day pentalunex.
With the paper's inputs, ``PAPER``,

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
from fractions import Fraction
from typing import NamedTuple

from .arith import Factorization, crt, lcm_factorization
from .checks import Report
from .cycles import (CALENDAR_ROUND, ERA, HAAB_DAYS, KAWIL_CYCLE, TUN, TZOLKIN_DAYS, CycleDate, cycle_date,
                     haab_from_pos, tzolkin_from_pos)
from .notation import era_display

SUPER_NUMBER = 768039133778280


class Model(NamedTuple):
    """The paper's inputs, all day counts; every check is a function of one ``Model``."""

    #: The synodic periods of Mercury, Venus, Earth (the Haab'), Mars, Jupiter
    #: and Saturn, the two lunar semesters and the pentalunex: N is their LCM.
    periods: tuple[int, ...]
    xultun: tuple[int, int, int, int]  # the four Xultun mural numbers
    xultun_unit: int  # their common unit, LCM(365, 780)
    long_round: int  # 9.9.16.0.0, Dresden Codex Venus table
    era: int
    calendar_round: int
    kawil_cycle: int
    palenque: tuple[int, int]  # the Palenque formula as (days, lunations)


PAPER = Model(periods=(116, 584, 365, 780, 399, 378, 177, 178, 148), xultun=(341640, 1195740, 1765140, 2448420),
              xultun_unit=56940, long_round=1366560, era=ERA, calendar_round=CALENDAR_ROUND,
              kawil_cycle=KAWIL_CYCLE, palenque=(2392, 81))


class Derived(NamedTuple):
    """The cycle lengths and creation position derived from a model (all day counts)."""

    model: Model
    n: int
    n_factors: Factorization
    tun_haab_kawil: int  # LCM(360, 365, Kawil cycle)
    aeon: int  # 400 * X0
    grand_cycle: int  # 7 * aeon
    anchor: int  # N / (13*37*73), whose residues name the anchor day
    shift: int  # the 13-Tun shift from the anchor to the creation day
    kawil_residue: int  # N/37/32760 mod 4, the creation Kawil count


def derive(model: Model) -> Derived:
    """Derive every named cycle and the creation position from ``model``.

    N is the LCM of the periods, kept with the merged factorization it came
    from.  The creation position follows the rule :func:`creation_residues`
    states, by floor division: a model whose N lacks a factor it divides by
    still derives, and only that suite refuses it.
    """
    factors = lcm_factorization(model.periods)
    n = factors.value
    x0 = model.xultun[0]
    # The least shift that is whole 13-Tun cycles and whole Tzolk'ins.
    _, shift = crt(((0, 13 * TUN), (0, TZOLKIN_DAYS)))
    return Derived(model=model, n=n, n_factors=factors, tun_haab_kawil=math.lcm(360, 365, model.kawil_cycle),
                   aeon=400 * x0, grand_cycle=7 * 400 * x0, anchor=n // (13 * 37 * 73), shift=shift,
                   kawil_residue=n // 37 // 32760 % 4)


def verify_supernumber(c: Derived) -> Report:
    """The super-number value, factorization, and per-period cofactors."""
    report = Report("super-number")
    report.check("N", SUPER_NUMBER, c.n)
    report.check(
        "N factorization",
        {2: 3, 3: 3, 5: 1, 7: 1, 13: 1, 19: 1, 29: 1, 37: 1, 59: 1, 73: 1, 89: 1},
        c.n_factors.as_dict(),
    )
    report.check("N divisible by every period", [0] * 9, [c.n % p for p in c.model.periods])
    y = c.tun_haab_kawil
    report.check(
        "cofactors LCM(P_i, Y)/Y",
        [29, 1, 1, 1, 19, 3, 59, 89, 37],
        [math.lcm(p, y) // y for p in c.model.periods],
    )
    report.check("N = Y * 3 * 19 * 29 * 37 * 59 * 89", c.n, y * 3 * 19 * 29 * 37 * 59 * 89)
    return report


def verify_xultun(c: Derived) -> Report:
    """Xultun number ratios and their 56940-day common unit."""
    report = Report("Xultun numbers")
    m = c.model
    x0, x1 = m.xultun[:2]
    unit = m.xultun_unit
    report.check("X_i / 56940", [6, 21, 31, 43], [x // unit for x in m.xultun])
    report.check("X_i divisible by 56940", [0, 0, 0, 0], [x % unit for x in m.xultun])
    report.check("gcd of the X_i", unit, math.gcd(*m.xultun))
    report.check("56940 = LCM(365, 780)", unit, math.lcm(365, 780))
    report.check("X0 = LCM(260, 360, 365)", x0, math.lcm(260, 360, 365))
    # Exact: an int when 4 divides LR, so the output keeps its int.
    report.check("X0 = LR / 4", x0, m.long_round // 4 if m.long_round % 4 == 0 else Fraction(m.long_round, 4))
    report.check("X1 = 365 * 3276", x1, 365 * m.kawil_cycle)
    report.check("Y = LCM(360, 365, 3276) = 7 * X0", c.tun_haab_kawil, 7 * x0)
    return report


def verify_grand_cycle_division(c: Derived) -> Report:
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
        math.lcm(*c.model.periods[:-1]),
    )
    sum_x = sum(c.model.xultun)
    q, r = divmod(n37, c.grand_cycle)
    report.check("N/37 = GC*q + r: q", 21699, q)
    report.check("N/37 = GC*q + r: r", 724618440, r)
    report.check("r = 101 * 126 * 56940", r, 101 * 126 * c.model.xultun_unit)
    report.check("r = 126 * sum(X_i)", r, 126 * sum_x)
    report.check("N/37 - 126*sum(X_i) = 151893 * A", n37 - 126 * sum_x, 151893 * c.aeon)
    return report


def verify_aeon_division(c: Derived) -> Report:
    """Euclidean division of N/37 by the 136656000-day Aeon.

    The remainder is 121 * X0, the first Xultun number.
    """
    report = Report("division by the Aeon")
    report.check("37 divides N", 0, c.n % 37)
    n37 = c.n // 37
    x0 = c.model.xultun[0]
    q, r = divmod(n37, c.aeon)
    report.check("N/37 = A*q + r: q", 151898, q)
    report.check("N/37 = A*q + r: r", 41338440, r)
    report.check("r = 6 * 121 * 56940", r, 6 * 121 * c.model.xultun_unit)
    report.check("r = 121 * X0", r, 121 * x0)
    report.check("N/37 - 121*X0 = 151898 * A", n37 - 121 * x0, 151898 * c.aeon)
    return report


def verify_aeon_identity(c: Derived) -> Report:
    """The 5-Aeon identity and the Era/grand-cycle relations around it."""
    report = Report("Aeon identity")
    m = c.model
    x0, x1, x2, x3 = m.xultun
    five_a = 5 * c.aeon
    five_x0 = 5 * x0
    report.check("5A - 5X0 = 95 * 126 * 56940", five_a - five_x0, 95 * 126 * m.xultun_unit)
    report.check(
        "5A - 5X0 = LCM(X1+X2+X3, X1+2*X2+X3)",
        five_a - five_x0,
        math.lcm(x1 + x2 + x3, x1 + 2 * x2 + x3),
    )
    report.check("5A = 5X0 + 570 * X1", five_a, five_x0 + 570 * x1)
    report.check("5A = 365 * Era", five_a, 365 * m.era)
    report.check("5A = 12000 * 56940", five_a, 12000 * m.xultun_unit)
    report.check("Era - 5X0", 163800, m.era - five_x0)
    report.check("Era - 5X0 = 10 * LCM(260, 3276)", m.era - five_x0, 10 * math.lcm(260, m.kawil_cycle))
    report.check("A = LCM(260, 365, 144000)", c.aeon, math.lcm(260, 365, 144000))
    report.check("A = 13 * 73 * 144000", c.aeon, 13 * 73 * 144000)
    report.check("A = 7200 * 18980", c.aeon, 7200 * m.calendar_round)
    # 37960 = LCM(260, 584) = 2 CR, the Venus commensuration with the Tzolk'in.
    report.check("A = 3600 * 37960", c.aeon, 3600 * math.lcm(260, 584))
    report.check("A = 2400 * 56940", c.aeon, 2400 * m.xultun_unit)
    report.check("A = 100 * LR", c.aeon, 100 * m.long_round)
    report.check("GC = 7 * A", c.grand_cycle, 7 * c.aeon)
    report.check("GC = 511 * Era", c.grand_cycle, 511 * m.era)
    report.check("GC = LCM(365, 3276, 144000)", c.grand_cycle, math.lcm(365, m.kawil_cycle, 144000))
    report.check("GC = LCM(260, 365, 3276, Era)", c.grand_cycle, math.lcm(260, 365, m.kawil_cycle, m.era))
    return report


def creation_residues(c: Derived) -> Report:
    """Initialize the Calendar Round and Kawil indices from the super-number.

    The residues of N/13/37/73 name the pair {160; 49}, i.e. 4 Ahau 8 Zip.
    Counting from that day, the first completion of a 13-Tun cycle (4680
    days) that lands back on a 4 Ahau day is 4 Ahau 8 Cumku, the pair
    {160; 349} taken as day 0 of the Long Count; the Kawil count is
    N/37/32760 mod 4.  :func:`derive` solves the shift by :func:`crt`, and
    the Haab' it lands on is computed here, neither assumed.
    """
    if c.n % (13 * 37 * 73) != 0:
        raise ArithmeticError(f"super-number {c.n} is not divisible by 13*37*73")
    if c.n % 37 != 0 or (c.n // 37) % 32760 != 0:
        raise ArithmeticError(f"super-number {c.n} is not divisible by 37*32760")
    q = c.anchor

    report = Report("creation residues")
    report.check("N / (13*37*73)", 21873355560, q)
    report.check("mod 260", 160, q % 260)
    report.check("mod 13", 4, q % 13)
    report.check("mod 20", 0, q % 20)
    report.check("mod 73", 49, q % 73)
    report.check("mod(N/37/32760, 4)", 3, c.kawil_residue)

    anchor_t = tzolkin_from_pos(q % 260)
    anchor_h = haab_from_pos(q % 73)  # position pair {160; 49}
    report.check("anchor Tzolk'in", "4 Ahau", str(anchor_t))
    report.check("anchor Haab'", "8 Zip", str(anchor_h))

    # The shift keeps Tzolk'in 160; the Haab' moves from the anchor's 49 by it.
    shifted_h = haab_from_pos((q % 73 + c.shift) % HAAB_DAYS)
    report.check("13-Tun shift to 8 Cumku", 4680, c.shift)
    report.check("shifted Haab'", "8 Cumku", str(shifted_h))
    creation = cycle_date(0)
    report.check("creation Kawil count", 3, creation.kawil)
    report.check("creation direction-color", "East-Red", creation.direction_color_name)
    return report


class CulturalDate(NamedTuple):
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


def named_days(c: Derived) -> dict[int, tuple[str, str]]:
    """The days the model names, in day order: ``{day: (label, meaning)}``."""
    x0, x1, x2, x3 = c.model.xultun
    return {
        0: ("I0", "mythical date of creation"),
        x0: ("X0", "first Xultun number (X0)"),
        x1: ("X1", "second Xultun number (X1)"),
        c.model.long_round: ("LR", "Long Round (Dresden Codex Venus table)"),
        5 * x0: ("5X0", "date of the Itza prophecy"),
        x2: ("X2", "third Xultun number (X2)"),
        c.model.era: ("E", "end of the 13 Baktun Era"),
        x3: ("X3", "fourth Xultun number (X3)"),
        c.aeon: ("A", "Maya Aeon"),
        5 * c.aeon: ("5A", "end of the 5 Maya Aeon"),
        c.grand_cycle: ("GC", "end of the Maya grand cycle"),
    }


def cultural_dates(c: Derived) -> list[CulturalDate]:
    """The five anchor dates of :func:`named_days`: creation, 5*X0, Era end, 5 Aeon, grand cycle."""
    table = []
    for day, (label, meaning) in named_days(c).items():
        if label in ("I0", "5X0", "E", "5A", "GC"):
            cd = cycle_date(day)
            display = era_display(day) if day % ERA == 0 else str(cd.long_count)
            table.append(CulturalDate(label=label, meaning=meaning, day=day, lcc_display=display, cycle=cd))
    return table


def verify_cultural_dates(c: Derived) -> Report:
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
    report.check("5X0 digits", "11.17.5.0.0", str(cycle_date(5 * c.model.xultun[0]).long_count))
    return report
