"""Exact-arithmetic model of Maya calendrical astronomy.

The package turns one non-negative day count into every interlocking cycle
position (Tzolk'in, Haab', Kawil-direction-color, Long Count), derives the
calendar super-number from nine canonical synodic periods and verifies its
published identities, searches lunar equations for the Palenque formula,
and correlates day counts to Julian Day Numbers and civil dates.
"""

from .arith import (
    Factorization,
    decimal_str,
    factorize,
    round_nearest,
)
from .correlation import (
    GMT_CORRELATION,
    CivilDate,
    CorrelationConstant,
    civil_to_jdn,
    describe,
    jdn_to_civil,
    to_jdn,
)
from .cycles import (
    CALENDAR_ROUND,
    ERA,
    CycleDate,
    HaabDate,
    LongCount,
    TzolkinDate,
    cycle_date,
    haab_from_pos,
    long_count_from_day,
    tzolkin_from_pos,
)
from .lunar import (
    MODERN_SYNODIC_MONTH,
    PALENQUE_RATIO,
    LunarCandidate,
    eclipse_commensuration,
    epsilon,
    moon_age,
    ratio_table,
    search,
)
from .notation import (
    DateExpression,
    DateParseError,
    era_display,
    expression_from_day,
    format_date,
    parse,
    resolution,
)
from .supernumber import (
    SUPER_NUMBER,
    XULTUN,
    DerivedConstants,
    creation_residues,
    cultural_dates,
    derive_constants,
    verify_aeon_identity,
)

__version__ = "0.1.0"
