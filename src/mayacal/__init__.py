"""Exact-arithmetic model of Maya calendrical astronomy.

The package turns one non-negative day count into every interlocking cycle
position (Tzolk'in, Haab', Kawil-direction-color, Long Count), derives the
calendar super-number from nine canonical synodic periods and verifies its
published identities, searches lunar equations for the Palenque formula,
and correlates day counts to Julian Day Numbers and civil dates.

The package exports the names of the README's library example and of a
day's round trip; records and every other function are imported from
their modules (``mayacal.cycles``, ``mayacal.supernumber`` and so on).
"""

from .correlation import describe
from .cycles import cycle_date
from .lunar import epsilon, search
from .notation import expression_from_day, format_date, parse, resolution
from .supernumber import PAPER, derive

__version__ = "0.1.0"
