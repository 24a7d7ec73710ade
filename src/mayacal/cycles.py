"""Day-number conversions for the interlocking Maya calendar cycles.

A day is a non-negative count from the creation epoch (Long Count
0.0.0.0.0, the day written 13(0).0.0.0.0 4 Ahau 8 Cumku on the monuments).
From that single integer every cyclical position follows by residue:

* Tzolk'in position  ``(day + 160) % 260``
* Haab' position     ``(day + 349) % 365``
* Kawil count        ``(day + 3) % 819``
* direction-color    ``((day + 3) // 819) % 4``

Positions use the one-based convention: position ``p`` names the date at
zero-based ordinal ``(p - 1) % cycle`` of the ordered date list.  The
published residues (160 for 4 Ahau, 349 for 8 Cumku, 49 for 8 Zip, 264 for
3 Kankin) only land on the right named dates under this mapping, and it
reproduces the externally attested 13.0.0.0.0 4 Ahau 3 Kankin.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import Memo, checked_replace, crt, new_record

TZOLKIN_NAMES = (
    "Imix", "Ik", "Akbal", "Kan", "Chicchan", "Cimi", "Manik", "Lamat",
    "Muluc", "Oc", "Chuen", "Eb", "Ben", "Ix", "Men", "Cib", "Caban",
    "Etznab", "Cauac", "Ahau",
)

HAAB_MONTHS = (
    "Pop", "Uo", "Zip", "Zotz", "Tzec", "Xul", "Yaxkin", "Mol", "Chen",
    "Yax", "Zac", "Ceh", "Mac", "Kankin", "Muan", "Pax", "Kayab", "Cumku",
    "Uayeb",
)

DIRECTION_COLORS = ("East-Red", "South-Yellow", "West-Black", "North-White")

TZOLKIN_DAYS = 260
HAAB_DAYS = 365
CALENDAR_ROUND = 18980  # LCM(260, 365) = 73 Tzolk'in = 52 Haab'
KAWIL_DAYS = 819
KAWIL_CYCLE = 4 * KAWIL_DAYS  # 3276, one full pass of the four direction-colors

# Long Count place values: kin 1, winal, tun, katun, baktun.
WINAL = 20
TUN = 360
KATUN = 7200
BAKTUN = 144000
ERA = 13 * BAKTUN  # 1872000-day Maya Era

#: Long Count digits, most significant first, with their largest values;
#: the baktun is unbounded.
LONG_COUNT_DIGITS = (("baktun", None), ("katun", 19), ("tun", 19), ("winal", 17), ("kin", 19))

# Epoch residues: creation day is Tzolk'in position 160, Haab' position 349,
# Kawil count 3, direction-color East-Red.
TZOLKIN_EPOCH = 160
HAAB_EPOCH = 349
KAWIL_EPOCH = 3


class TzolkinDate(NamedTuple("TzolkinDate", [("number", int), ("name_index", int)])):
    """A date in the 260-day ritual cycle: a 1..13 number and a 20-name wheel."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, number: int, name_index: int) -> TzolkinDate:
        if not 1 <= number <= 13:
            raise ValueError(f"Tzolk'in number must be 1..13, got {number}")
        if not 0 <= name_index <= 19:
            raise ValueError(f"Tzolk'in name index must be 0..19, got {name_index}")
        return new_record(cls, (number, name_index))

    @property
    def name(self) -> str:
        return TZOLKIN_NAMES[self.name_index]

    @property
    def ordinal(self) -> int:
        """Zero-based place in the ordered list 1 Imix .. 13 Ahau, unique as gcd(13, 20) = 1."""
        return crt(((self.number - 1, 13), (self.name_index, 20)))[0]

    @property
    def position(self) -> int:
        """One-based cycle position, the inverse of :func:`tzolkin_from_pos`."""
        return (self.ordinal + 1) % TZOLKIN_DAYS

    def __str__(self) -> str:
        return f"{self.number} {self.name}"


class HaabDate(NamedTuple("HaabDate", [("day", int), ("month_index", int)])):
    """A date in the 365-day year: 18 months of 20 days plus the 5-day Uayeb."""

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, day: int, month_index: int) -> HaabDate:
        if not 0 <= month_index <= 18:
            raise ValueError(f"Haab' month index must be 0..18, got {month_index}")
        limit = 4 if month_index == 18 else 19
        if not 0 <= day <= limit:
            raise ValueError(
                f"Haab' day {day} out of range 0..{limit} for {HAAB_MONTHS[month_index]}"
            )
        return new_record(cls, (day, month_index))

    @property
    def month_name(self) -> str:
        return HAAB_MONTHS[self.month_index]

    @property
    def ordinal(self) -> int:
        """Zero-based place in the ordered list 0 Pop .. 4 Uayeb."""
        return self.month_index * 20 + self.day

    @property
    def position(self) -> int:
        """One-based cycle position, the inverse of :func:`haab_from_pos`."""
        return (self.ordinal + 1) % HAAB_DAYS

    def __str__(self) -> str:
        return f"{self.day} {self.month_name}"


class LongCount(NamedTuple("LongCount", [(name, int) for name, _ in LONG_COUNT_DIGITS])):
    """Mixed-radix day count: kin 1, winal 20, tun 360, katun 7200, baktun 144000.

    Baktun is unbounded (attested counts reach baktun 17 and beyond); the
    lower digits keep their radix bounds.
    """

    __slots__ = ()
    _replace = checked_replace

    def __new__(cls, baktun: int, katun: int, tun: int, winal: int, kin: int) -> LongCount:
        digits = (baktun, katun, tun, winal, kin)
        for (field_name, limit), value in zip(LONG_COUNT_DIGITS, digits):
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")
            if limit is not None and value > limit:
                raise ValueError(f"{field_name} must be <= {limit}, got {value}")
        return new_record(cls, digits)

    @property
    def days(self) -> int:
        baktun, katun, tun, winal, kin = self
        return baktun * BAKTUN + katun * KATUN + tun * TUN + winal * WINAL + kin

    def __str__(self) -> str:
        return f"{self.baktun}.{self.katun}.{self.tun}.{self.winal}.{self.kin}"


class CycleDate(NamedTuple):
    """The full cyclical position of one day."""

    day: int
    tzolkin: TzolkinDate
    haab: HaabDate
    kawil: int
    direction_color: int
    long_count: LongCount

    @property
    def direction_color_name(self) -> str:
        return DIRECTION_COLORS[self.direction_color]

    @property
    def calendar_round(self) -> str:
        return f"{self.tzolkin} {self.haab}"

    def __str__(self) -> str:
        return f"{self.long_count} {self.calendar_round}"


def tzolkin_from_pos(pos: int) -> TzolkinDate:
    """Tzolk'in date at one-based cycle position ``pos`` (0..259)."""
    if not 0 <= pos < TZOLKIN_DAYS:
        raise ValueError(f"Tzolk'in position must be 0..259, got {pos}")
    ordinal = (pos + TZOLKIN_DAYS - 1) % TZOLKIN_DAYS
    return TzolkinDate(number=ordinal % 13 + 1, name_index=ordinal % 20)


def haab_from_pos(pos: int) -> HaabDate:
    """Haab' date at one-based cycle position ``pos`` (0..364)."""
    if not 0 <= pos < HAAB_DAYS:
        raise ValueError(f"Haab' position must be 0..364, got {pos}")
    ordinal = (pos + HAAB_DAYS - 1) % HAAB_DAYS
    return HaabDate(day=ordinal % 20, month_index=ordinal // 20)


def long_count_from_day(day: int) -> LongCount:
    """Canonical digit expansion of a day number (radix 20/18/20/20, open baktun)."""
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    baktun, rest = divmod(day, BAKTUN)
    katun, rest = divmod(rest, KATUN)
    tun, rest = divmod(rest, TUN)
    winal, kin = divmod(rest, WINAL)
    return LongCount(baktun, katun, tun, winal, kin)


#: :func:`calendar_parts`'s Tzolk'in and Haab' records by zero-based ordinal: at most 260 and 365, each made once.
_TZOLKINS = Memo(lambda ordinal: new_record(TzolkinDate, (ordinal % 13 + 1, ordinal % 20)))
_HAABS = Memo(lambda ordinal: new_record(HaabDate, (ordinal % 20, ordinal // 20)))


def calendar_parts(day: int) -> tuple[LongCount, TzolkinDate, HaabDate]:
    """A day's Long Count, Tzolk'in and Haab' (pre-creation days rejected), in closed form: each value
    is a digit or residue of the day, in range, so each record is built by :data:`~.arith.new_record`."""
    if day < 0:
        raise ValueError(f"day must be non-negative, got {day}")
    return (new_record(LongCount, (day // BAKTUN, day // KATUN % 20, day // TUN % 20, day // WINAL % 18, day % WINAL)),
            _TZOLKINS[(day + TZOLKIN_EPOCH - 1) % TZOLKIN_DAYS], _HAABS[(day + HAAB_EPOCH - 1) % HAAB_DAYS])


def cycle_date(day: int) -> CycleDate:
    """All cyclical positions of a day number: :func:`calendar_parts`'s records and the Kawil count's residues."""
    long_count, tzolkin, haab = calendar_parts(day)
    kawil = day + KAWIL_EPOCH
    return new_record(CycleDate, (day, tzolkin, haab, kawil % KAWIL_DAYS, kawil // KAWIL_DAYS % 4, long_count))
