"""The matches of a Calendar Round window, written in either of the CLI's formats.

A ``convert --window`` answer is the one payload with no bound on its size:
``--window 0..10000000000000`` has 5.3e8 matches, about 100 GB of text.  So
its rows have their own writer, one loop per format, in place of the
generic writers every other table goes through, and the bytes are the same.
Each row is one string.  The day, its baktun and katun, its JDN and the
JDN's civil date are the row's own.  Every other field is decided by a
cycle, so, as the days step by the window's step, it repeats: it is
rendered for the first rows of its period only, then cycled.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain, cycle, islice
from math import gcd
from typing import NamedTuple

from .correlation import civil_text
from .cycles import BAKTUN, CALENDAR_ROUND, KATUN, KAWIL_CYCLE, calendar_parts, cycle_date

#: Characters joined per write: each write is a syscall when stdout is
#: unbuffered (``PYTHONUNBUFFERED``), and a bounded batch keeps memory flat.
#: A window's rows come in pieces of about this size.
WRITE_BATCH = 1 << 16


class WindowMatches(NamedTuple):
    """The matches of a ``convert --window``: its days, a non-empty ``range``, and the JDN of day 0."""

    days: range
    jdn_at_creation: int

    def text(self, pad: str) -> Iterator[str]:
        """The rows as list entries at ``pad``, their lines joined, in pieces of about :data:`WRITE_BATCH`."""
        nl = f"\n{pad}    "
        return _batches("\n", (
            f"{pad}  - day: {day}{nl}long_count: {day // BAKTUN}.{day // KATUN % 20}.{places}{nl}calendar_round: "
            f"{rounds}{nl}kawil: {kawil}{nl}jdn: {jdn}{nl}gregorian: {civil_text(jdn, 'gregorian')}"
            for day, jdn, rounds, kawil, places in self._cycled(str, f"{nl}direction_color_name: ")))

    def json(self, quote: Callable[[str], str], pad: str) -> Iterator[str]:
        """The rows as objects at ``pad``, joined by commas, in pieces of about :data:`WRITE_BATCH`;
        ``quote`` is the JSON encoder's; a Long Count or civil date needs none: letters, digits, dots and spaces."""
        e = pad + "  "
        return _batches(",", (
            f'{pad}{{{e}"day": {day},{e}"long_count": "{day // BAKTUN}.{day // KATUN % 20}.{places}",'
            f'{e}"calendar_round": {rounds},{e}"kawil": {kawil},{e}"jdn": {jdn},'
            f'{e}"gregorian": "{civil_text(jdn, "gregorian")}"{pad}}}'
            for day, jdn, rounds, kawil, places in self._cycled(quote, f',{e}"direction_color_name": ')))

    def _cycled(self, quote: Callable[[str], str], color: str) -> Iterator[tuple]:
        """Per day: the day, its JDN, its Calendar Round, its Kawil count with ``color`` and its
        direction-color, and its "tun.winal.kin"; each name ``quote``d as the format writes it."""
        days, shift = self.days, self.jdn_at_creation
        return zip(days, range(days.start + shift, days.stop + shift, days.step),
                   _periodic(days, CALENDAR_ROUND, lambda day: quote("%s %s" % calendar_parts(day)[1:])),
                   _periodic(days, KAWIL_CYCLE, lambda day: f"{(cd := cycle_date(day)).kawil}{color}"
                                                            f"{quote(cd.direction_color_name)}"),
                   _periodic(days, KATUN, lambda day: "%d.%d.%d" % calendar_parts(day)[0][2:]))


def _periodic(days: range, period: int, render: Callable[[int], str]) -> Iterator[str]:
    """``render`` of each of ``days``, for a field that repeats every ``period`` days: the days step by
    ``days.step``, so it repeats every ``period // gcd(period, step)`` rows, and only those are rendered."""
    return cycle([render(day) for day in days[:period // gcd(period, days.step)]])


def _batches(sep: str, rows: Iterator[str]) -> Iterator[str]:
    """``rows`` (at least one) joined by ``sep``, in pieces of about :data:`WRITE_BATCH` characters:
    each piece holds as many rows as would fill it if each were as long as the first."""
    first = next(rows)
    per_piece = WRITE_BATCH // len(first) + 1
    rows = chain([first], rows)
    return iter(lambda: sep.join(islice(rows, per_piece)), "")
