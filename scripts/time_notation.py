#!/usr/bin/env python3
"""Time one day's round trip through the notation layer, call by call.

Usage: PYTHONPATH=src python3 scripts/time_notation.py

Each line is the best of 100 short ``timeit`` repeats, in microseconds per call,
for the Long Round day 1366560 (9.9.16.0.0 4 Ahau 8 Cumku).  The host's
noise only adds time, so the best repeat is the steadiest figure; compare
two checkouts by running the script on each, in turn, a few times.  The
last line is a whole day's round trip, the sequence that the benchmark's
day-batch workload times for each day.
"""

import timeit

from mayacal import cli
from mayacal.correlation import GMT, describe
from mayacal.cycles import cycle_date
from mayacal.notation import expression_from_day, format_date, parse, resolution

DAY = 1366560


def round_trip(day: int) -> None:
    """Cycles and civil dates of a day, its expression in both styles, and each parsed and resolved back."""
    cycle_date(day)
    describe(day)
    expr = expression_from_day(day)
    for text in (format_date(expr, "plain"), format_date(expr, "annotated")):
        resolution(parse(text), (day, day))


def main():
    expr = expression_from_day(DAY)
    text = format_date(expr)
    calls = {
        "parse": lambda: parse(text),
        "format_date plain": lambda: format_date(expr, "plain"),
        "format_date annotated": lambda: format_date(expr, "annotated"),
        "resolution": lambda: resolution(expr, (DAY, DAY)),
        "expression_from_day": lambda: expression_from_day(DAY),
        "cli._match_summary": lambda: cli._match_summary(DAY, GMT),  # one window row
        "day round trip": lambda: round_trip(DAY),
    }
    for name, call in calls.items():
        number = max(1, timeit.Timer(call).autorange()[0] // 20)
        best = min(timeit.repeat(call, number=number, repeat=100)) / number
        print(f"{name:22} {best * 1e6:6.2f} us")


if __name__ == "__main__":
    main()
