#!/usr/bin/env python3
"""Time one day's round trip through cycles, correlation and notation, call by call.

Usage: PYTHONPATH=src python3 scripts/time_notation.py

Each line is the best of 100 short ``timeit`` repeats, in microseconds per call,
for the Long Round day 1366560 (9.9.16.0.0 4 Ahau 8 Cumku).  The host's
noise only adds time, so the best repeat is the steadiest figure; compare
two checkouts by running the script on each, in turn, a few times, from
copies without ``src/mayacal/__pycache__`` (``git archive`` makes them): a
checkout's bytecode cache is read even under ``PYTHONDONTWRITEBYTECODE=1``,
and it shortens a cold call's imports, though not the calls timed here.  The
"window row" lines are one match of a ``convert --window`` list, rendered
as ``main`` renders it: a 1001-match window, timed whole and divided by its
matches.  The "verify all, json" and "table cultural-dates" lines render
those commands' envelopes, made once, as ``main`` renders them (the table in
text), so that a change to the renderers can be timed without start-up.  The
last line is a whole day's round trip, the sequence that the benchmark's
day-batch workload times for each day.
"""

import timeit

from mayacal import cli
from mayacal.correlation import GMT, describe
from mayacal.cycles import cycle_date
from mayacal.notation import expression_from_day, format_date, parse, resolution

DAY = 1366560
WINDOW_MATCHES = 1001  # the days 0, 18980, ..., 18980000 of 4 Ahau 8 Cumku


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
    parser = cli.build_parser()
    argv = ["convert", "4 Ahau 8 Cumku", "--window", f"0..{18980 * (WINDOW_MATCHES - 1)}"]
    window = cli.cmd_convert(parser.parse_args(argv), GMT)
    verify = cli.cmd_verify(parser.parse_args(["verify", "all"]), GMT)
    table = cli.cmd_table(parser.parse_args(["table", "cultural-dates"]), GMT)
    calls = {
        "cycle_date": lambda: cycle_date(DAY),
        "describe": lambda: describe(DAY),
        "parse": lambda: parse(text),
        "format_date plain": lambda: format_date(expr, "plain"),
        "format_date annotated": lambda: format_date(expr, "annotated"),
        "resolution": lambda: resolution(expr, (DAY, DAY)),
        "expression_from_day": lambda: expression_from_day(DAY),
        "window row, text": lambda: "".join(window.render("text")),
        "window row, json": lambda: "".join(window.render("json")),
        "verify all, json": lambda: "".join(verify.render("json")),
        "table cultural-dates": lambda: "".join(table.render("text")),
        "day round trip": lambda: round_trip(DAY),
    }
    for name, call in calls.items():
        number = max(1, timeit.Timer(call).autorange()[0] // 20)
        best = min(timeit.repeat(call, number=number, repeat=100)) / number
        if name.startswith("window row"):
            best /= WINDOW_MATCHES
        print(f"{name:22} {best * 1e6:6.2f} us")


if __name__ == "__main__":
    main()
