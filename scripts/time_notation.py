#!/usr/bin/env python3
"""Time one day's round trip through cycles, correlation and notation, call by call.

Usage: PYTHONPATH=src python3 scripts/time_notation.py

Each line is the best of 100 short ``timeit`` repeats, in microseconds per call,
for the Long Round day 1366560 (9.9.16.0.0 4 Ahau 8 Cumku); "parse, non-canonical
digits" reads it as 09.09.16.00.00 04 Ahau 08 Cumku, whose digits miss the parser's
table of "0".."19" and go through ``str.isdecimal`` and ``int``.  The host's
noise only adds time, so the best repeat is the steadiest figure; compare
two checkouts by running the script on each, in turn, a few times, from
copies without ``src/mayacal/__pycache__`` (``git archive`` makes them): a
checkout's bytecode cache is read even under ``PYTHONDONTWRITEBYTECODE=1``,
and it shortens a cold call's imports, though not the calls timed here.  The
"window row" lines are one match of a ``convert --window`` list, rendered
as ``main`` renders it: the 53-match window 0..10^6, a 1001-match window and
the 52688-match window 0..10^9, each timed whole and divided by its matches.
Each repeat builds the envelope with ``cmd_convert``, so its rows render the
fields that repeat (at most 1 + 63 + 360 of them) again, as in a cold call;
only the Gregorian day-of-year table of ``correlation`` (at most 366
entries, kept by the process) stays filled after the first repeat.  The
"verify all, json" and "table
cultural-dates" lines render those commands' envelopes, made once, as
``main`` renders them (the table in text), so that a change to the
renderers can be timed without start-up.  The
last two lines are a whole day's round trip, the sequence that the benchmark's
day-batch workload times for each day: of the Long Round day, and of the Era
multiple 365×13(0).0.0.0.0 4 Ahau 8 Cumku, whose annotated Long Count the parser
reads digit by digit.
"""

import timeit
from functools import partial

from mayacal import cli
from mayacal.correlation import GMT, describe
from mayacal.cycles import ERA, cycle_date
from mayacal.notation import expression_from_day, format_date, parse, resolution

DAY = 1366560
ERA_DAY = 365 * ERA
NON_CANONICAL = "09.09.16.00.00 04 Ahau 08 Cumku"
#: Windows of 4 Ahau 8 Cumku by their matches: 0..10^6, the days 0, 18980, ..., 18980000, and 0..10^9.
WINDOWS = {53: 10**6, 1001: 18980 * 1000, 52688: 10**9}


def round_trip(day: int) -> None:
    """Cycles and civil dates of a day, its expression in both styles, and each parsed and resolved back."""
    cycle_date(day)
    describe(day)
    expr = expression_from_day(day)
    for text in (format_date(expr, "plain"), format_date(expr, "annotated")):
        resolution(parse(text), (day, day))


def render_window(args, fmt: str) -> None:
    """A window's envelope built and rendered, as ``main`` does for a ``convert --window`` call."""
    "".join(cli.cmd_convert(args, GMT).render(fmt))


def main():
    expr = expression_from_day(DAY)
    text = format_date(expr)
    parser = cli.build_parser()
    windows = {matches: parser.parse_args(["convert", "4 Ahau 8 Cumku", "--window", f"0..{hi}"])
               for matches, hi in WINDOWS.items()}
    verify = cli.cmd_verify(parser.parse_args(["verify", "all"]), GMT)
    table = cli.cmd_table(parser.parse_args(["table", "cultural-dates"]), GMT)
    calls = {
        "cycle_date": lambda: cycle_date(DAY),
        "describe": lambda: describe(DAY),
        "parse": lambda: parse(text),
        "parse, non-canonical digits": lambda: parse(NON_CANONICAL),
        "format_date plain": lambda: format_date(expr, "plain"),
        "format_date annotated": lambda: format_date(expr, "annotated"),
        "resolution": lambda: resolution(expr, (DAY, DAY)),
        "expression_from_day": lambda: expression_from_day(DAY),
        **{f"window row, {fmt}, {matches}": partial(render_window, args, fmt)
           for matches, args in windows.items() for fmt in ("text", "json")},
        "verify all, json": lambda: "".join(verify.render("json")),
        "table cultural-dates": lambda: "".join(table.render("text")),
        "day round trip": lambda: round_trip(DAY),
        "era day round trip": lambda: round_trip(ERA_DAY),
    }
    for name, call in calls.items():
        number = max(1, timeit.Timer(call).autorange()[0] // 20)
        best = min(timeit.repeat(call, number=number, repeat=100)) / number
        if name.startswith("window row"):
            best /= int(name.rpartition(" ")[2])
        print(f"{name:29} {best * 1e6:6.2f} us")


if __name__ == "__main__":
    main()
