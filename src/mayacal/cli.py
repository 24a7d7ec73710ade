"""Command-line surface: conversions, verification suites, lunar tools, tables.

Every command builds one :class:`OutputEnvelope`; the ``--format`` flag
picks the rendering (text or JSON) of that same envelope, so the two views
never diverge.  The format is read once, from argv before argparse reads it
(else ``$MAYACAL_FORMAT``), so a bad command line gets its envelope in it too.
The envelope is written to stdout as it is made, so a window of millions of
matches streams in bounded memory, and a call killed part-way leaves a
truncated document.  Exit codes: 0 success, 1 verification mismatch, 2 usage
or parse error, 3 a fault in mayacal, 120 stdout closed by its reader (as in
``mayacal ... | head``).  A fault gets an error envelope naming where it was
raised, also one raised while the envelope renders its rows; once part of the
document is written, stdout is left truncated instead and the fault is one
line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from fractions import Fraction
from typing import Any, NamedTuple

from .arith import decimal_str, factorize, round_nearest
from .checks import Check, jsonable
from .correlation import GMT_CORRELATION, CorrelationConstant, civil_text, describe
from .cycles import ERA, cycle_date
from .lunar import (MODERN_SYNODIC_MONTH, PUBLISHED_MAX_LUNATIONS, TABLE_SOURCES, LunarCandidate,
                    eclipse_commensuration, moon_age, ratio_table, search, verify_palenque, verify_ratio_table,
                    verify_search)
from .notation import DateParseError, era_display, parse, read_int, resolution
from .supernumber import (PAPER, creation_residues, cultural_dates, derive, named_days,
                          verify_aeon_division, verify_aeon_identity, verify_cultural_dates,
                          verify_grand_cycle_division, verify_supernumber, verify_xultun)
from .window import WRITE_BATCH, WindowMatches

FORMAT_ENV_VAR = "MAYACAL_FORMAT"
FORMATS = ("text", "json")

#: Exit code when stdout's reader has gone; the interpreter uses it too
#: when flushing stdout fails at exit.
BROKEN_PIPE_EXIT = 120

#: Exit code of an unexpected exception in a command, a fault in mayacal itself.
FAULT_EXIT = 3

#: The verify suites in paper order, each a function of one model's
#: derived record; ``verify all`` runs every one.
SUITES = {
    "eq1": lambda c: [verify_supernumber(c), verify_xultun(c)],
    "eq2": lambda c: [verify_grand_cycle_division(c)],
    "eq3": lambda c: [verify_aeon_division(c)],
    "eq4": lambda c: [verify_aeon_identity(c)],
    "residues": lambda c: [creation_residues(c)],
    "dates": lambda c: [verify_cultural_dates(c)],
    "lunar": lambda c: [verify_ratio_table(c.n), verify_palenque(c), verify_search(search(c.n))],
    "eclipse": lambda c: [eclipse_commensuration(c)],
}

class UsageError(Exception):
    """Bad command input; exits 2.  ``command`` names the command line's (sub)command, if known."""

    def __init__(self, message: str, command: str | None = None) -> None:
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print usage and exit, so the error gets an envelope."""

    def error(self, message: str):
        raise UsageError(message, self.prog.partition(" ")[2] or self.prog)


class OutputEnvelope(NamedTuple("OutputEnvelope", [("command", str), ("status", str), ("payload", dict),
                                                   ("checks", list[Check])])):
    """One command result (status ok, mismatch or error), rendered identically to text and JSON.  ``checks`` is
    its own list, fresh when not given; the payload is written as built (str, int, bool, None, list, dict), and a
    window's matches by their own writer."""

    __slots__ = ()

    def __new__(cls, command: str, status: str, payload: dict, checks: list[Check] | None = None) -> OutputEnvelope:
        return super().__new__(cls, command, status, payload, [] if checks is None else checks)

    @classmethod
    def result(cls, command: str, payload: dict, checks: list[Check] | None = None) -> "OutputEnvelope":
        status = "mismatch" if checks and not all(c.passed for c in checks) else "ok"
        return cls(command=command, status=status, payload=payload, checks=checks)

    @classmethod
    def error(cls, command: str, message: str, **extra) -> "OutputEnvelope":
        return cls(command=command, status="error", payload={"error": message, **extra})

    @property
    def exit_code(self) -> int:
        # An error that records where an exception was raised is a fault of mayacal, not of the input.
        return {"ok": 0, "mismatch": 1}.get(self.status, FAULT_EXIT if "raised_at" in self.payload else 2)

    def to_dict(self) -> dict:
        return {**self._asdict(), "checks": [{"name": c.name, "expected": jsonable(c.expected),
                                              "computed": jsonable(c.computed), "pass": c.passed} for c in self.checks]}

    def render(self, fmt: str) -> Iterator[str]:
        """The ``fmt`` rendering ("text" or "json") in pieces, each made as it is read."""
        if fmt != "json":
            return self._text_pieces()
        from json.encoder import encode_basestring  # here, so that a text call never loads json
        return _json_pieces(self.to_dict(), encode_basestring)

    # Whole-string renderings.  main() streams render() instead, but
    # bench/tracer.py patches these two by name when it installs, so they stay.
    def to_json(self) -> str:
        return "".join(self.render("json"))

    def to_text(self) -> str:
        return "".join(self.render("text"))

    def _text_pieces(self) -> Iterator[str]:
        yield f"command: {self.command}\nstatus: {self.status}"
        for line in _text_lines(self.payload):
            yield "\n" + line
        if self.checks:
            failed = sum(1 for c in self.checks if not c.passed)
            yield f"\nchecks: {len(self.checks) - failed} passed, {failed} failed"
            for c in self.checks:
                if c.passed:
                    yield f"\n  [ok] {c.name} = {jsonable(c.computed)}"
                else:
                    yield f"\n  [FAIL] {c.name}: expected {jsonable(c.expected)}, got {jsonable(c.computed)}"


def _text_lines(value: dict, indent: int = 0) -> Iterator[str]:
    pad = "  " * indent
    for key, item in value.items():
        if isinstance(item, dict) and item:  # an empty one is written "{}", as JSON writes it
            yield f"{pad}{key}:"
            yield from _text_lines(item, indent + 1)
        elif isinstance(item, WindowMatches):
            yield f"{pad}{key}:"
            yield from item.text(pad)
        elif isinstance(item, list) and item and isinstance(item[0], dict):  # a table: a list of dicts only
            yield f"{pad}{key}:"  # then each row as a list entry below, one string of lines
            nl = f"\n{pad}    "
            yield from (f"{pad}  - " + nl.join(f"{field}: {v}" for field, v in row.items()) for row in item)
        elif isinstance(item, list):
            rendered = ", ".join(str(i) for i in item)
            yield f"{pad}{key}: [{rendered}]"
        else:
            yield f"{pad}{key}: {item}"


def _json_pieces(value: Any, quote: Callable[[str], str], pad: str = "\n") -> Iterator[str]:
    """A payload value in the pieces of what ``json.JSONEncoder(indent=2,
    ensure_ascii=False)`` writes for it.  ``quote`` is ``json.encoder.encode_basestring``,
    the quoting that encoder uses, and ``pad`` starts the lines of the value's level."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{inner}{quote(key)}: "
            yield from _json_pieces(item, quote, inner)
            sep = ","
        yield pad + "}"
    elif isinstance(value, list) and value:
        sep = "["
        for item in value:
            yield sep + inner
            yield from _json_pieces(item, quote, inner)
            sep = ","
        yield pad + "]"
    elif isinstance(value, str):
        yield quote(value)
    elif isinstance(value, WindowMatches):
        pieces = value.json(quote, inner)
        yield "[" + next(pieces)
        yield from map(",".__add__, pieces)
        yield pad + "]"
    elif isinstance(value, (dict, list)):
        yield "{}" if isinstance(value, dict) else "[]"
    elif value is None or value is True or value is False:
        yield "null" if value is None else "true" if value else "false"
    else:
        yield int.__repr__(value)


def _describe_day(day: int, constant: CorrelationConstant) -> dict:
    cd = cycle_date(day)
    corr = describe(day, constant)
    named = named_days(derive(PAPER)).get(day)
    return {
        "day": day,
        "long_count": str(cd.long_count),
        "tzolkin": str(cd.tzolkin),
        "haab": str(cd.haab),
        "tzolkin_position": cd.tzolkin.position,
        "haab_position": cd.haab.position,
        "kawil": cd.kawil,
        "direction_color": cd.direction_color,
        "direction_color_name": cd.direction_color_name,
        **({"long_count_annotated": era_display(day)} if day % ERA == 0 else {}),
        **({"identity": named[1]} if named else {}),
        "correlation": constant.jdn_at_creation,
        "jdn": corr.jdn,
        "julian": str(corr.julian),
        "gregorian": str(corr.gregorian),
    }


def _parse_window(text: str) -> tuple[int, int]:
    """The bounds of ``LO..HI``; :func:`resolution` checks that ``LO <= HI``."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"window must be LO..HI, got {text!r}")
    return read_int(lo, "window bound"), read_int(hi, "window bound")


def cmd_convert(args, constant: CorrelationConstant) -> OutputEnvelope:
    if (args.date is None) == (args.day is None):
        raise UsageError("give exactly one of a date string or --day")
    expr = parse(args.date) if args.day is None else None
    if args.window is not None and (expr is None or expr.long_count is not None):
        raise UsageError("--window needs a Calendar Round date without a Long Count")
    if expr is None:
        return OutputEnvelope.result(args.command, _describe_day(read_int(args.day, "--day"), constant))

    if expr.long_count is not None:
        day = expr.long_count.days
        if resolution(expr, (day, day)).inconsistent:
            return OutputEnvelope.error(
                args.command,
                f"inconsistent date: {expr.long_count} is {cycle_date(day).calendar_round}",
                input=args.date,
                day=day,
            )
        payload = {"input": args.date, **_describe_day(day, constant)}
        return OutputEnvelope.result(args.command, payload)

    if args.window is None:
        raise UsageError("calendar-round dates recur every 18980 days; give --window LO..HI")
    window = _parse_window(args.window)
    days = resolution(expr, window).days
    payload = {
        "input": args.date,
        "window": f"{window[0]}..{window[1]}",
        "count": (days[-1] - days[0]) // days.step + 1 if days else 0,  # len() stops at 2^63
        "matches": WindowMatches(days, constant.jdn_at_creation) if days else [],
    }
    return OutputEnvelope.result(args.command, payload)


def cmd_verify(args, constant: CorrelationConstant) -> OutputEnvelope:
    constants = derive(PAPER)
    scopes = SUITES if args.scope == "all" else (args.scope,)
    reports = [report for scope in scopes for report in SUITES[scope](constants)]
    checks = [c for report in reports for c in report.checks]
    failed = sum(1 for c in checks if not c.passed)
    payload = {
        "scope": args.scope,
        "suites": [r.title for r in reports],
        "checks_total": len(checks),
        "checks_failed": failed,
    }
    return OutputEnvelope.result(args.command, payload, checks)


def _candidate(c: LunarCandidate) -> dict:
    return {"days": c.days, "lunations": c.lunations, "ratio": c.ratio_str, "ratio_decimal": decimal_str(c.ratio, 6),
            "error": str(c.error), "error_decimal": decimal_str(c.error, 6), "lcm_260": c.lcm260}


def cmd_lunar_table(args, constant: CorrelationConstant) -> OutputEnvelope:
    n = derive(PAPER).n
    rows = ratio_table(n)
    modern = rows[-1]
    payload = {
        "supernumber": n,
        "rows": [{**_candidate(c), "error_rounded": round_nearest(c.error), "source": TABLE_SOURCES[c.days]}
                 for c in rows[:-1]],
        "modern": {
            "ratio_decimal": decimal_str(modern.ratio, 6),
            "error": str(modern.error),
            "error_rounded": round_nearest(modern.error),
        },
    }
    return OutputEnvelope.result(args.command, payload, verify_ratio_table(n).checks)


def cmd_lunar_search(args, constant: CorrelationConstant) -> OutputEnvelope:
    max_lunations = read_int(args.max, "--max")
    n = derive(PAPER).n
    result = search(n, max_lunations=max_lunations)
    payload = {
        "supernumber": n,
        "max_lunations": max_lunations,
        "target": decimal_str(MODERN_SYNODIC_MONTH, 6),
        "scanned": max_lunations,
        "within_calendar_round": len(result.filtered),
        "zero_error": [_candidate(c) for c in result.zero_error],
        "minimal_nonzero": [_candidate(c) for c in result.minimal_nonzero],
        "best": _candidate(result.best) if result.best else None,
        "pareto": [_candidate(c) for c in result.pareto],
    }
    # The published-outcome checks only apply to the published scan.
    checks = verify_search(result).checks if max_lunations == PUBLISHED_MAX_LUNATIONS else []
    return OutputEnvelope.result(args.command, payload, checks)


def cmd_lunar_age(args, constant: CorrelationConstant) -> OutputEnvelope:
    lc = _parse_day_arg(args.lc, "--lc")
    lc0 = _parse_day_arg(args.lc0, "--lc0")
    ratio = _parse_ratio(args.ratio)
    age = moon_age(lc, lc0, ratio)
    payload = {
        "lc": lc,
        "lc0": lc0,
        "ratio": f"{ratio.numerator}/{ratio.denominator}",
        "age": str(age),
        "age_decimal": decimal_str(age, 6),
    }
    return OutputEnvelope.result(args.command, payload)


def _parse_day_arg(text: str, flag: str) -> int:
    """A day number, or a Long Count date: text with a dot, which parses as one or gets the parser's error."""
    if "." not in text:
        return read_int(text, flag)
    expr = parse(text)
    day = expr.long_count.days
    if resolution(expr, (day, day)).inconsistent:
        raise UsageError(f"{flag}: {text!r} is not self-consistent")
    return day


def _parse_ratio(text: str) -> Fraction:
    days, sep, lunations = text.partition("/")
    if sep:
        days, lunations = read_int(days, "ratio term"), read_int(lunations, "ratio term")
        if lunations:  # Fraction(days, 0) raises ZeroDivisionError; moon_age refuses a zero ratio
            return Fraction(days, lunations)
    raise UsageError(f"ratio must be DAYS/LUNATIONS with positive integers, got {text!r}")


def cmd_factor(args, constant: CorrelationConstant) -> OutputEnvelope:
    n = read_int(args.n, "n")
    factors = factorize(n)
    payload = {
        "n": n,
        "factorization": str(factors),
        "factors": {str(p): m for p, m in factors.factors},
    }
    return OutputEnvelope.result(args.command, payload)


def cmd_table(args, constant: CorrelationConstant) -> OutputEnvelope:
    constants = derive(PAPER)
    rows = [{"label": row.label, "meaning": row.meaning, "day": row.day, "long_count": row.lcc_display,
             "calendar_round": row.cycle.calendar_round, "kawil": row.cycle.kawil,
             "direction_color_name": row.cycle.direction_color_name, "position": list(row.position),
             "gregorian": civil_text(row.day + constant.jdn_at_creation, "gregorian")}
            for row in cultural_dates(constants)]
    payload = {"table": args.name, "rows": rows}
    return OutputEnvelope.result(args.command, payload, verify_cultural_dates(constants).checks)


def build_parser() -> argparse.ArgumentParser:
    # The shared flags are SUPPRESSed, so one given before the command
    # survives the leaf parser that does not see it.
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help=f"output rendering (default text; ${FORMAT_ENV_VAR} overrides)")
    output.add_argument("--correlation", default=argparse.SUPPRESS, metavar="JDN",
                        help=f"JDN of day 0 (default {GMT_CORRELATION}, the GMT correlation)")
    parser = _Parser(
        prog="mayacal",
        description="Exact arithmetic for the Maya calendar: cycle conversions, "
        "super-number identities, lunar ratios, and civil-date correlation.",
        parents=[output],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name: str, handler, help: str) -> argparse.ArgumentParser:
        # A command's name is its parser's prog without "mayacal ", as in _Parser.error.
        p = subparsers.add_parser(name, help=help, parents=[output])
        p.set_defaults(run=handler, command=p.prog.partition(" ")[2])
        return p

    p = leaf(sub, "convert", cmd_convert, "convert a date string or day number to every cycle")
    p.add_argument("date", nargs="?", help="Long Count (9.9.16.0.0), Calendar Round "
                   "(4 Ahau 8 Cumku), or combined date string")
    p.add_argument("--day", help="day number since creation")
    p.add_argument("--window", help="inclusive day range LO..HI for recurring dates")

    p = leaf(sub, "verify", cmd_verify, "run the identity suites")
    p.add_argument("scope", nargs="?", default="all", choices=("all", *SUITES))

    p = sub.add_parser("lunar", help="lunar ratio table, lunation search, Moon age", parents=[output])
    lunar_sub = p.add_subparsers(dest="subcommand", required=True)
    leaf(lunar_sub, "table", cmd_lunar_table, "attested lunar equations and their errors")
    p = leaf(lunar_sub, "search", cmd_lunar_search, "scan lunar equations against the super-number")
    p.add_argument("--max", default=str(PUBLISHED_MAX_LUNATIONS), help="largest lunation count to scan")
    p = leaf(lunar_sub, "age", cmd_lunar_age, "days into the lunation at a date")
    p.add_argument("--lc", required=True, help="date (day number or Long Count)")
    p.add_argument("--lc0", required=True, help="new-Moon anchor (day number or Long Count)")
    p.add_argument("--ratio", default="2392/81", help="Moon ratio DAYS/LUNATIONS")

    p = leaf(sub, "factor", cmd_factor, "prime factorization of a positive integer")
    p.add_argument("n")

    p = leaf(sub, "table", cmd_table, "emit a named table")
    p.add_argument("name", choices=("cultural-dates",))
    return parser


def _output_format(argv: list[str]) -> str:
    """The last well-formed ``--format X`` or ``--format=X`` (or an abbreviation such as ``--form``,
    as argparse reads them), else ``$MAYACAL_FORMAT``, else text; a flag with no format after it
    is passed over, so a line argparse refuses gets the format it would have kept."""
    fmt = os.environ.get(FORMAT_ENV_VAR)
    for i, arg in enumerate(argv):
        if arg == "--":  # what follows is positional
            break
        flag, eq, value = arg.partition("=")
        if len(flag) > 2 and "--format".startswith(flag):
            if not eq:
                value = argv[i + 1] if i + 1 < len(argv) else None
            if value in FORMATS:
                fmt = value
    return fmt if fmt in FORMATS else "text"


def _fault(command: str, exc: Exception) -> OutputEnvelope:
    """The error envelope of an unexpected exception, a fault of mayacal: it exits
    :data:`FAULT_EXIT` and names, as ``raised_at``, the innermost frame that raised it."""
    from traceback import extract_tb  # here, so that a call without a fault never loads it
    frame = extract_tb(exc.__traceback__)[-1]
    return OutputEnvelope.error(command, f"{type(exc).__name__}: {exc}",
                                raised_at=f"{os.path.basename(frame.filename)}:{frame.lineno}")


def _emit(envelope: OutputEnvelope, fmt: str) -> int:
    """Write the envelope to stdout in batches as it renders; return the exit code.

    A fault while it renders gets its :func:`_fault` envelope instead if nothing is
    written yet; otherwise stdout stops there, as a killed call leaves it, and the
    fault is one line on stderr.  What ``write`` raises passes, but a closed pipe."""
    out, batch, size, written, writing = sys.stdout, [], 0, False, False
    try:
        for piece in envelope.render(fmt):
            batch.append(piece)
            size += len(piece)
            if size >= WRITE_BATCH:
                writing = True
                out.write("".join(batch))
                batch, size, written, writing = [], 0, True, False
        batch.append("\n")
        writing = True
        out.write("".join(batch))
        out.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not fail again (the recipe in the ``signal``
        # module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return BROKEN_PIPE_EXIT
    except Exception as exc:  # as in main, for the rows made while rendering
        if writing:
            raise
        fault = _fault(envelope.command, exc)
        if not written:
            return _emit(fault, fmt)
        sys.stderr.write(f"mayacal {envelope.command}: {fault.payload['error']} "
                         f"(raised_at {fault.payload['raised_at']})\n")
        return FAULT_EXIT
    return envelope.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fmt = _output_format(argv)  # argparse checks the flag, but a line it refuses is answered in this format too
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # as parse_args words it, but under the subcommand rather than the root parser
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}", args.command)
    except UsageError as exc:
        return _emit(OutputEnvelope.error(exc.command, str(exc)), fmt)

    try:
        correlation = read_int(getattr(args, "correlation", str(GMT_CORRELATION)), "--correlation")
        envelope = args.run(args, CorrelationConstant(correlation))
    except DateParseError as exc:
        envelope = OutputEnvelope.error(args.command, str(exc), position=exc.position)
    except (UsageError, ValueError) as exc:
        envelope = OutputEnvelope.error(args.command, str(exc))
    except Exception as exc:  # KeyboardInterrupt, SystemExit and a caller's time cap are BaseExceptions and pass
        envelope = _fault(args.command, exc)
    return _emit(envelope, fmt)


if __name__ == "__main__":
    sys.exit(main())
