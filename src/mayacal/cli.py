"""Command-line surface: conversions, verification suites, lunar tools, tables.

Every command builds one :class:`OutputEnvelope`; the ``--format`` flag
picks the rendering (text or JSON) of that same envelope, so the two views
never diverge.  A bad command line gets an envelope too, in the format that
``--format`` or ``$MAYACAL_FORMAT`` asks for.  The envelope is written to
stdout as it is made, so a window of millions of matches streams in bounded
memory, and a call killed part-way leaves a truncated document.  Exit codes:
0 success, 1 verification mismatch, 2 usage or parse error, 120 stdout
closed by its reader (as in ``mayacal ... | head``).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from fractions import Fraction

from .arith import INT63_MAX, decimal_str, factorize, round_nearest
from .checks import Check, Rows, jsonable
from .correlation import GMT_CORRELATION, CorrelationConstant, describe
from .cycles import ERA, cycle_date
from .lunar import (
    MODERN_SYNODIC_MONTH,
    TABLE_SOURCES,
    LunarCandidate,
    eclipse_commensuration,
    moon_age,
    ratio_table,
    search,
    verify_palenque,
    verify_ratio_table,
    verify_search,
)
from .notation import DateParseError, era_display, parse, read_int, resolution
from .supernumber import (
    creation_residues,
    cultural_dates,
    derive_constants,
    verify_aeon_division,
    verify_aeon_identity,
    verify_cultural_dates,
    verify_grand_cycle_division,
    verify_supernumber,
    verify_xultun,
)

FORMAT_ENV_VAR = "MAYACAL_FORMAT"
FORMATS = ("text", "json")

#: Exit code when stdout's reader has gone; the interpreter uses it too
#: when flushing stdout fails at exit.
BROKEN_PIPE_EXIT = 120

#: Characters joined per write: each write is a syscall when stdout is
#: unbuffered (``PYTHONUNBUFFERED``), and a bounded batch keeps memory flat.
WRITE_BATCH = 1 << 16

#: The verify suites in paper order, each a function of the derived
#: constants; ``verify all`` runs every one.
SUITES = {
    "eq1": lambda c: [verify_supernumber(c), verify_xultun(c)],
    "eq2": lambda c: [verify_grand_cycle_division(c)],
    "eq3": lambda c: [verify_aeon_division(c)],
    "eq4": lambda c: [verify_aeon_identity(c)],
    "residues": lambda c: [creation_residues(c)],
    "dates": lambda c: [verify_cultural_dates(c)],
    "lunar": lambda c: [verify_ratio_table(c.n), verify_palenque(c.n), verify_search(search(c.n))],
    "eclipse": lambda c: [eclipse_commensuration()],
}

#: Days the model names; convert identifies them in its output.
NAMED_DAYS = {
    0: "mythical date of creation",
    341640: "first Xultun number (X0)",
    1195740: "second Xultun number (X1)",
    1366560: "Long Round (Dresden Codex Venus table)",
    1708200: "date of the Itza prophecy (5*X0)",
    1765140: "third Xultun number (X2)",
    ERA: "end of the 13 Baktun Era",
    2448420: "fourth Xultun number (X3)",
    136656000: "Maya Aeon",
    683280000: "end of the 5 Maya Aeon",
    956592000: "end of the Maya grand cycle",
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


class OutputEnvelope:
    """One command result, rendered identically to text and JSON."""

    __slots__ = ("command", "status", "payload", "checks")

    def __init__(self, command: str, status: str, payload: dict, checks: list[Check] | None = None) -> None:
        self.command, self.status, self.payload = command, status, payload  # status: ok | mismatch | error
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return (f"OutputEnvelope(command={self.command!r}, status={self.status!r}, "
                f"payload={self.payload!r}, checks={self.checks!r})")

    def __eq__(self, other: object) -> bool:
        return type(other) is OutputEnvelope and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @classmethod
    def result(cls, command: str, payload: dict, checks: list[Check] | None = None) -> "OutputEnvelope":
        checks = checks or []
        status = "mismatch" if any(not c.passed for c in checks) else "ok"
        return cls(command=command, status=status, payload=payload, checks=checks)

    @classmethod
    def error(cls, command: str, message: str, **extra) -> "OutputEnvelope":
        return cls(command=command, status="error", payload={"error": message, **extra})

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "mismatch": 1}.get(self.status, 2)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "payload": jsonable(self.payload),
            "checks": [c.as_dict() for c in self.checks],
        }

    def render(self, fmt: str) -> Iterator[str]:
        """The ``fmt`` rendering ("text" or "json") in pieces, each made as it is read."""
        if fmt != "json":
            return self._text_pieces()
        import json  # here, so that a text call never loads it
        return json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(self.to_dict())

    # Whole-string renderings.  main() streams render() instead, but
    # bench/tracer.py patches these two by name when it installs, so they stay.
    def to_json(self) -> str:
        return "".join(self.render("json"))

    def to_text(self) -> str:
        return "".join(self.render("text"))

    def _text_pieces(self) -> Iterator[str]:
        yield f"command: {self.command}\nstatus: {self.status}"
        for line in _text_lines(jsonable(self.payload)):
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
        if isinstance(item, dict):
            yield f"{pad}{key}:"
            yield from _text_lines(item, indent + 1)
        elif item and (isinstance(item, Rows) or isinstance(item, list) and all(isinstance(i, dict) for i in item)):
            yield f"{pad}{key}:"
            for entry in item:
                first, *rest = _text_lines(entry, indent + 2)
                yield f"{'  ' * (indent + 1)}- {first.lstrip()}"
                yield from rest
        elif isinstance(item, list):
            rendered = ", ".join(str(i) for i in item)
            yield f"{pad}{key}: [{rendered}]"
        else:
            yield f"{pad}{key}: {item}"


def _describe_day(day: int, constant: CorrelationConstant) -> dict:
    cd = cycle_date(day)
    corr = describe(day, constant)
    payload = {
        "day": day,
        "long_count": str(cd.long_count),
        "tzolkin": str(cd.tzolkin),
        "haab": str(cd.haab),
        "tzolkin_position": cd.tzolkin.position,
        "haab_position": cd.haab.position,
        "kawil": cd.kawil,
        "direction_color": cd.direction_color,
        "direction_color_name": cd.direction_color_name,
    }
    if day % ERA == 0:
        payload["long_count_annotated"] = era_display(day)
    if day in NAMED_DAYS:
        payload["identity"] = NAMED_DAYS[day]
    payload.update(
        {
            "correlation": constant.jdn_at_creation,
            "jdn": corr.jdn,
            "julian": str(corr.julian),
            "gregorian": str(corr.gregorian),
        }
    )
    return payload


def _match_summary(day: int, constant: CorrelationConstant) -> dict:
    cd = cycle_date(day)
    corr = describe(day, constant)
    return {
        "day": day,
        "long_count": str(cd.long_count),
        "calendar_round": cd.calendar_round,
        "kawil": cd.kawil,
        "direction_color_name": cd.direction_color_name,
        "jdn": corr.jdn,
        "gregorian": str(corr.gregorian),
    }


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.removeprefix("-").isdecimal() or not hi.removeprefix("-").isdecimal():
        raise UsageError(f"window must be LO..HI, got {text!r}")
    try:
        window = (int(lo), int(hi))
    except ValueError:  # a bound longer than the interpreter converts
        raise UsageError(f"window bound is too long: {max(len(lo), len(hi))} digits") from None
    if not 0 <= window[0] <= window[1]:
        raise UsageError(f"window must satisfy 0 <= lo <= hi, got {text!r}")
    return window


def cmd_convert(args, constant: CorrelationConstant) -> OutputEnvelope:
    if (args.date is None) == (args.day is None):
        raise UsageError("give exactly one of a date string or --day")
    expr = parse(args.date) if args.day is None else None
    if args.window is not None and (expr is None or expr.long_count is not None):
        raise UsageError("--window needs a Calendar Round date without a Long Count")
    if expr is None:
        return OutputEnvelope.result(args.command, _describe_day(args.day, constant))

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
        "matches": Rows(lambda d: _match_summary(d, constant), days),
    }
    return OutputEnvelope.result(args.command, payload)


def cmd_verify(args, constant: CorrelationConstant) -> OutputEnvelope:
    constants = derive_constants()
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


def _candidate_row(c: LunarCandidate) -> dict:
    return {
        "days": c.days,
        "lunations": c.lunations,
        "ratio": c.ratio_str,
        "ratio_decimal": decimal_str(c.ratio, 6),
        "error": str(c.error),
        "error_decimal": decimal_str(c.error, 6),
        "lcm_260": c.lcm260,
    }


def cmd_lunar_table(args, constant: CorrelationConstant) -> OutputEnvelope:
    n = derive_constants().n
    rows = ratio_table(n)
    payload_rows = []
    for row in rows[:-1]:
        entry = _candidate_row(row)
        entry["error_rounded"] = round_nearest(row.error)
        entry["source"] = TABLE_SOURCES[row.days]
        payload_rows.append(entry)
    modern = rows[-1]
    payload = {
        "supernumber": n,
        "rows": payload_rows,
        "modern": {
            "ratio_decimal": decimal_str(modern.ratio, 6),
            "error": str(modern.error),
            "error_rounded": round_nearest(modern.error),
        },
    }
    return OutputEnvelope.result(args.command, payload, verify_ratio_table(n).checks)


def cmd_lunar_search(args, constant: CorrelationConstant) -> OutputEnvelope:
    if args.max < 1:
        raise UsageError(f"--max must be >= 1, got {args.max}")
    n = derive_constants().n
    result = search(n, max_lunations=args.max)
    payload = {
        "supernumber": n,
        "max_lunations": args.max,
        "target": decimal_str(MODERN_SYNODIC_MONTH, 6),
        "scanned": args.max,
        "within_calendar_round": len(result.filtered),
        "zero_error": [_candidate_row(c) for c in result.zero_error],
        "minimal_nonzero": [_candidate_row(c) for c in result.minimal_nonzero],
        "best": _candidate_row(result.best) if result.best else None,
        "pareto": [_candidate_row(c) for c in result.pareto],
    }
    # The published-outcome checks only apply to the full 643-lunation scan.
    checks = verify_search(result).checks if args.max == 643 else []
    return OutputEnvelope.result(args.command, payload, checks)


def cmd_lunar_age(args, constant: CorrelationConstant) -> OutputEnvelope:
    lc = _parse_day_arg(args.lc, "--lc")
    lc0 = _parse_day_arg(args.lc0, "--lc0")
    ratio = _parse_ratio(args.ratio)
    if lc < lc0:
        raise UsageError(f"--lc day {lc} precedes --lc0 day {lc0}")
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
    """A day number given as an integer or a Long Count string."""
    if text.removeprefix("-").isdecimal():
        day = read_int(text, flag, 0)
        if day < 0:
            raise UsageError(f"{flag} must be non-negative, got {day}")
        return day
    expr = parse(text)
    if expr.long_count is None:
        raise UsageError(f"{flag} needs a day number or a Long Count date, got {text!r}")
    day = expr.long_count.days
    if resolution(expr, (day, day)).inconsistent:
        raise UsageError(f"{flag}: {text!r} is not self-consistent")
    return day


def _parse_ratio(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    try:
        valid = sep and num.isdecimal() and den.isdecimal() and int(den) != 0 and int(num) != 0
    except ValueError:  # a term longer than the interpreter converts
        raise UsageError(f"ratio term is too long: {max(len(num), len(den))} digits") from None
    if not valid:
        raise UsageError(f"ratio must be DAYS/LUNATIONS with positive integers, got {text!r}")
    return Fraction(int(num), int(den))


def cmd_factor(args, constant: CorrelationConstant) -> OutputEnvelope:
    if args.n < 1 or args.n > INT63_MAX:
        raise UsageError(f"n must be in 1..{INT63_MAX}, got {args.n}")
    factors = factorize(args.n)
    payload = {
        "n": args.n,
        "factorization": str(factors),
        "factors": {str(p): m for p, m in factors.factors},
    }
    return OutputEnvelope.result(args.command, payload)


def cmd_table(args, constant: CorrelationConstant) -> OutputEnvelope:
    constants = derive_constants()
    rows = []
    for row in cultural_dates(constants):
        corr = describe(row.day, constant)
        rows.append(
            {
                "label": row.label,
                "meaning": row.meaning,
                "day": row.day,
                "long_count": row.lcc_display,
                "calendar_round": row.cycle.calendar_round,
                "kawil": row.cycle.kawil,
                "direction_color_name": row.cycle.direction_color_name,
                "position": list(row.position),
                "gregorian": str(corr.gregorian),
            }
        )
    payload = {"table": args.name, "rows": rows}
    return OutputEnvelope.result(args.command, payload, verify_cultural_dates(constants).checks)


def build_parser() -> argparse.ArgumentParser:
    # The shared flags are SUPPRESSed, so one given before the command
    # survives the leaf parser that does not see it.
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help=f"output rendering (default text; ${FORMAT_ENV_VAR} overrides)")
    output.add_argument("--correlation", type=int, default=argparse.SUPPRESS, metavar="JDN",
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
    p.add_argument("--day", type=int, help="day number since creation")
    p.add_argument("--window", help="inclusive day range LO..HI for recurring dates")

    p = leaf(sub, "verify", cmd_verify, "run the identity suites")
    p.add_argument("scope", nargs="?", default="all", choices=("all", *SUITES))

    p = sub.add_parser("lunar", help="lunar ratio table, lunation search, Moon age", parents=[output])
    lunar_sub = p.add_subparsers(dest="subcommand", required=True)
    leaf(lunar_sub, "table", cmd_lunar_table, "attested lunar equations and their errors")
    p = leaf(lunar_sub, "search", cmd_lunar_search, "scan lunar equations against the super-number")
    p.add_argument("--max", type=int, default=643, help="largest lunation count to scan")
    p = leaf(lunar_sub, "age", cmd_lunar_age, "days into the lunation at a date")
    p.add_argument("--lc", required=True, help="date (day number or Long Count)")
    p.add_argument("--lc0", required=True, help="new-Moon anchor (day number or Long Count)")
    p.add_argument("--ratio", default="2392/81", help="Moon ratio DAYS/LUNATIONS")

    p = leaf(sub, "factor", cmd_factor, "prime factorization of a positive integer")
    p.add_argument("n", type=int)

    p = leaf(sub, "table", cmd_table, "emit a named table")
    p.add_argument("name", choices=("cultural-dates",))
    return parser


def _output_format(asked: str | None) -> str:
    fmt = asked if asked in FORMATS else os.environ.get(FORMAT_ENV_VAR)
    return fmt if fmt in FORMATS else "text"


def _asked_format(argv: list[str]) -> str | None:
    """The last well-formed ``--format X`` or ``--format=X`` (or an abbreviation
    such as ``--form``, as argparse reads them) of a command line that failed
    to parse as a whole; a flag with no format after it is passed over."""
    asked = None
    for i, arg in enumerate(argv):
        if arg == "--":  # what follows is positional
            break
        flag, eq, value = arg.partition("=")
        if len(flag) > 2 and "--format".startswith(flag):
            if not eq:
                value = argv[i + 1] if i + 1 < len(argv) else None
            if value in FORMATS:
                asked = value
    return asked


def _emit(envelope: OutputEnvelope, fmt: str) -> int:
    """Write the envelope to stdout in batches as it renders; return the exit code."""
    out, batch, size = sys.stdout, [], 0
    try:
        for piece in envelope.render(fmt):
            batch.append(piece)
            size += len(piece)
            if size >= WRITE_BATCH:
                out.write("".join(batch))
                batch, size = [], 0
        batch.append("\n")
        out.write("".join(batch))
        out.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not fail again (the recipe in the ``signal``
        # module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return BROKEN_PIPE_EXIT
    return envelope.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _emit(OutputEnvelope.error(exc.command, str(exc)), _output_format(_asked_format(argv)))

    try:
        constant = CorrelationConstant(getattr(args, "correlation", GMT_CORRELATION))
        envelope = args.run(args, constant)
    except DateParseError as exc:
        envelope = OutputEnvelope.error(args.command, str(exc), position=exc.position)
    except (UsageError, ValueError, OverflowError) as exc:
        envelope = OutputEnvelope.error(args.command, str(exc))
    return _emit(envelope, _output_format(getattr(args, "format", None)))


if __name__ == "__main__":
    sys.exit(main())
