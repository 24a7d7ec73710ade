import contextlib
import importlib.metadata
import io
import json
import math
import os
import re
import runpy
import select
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mayacal import cli, window
from mayacal.checks import Check
from mayacal.cli import OutputEnvelope, main
from mayacal.correlation import _DAYS_OF_YEAR, GMT_CORRELATION, CorrelationConstant, describe
from mayacal.cycles import BAKTUN, KATUN, KAWIL_CYCLE, cycle_date
from mayacal.lunar import search
from mayacal.notation import MAX_DIGITS
from mayacal.supernumber import named_days

GOLDEN = Path(__file__).parent / "golden"
GMT = CorrelationConstant(GMT_CORRELATION)
CALENDAR_ROUND = 18980
CREATION_CR = "4 Ahau 8 Cumku"  # day 0's Calendar Round, so its matches are the multiples of 18980
TOO_LONG = "1" * 5000  # past the interpreter's default limit of 4300 digits for int()
AT_LIMIT = "9" * MAX_DIGITS  # the longest number mayacal reads
PAST_LIMIT = "9" * 4300  # converts, but a number derived from it would not
SRC = Path(cli.__file__).parents[1]


def python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child interpreter that imports this checkout, with no format asked for."""
    env = {k: v for k, v in os.environ.items() if k != cli.FORMAT_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def match_summary(day: int, constant: CorrelationConstant) -> dict:
    """A window match built from the records, the reference for :class:`~mayacal.window.WindowMatches`."""
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


def assert_rows_match_the_records(day: int, lo: int, width: int, correlation: int) -> None:
    """Check both renderings of the window ``lo..lo + width`` of a day's Calendar Round
    against :func:`match_summary` of each match."""
    argv = ["convert", cycle_date(day).calendar_round, "--window", f"{lo}..{lo + width}"]
    constant = CorrelationConstant(correlation)
    envelope = cli.cmd_convert(cli.build_parser().parse_args(argv), constant)
    assert_renders_the_records(envelope, constant)


def assert_renders_the_records(envelope: OutputEnvelope, constant: CorrelationConstant) -> None:
    """Check both renderings of an envelope whose ``matches`` are a window's against the same
    envelope with :func:`match_summary` of each of its days in their place."""
    matches = envelope.payload["matches"]
    reference = reference_rendering("convert", {
        **envelope.payload, "matches": [match_summary(d, constant) for d in (matches.days if matches else [])]})
    assert envelope.to_text() == reference["text"]
    assert envelope.to_json() == reference["json"]


def reference_rendering(command: str, payload: dict) -> dict[str, str]:
    """Both renderings of a check-free ``ok`` envelope whose payload holds its records as
    lists of dicts: the JSON as ``json`` writes it, and the text entry by entry, each
    record a list item whose fields are indented below its first.  The reference for the
    envelope's writers, which write each record as one string, and for a window's own."""

    def lines(value: dict, indent: int = 0):
        pad = "  " * indent
        for key, item in value.items():
            if isinstance(item, dict) and item:
                yield f"{pad}{key}:"
                yield from lines(item, indent + 1)
            elif item and isinstance(item, list) and all(isinstance(i, dict) for i in item):
                yield f"{pad}{key}:"
                for entry in item:
                    first, *rest = lines(entry, indent + 2)
                    yield f"{'  ' * (indent + 1)}- {first.lstrip()}"
                    yield from rest
            elif isinstance(item, list):
                yield f"{pad}{key}: [{', '.join(str(i) for i in item)}]"
            else:
                yield f"{pad}{key}: {item}"

    document = {"command": command, "status": "ok", "payload": payload, "checks": []}
    return {"text": "\n".join([f"command: {command}", "status: ok", *lines(payload)]),
            "json": json.dumps(document, indent=2, ensure_ascii=False)}


#: Values as ``jsonable`` makes them: None, bools, ints of any size, any text, and lists and dicts of them.
JSONABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80) | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028é€𝄞", "\n\r\t\b\f"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class Full(Exception):
    """Raised by a :class:`Sink` that has taken its limit."""


class Sink:
    """A stdout that counts what it is written, keeps the first ``keep`` characters,
    and raises :class:`Full` once it has taken ``limit`` characters."""

    def __init__(self, limit: float = float("inf"), keep: int = 4096) -> None:
        self.head, self.size, self.limit, self.keep = "", 0, limit, keep

    def write(self, text: str) -> int:
        if len(self.head) < self.keep:
            self.head = (self.head + text)[:self.keep]
        self.size += len(text)
        if self.size >= self.limit:
            raise Full
        return len(text)

    def flush(self) -> None:
        pass


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


class TestExitCodes:
    def test_success(self, run):
        code, _ = run("verify", "eq1")
        assert code == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,command,error",
        [(["frobnicate"], "mayacal", "argument "), (["verify", "eq9"], "verify", "argument "),
         # Every number is read after argparse, by notation.read_int: decimal digits only, as --window and --lc.
         (["convert", "--day", "x"], "convert", "bad --day 'x'"),
         (["convert", "--day", "1_000"], "convert", "bad --day '1_000'"),
         (["--correlation", "+584283", "verify"], "verify", "bad --correlation '+584283'"),
         (["lunar", "search", "--max", " 5"], "lunar search", "bad --max ' 5'"),
         (["factor", "3_276"], "factor", "bad n '3_276'"),
         # An argument no parser takes is named under the subcommand it follows.
         (["verify", "eq1", "extra"], "verify", "unrecognized arguments: extra"),
         (["lunar", "age", "--lc", "0", "--lc0", "0", "x"], "lunar age", "unrecognized arguments: x"),
         (["convert", "9.9.16.0.0", "4", "Ahau", "8", "Cumku"], "convert", "unrecognized arguments: 4 Ahau 8 Cumku")],
        ids=["frobnicate", "verify-eq9", "day-x", "day-underscore", "correlation-plus", "max-space",
             "factor-underscore", "verify-extra", "lunar-age-extra", "convert-unquoted"],
    )
    def test_usage_error_from_argparse(self, capsys, monkeypatch, fmt, argv, command, error):
        for asked_by in ("flag", "env"):
            if asked_by == "flag":
                monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
                code = main(["--format", fmt, *argv])
            else:
                monkeypatch.setenv(cli.FORMAT_ENV_VAR, fmt)
                code = main(argv)
            out, err = capsys.readouterr()
            assert (code, err) == (2, ""), asked_by
            if fmt == "json":
                data = json.loads(out)
                assert (data["command"], data["status"]) == (command, "error")
                assert data["payload"]["error"].startswith(error)
            else:
                assert out.startswith(f"command: {command}\nstatus: error\nerror: {error}"), asked_by

    @pytest.mark.parametrize(
        "argv",
        [["--format", "json", "convert", "--format"], ["--format=json", "convert", "--format"]],
        ids=["format-json", "format=json"],
    )
    def test_format_kept_past_a_bare_format(self, capsys, monkeypatch, argv):
        # A later --format with no value does not undo the format asked for before it.
        monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"command": "convert", "status": "error", "checks": [],
                                   "payload": {"error": "argument --format: expected one argument"}}

    def test_help_still_exits_zero(self, capsys):
        for command in ("convert", "verify", "lunar", "lunar table", "lunar search", "lunar age", "factor", "table"):
            with pytest.raises(SystemExit) as exc:
                main(["--format", "json", *command.split(), "--help"])
            out = capsys.readouterr().out
            assert exc.value.code == 0, command
            assert out.startswith(f"usage: mayacal {command}"), command
            assert "--format" in out and "--correlation" in out, command  # the shared flags

    def test_parse_error(self, run):
        code, out = run("convert", "9.9.16.0")
        assert code == 2
        assert "status: error" in out

    def test_non_decimal_digit_has_position(self, run):
        for text, position in (("9.².16.0.0", 2), ("² Ahau 8 Cumku", 0)):
            code, out = run("--format", "json", "convert", text)
            assert code == 2
            assert json.loads(out)["payload"]["position"] == position

    def test_non_decimal_digit_in_flags(self, run):
        code, out = run("convert", "4 Ahau 8 Cumku", "--window", "0..²")
        assert code == 2 and "error: bad window bound '²'" in out
        code, out = run("lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", "²/81")
        assert code == 2 and "error: bad ratio term '²'" in out
        code, out = run("--format", "json", "lunar", "age", "--lc", "²", "--lc0", "0")
        assert code == 2
        assert json.loads(out)["payload"] == {"error": "bad --lc '²'"}
        code, out = run("--format", "json", "lunar", "age", "--lc", "9.².16.0.0", "--lc0", "0")
        assert code == 2
        assert json.loads(out)["payload"]["position"] == 2
        # No sign may precede the digits.
        code, out = run("convert", "4 Ahau 8 Cumku", "--window=--5..6")
        assert code == 2 and "error: bad window bound '--5'" in out
        code, out = run("--format", "json", "lunar", "age", "--lc=--5", "--lc0", "0")
        assert code == 2
        assert json.loads(out)["payload"] == {"error": "bad --lc '--5'"}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,error,position",
        [
            (["convert", f"1.{TOO_LONG}.0.0.0"], "long count digit is too long: 5000 digits", 2),
            (["convert", f"4 Ahau {TOO_LONG} Cumku"], "Haab' day is too long: 5000 digits", 7),
            (["lunar", "age", "--lc", TOO_LONG, "--lc0", "0"], "--lc is too long: 5000 digits", None),
            (["convert", CREATION_CR, "--window", f"0..{TOO_LONG}"], "window bound is too long: 5000 digits", None),
            (["lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", f"{TOO_LONG}/81"],
             "ratio term is too long: 5000 digits", None),
            (["convert", "--day", TOO_LONG], "--day is too long: 5000 digits", None),
            # Numbers that int() converts, but whose derived day or JDN it could not write.
            (["convert", "--day", PAST_LIMIT], "--day is too long: 4300 digits", None),
            (["--correlation", PAST_LIMIT, "convert", "--day", "5"], "--correlation is too long: 4300 digits", None),
            (["convert", CREATION_CR, "--window", f"{10**4300 - 40001}..{PAST_LIMIT}"],
             "window bound is too long: 4300 digits", None),
            (["lunar", "age", "--lc", f"{PAST_LIMIT}.0.0.0.0", "--lc0", "0"], "baktun is too long: 4300 digits", 0),
            (["convert", f"{PAST_LIMIT[1:]}×13(0).0.0.0.0"], "era multiple is too long: 4299 digits", 0),
            (["convert", f"{PAST_LIMIT}.0.0.0.0"], "baktun is too long: 4300 digits", 0),
            (["convert", "--day", "9" * (MAX_DIGITS + 1)], f"--day is too long: {MAX_DIGITS + 1} digits", None),
        ],
        ids=["long-count", "calendar-round", "lc", "window", "ratio", "day", "day-4300", "correlation-4300",
             "window-jdn", "lc-long-count", "era-multiple", "baktun-4300", "day-past-bound"],
    )
    def test_number_past_digit_limit(self, run, fmt, argv, error, position):
        code, out = run("--format", fmt, *argv)
        assert code == 2
        if fmt == "json":
            payload = json.loads(out)["payload"]
            assert payload["error"].startswith(error)
            assert payload.get("position") == position
            assert "raised_at" not in payload
        else:
            assert f"\nerror: {error}" in out
            assert ("\nposition: " in out) == (position is not None)
            assert position is None or out.endswith(f"\nposition: {position}\n")
            assert "\nraised_at: " not in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,key,value",
        [
            (["convert", "--day", AT_LIMIT], "jdn", 2 * int(AT_LIMIT)),
            (["convert", f"{AT_LIMIT}.0.0.0.0"], "day", int(AT_LIMIT) * 144000),
            (["convert", f"{AT_LIMIT}×13(0).0.0.0.0"], "jdn", int(AT_LIMIT) * 1872000 + int(AT_LIMIT)),
            (["convert", CREATION_CR, "--window", f"{int(AT_LIMIT) - 40000}..{AT_LIMIT}"], "count",
             int(AT_LIMIT) // CALENDAR_ROUND - (int(AT_LIMIT) - 40001) // CALENDAR_ROUND),  # multiples in the window
            (["lunar", "age", "--lc", f"{AT_LIMIT}×13(0).0.0.0.0", "--lc0", AT_LIMIT, "--ratio", f"{AT_LIMIT}/7"],
             "lc", int(AT_LIMIT) * 1872000),
        ],
        ids=["day", "baktun", "era-multiple", "window", "lunar-age"],
    )
    def test_number_at_digit_limit(self, run, fmt, argv, key, value):
        # The derived numbers (up to 8 digits longer, with the correlation's carry) are still written.
        code, out = run("--format", fmt, "--correlation", AT_LIMIT, *argv)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["payload"][key] == value
        else:
            assert f"\n{key}: {value}\n" in out

    @pytest.mark.parametrize("limit,bound", [("640", 632), ("1000", 992), ("0", 4000)])
    def test_digit_bound_follows_the_interpreter(self, monkeypatch, limit, bound):
        # 0 lifts the interpreter's limit; the bound stays 8 digits below one that is set, and at most 4000.
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", limit)
        proc = python("-c", "from mayacal.notation import MAX_DIGITS; print(MAX_DIGITS)")
        assert proc.stdout == f"{bound}\n", proc.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,error,position",
        [
            (["convert", f"{'9' * 639}×13(0).0.0.0.0"], "era multiple is too long: 639 digits (at offset 0)", 0),
            (["convert", "--day", "9" * 700], "--day is too long: 700 digits", None),
        ],
        ids=["era-multiple", "day"],
    )
    def test_number_past_a_lowered_interpreter_limit(self, monkeypatch, fmt, argv, error, position):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        proc = python("-m", "mayacal", "--format", fmt, *argv)
        assert proc.returncode == 2, proc.stderr
        payload = {"error": error} if position is None else {"error": error, "position": position}
        if fmt == "json":
            assert json.loads(proc.stdout)["payload"] == payload
        else:
            assert proc.stdout.endswith("".join(f"\n{key}: {value}" for key, value in payload.items()) + "\n")

    def test_number_at_a_lowered_interpreter_limit(self, monkeypatch):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        multiple = "9" * 632
        proc = python("-m", "mayacal", "--format", "json", "convert", f"{multiple}×13(0).0.0.0.0")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["jdn"] == int(multiple) * 1872000 + GMT_CORRELATION

    def test_mismatch_exits_one(self, run, monkeypatch):
        failing = cli.OutputEnvelope.result(
            "verify", {}, [Check("sabotaged", 1, 2, False)]
        )
        monkeypatch.setattr(cli, "cmd_verify", lambda args, constant: failing)
        code, out = run("verify", "eq1")
        assert code == 1
        assert "status: mismatch" in out
        assert "[FAIL] sabotaged: expected 1, got 2" in out

    @pytest.mark.parametrize(
        "fmt,error",
        [("text", TypeError), ("json", TypeError), ("text", OverflowError), ("json", OverflowError)],
        ids=["text", "json", "overflow-text", "overflow-json"],
    )
    def test_unexpected_exception_gets_an_envelope(self, capsys, monkeypatch, fmt, error):
        # No input reaches an OverflowError; the one mayacal raises (lcm_factorization's 2^63 guard) is a fault.
        def broken(args, constant):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_factor", broken)
        code = main(["--format", fmt, "factor", "12"])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.FAULT_EXIT, "")
        assert "Traceback" not in out
        if fmt == "json":
            data = json.loads(out)  # one document, or this raises
            raised_at = data["payload"].pop("raised_at")
            assert data == {"command": "factor", "status": "error",
                            "payload": {"error": f"{error.__name__}: boom"}, "checks": []}
        else:
            head, raised_at = out.split("\nraised_at: ")
            assert head == f"command: factor\nstatus: error\nerror: {error.__name__}: boom"
            raised_at = raised_at.removesuffix("\n")
        assert raised_at.startswith("test_cli.py:")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("owner,argv", [(cli, ["table", "cultural-dates"]),
                                            (window, ["convert", CREATION_CR, "--window", "0..40000"])],
                             ids=["table", "narrow-window"])
    def test_render_fault_gets_an_envelope(self, capsys, monkeypatch, fmt, owner, argv):
        # A table's rows are made in the handler, a window's while the envelope renders;
        # a fault in either, before anything is written, gets the same envelope.
        def broken(*args):
            raise TypeError("boom")

        monkeypatch.setattr(owner, "civil_text", broken)
        code = main(["--format", fmt, *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.FAULT_EXIT, "")
        if fmt == "json":
            data = json.loads(out)
            assert re.fullmatch(r"test_cli\.py:\d+", data["payload"].pop("raised_at"))
            assert data == {"command": argv[0], "status": "error", "payload": {"error": "TypeError: boom"},
                            "checks": []}
        else:
            assert re.fullmatch(rf"command: {argv[0]}\nstatus: error\nerror: TypeError: boom\n"
                                r"raised_at: test_cli\.py:\d+\n", out)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_render_fault_after_output_truncates(self, capsys, monkeypatch, fmt):
        # Once a batch is written no envelope can follow: stdout stops, as a
        # killed call leaves it, and the fault is one line on stderr.
        civil, faulty = window.civil_text, CALENDAR_ROUND * 3000

        def breaks_late(jdn, calendar):  # at the row of day `faulty`
            if jdn == faulty + GMT_CORRELATION:
                raise TypeError("boom")
            return civil(jdn, calendar)

        argv = ["--format", fmt, "convert", CREATION_CR, "--window", f"0..{CALENDAR_ROUND * 4000}"]
        monkeypatch.setattr(window, "civil_text", breaks_late)
        code = main(argv)
        out, err = capsys.readouterr()
        monkeypatch.setattr(window, "civil_text", civil)
        assert main(argv) == 0
        whole = capsys.readouterr().out
        assert code == cli.FAULT_EXIT
        assert re.fullmatch(r"mayacal convert: TypeError: boom \(raised_at test_cli\.py:\d+\)\n", err)
        assert len(out) >= cli.WRITE_BATCH and whole.startswith(out)
        assert str(faulty) not in out

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit, type("CapHit", (BaseException,), {})],
                             ids=["KeyboardInterrupt", "SystemExit", "BaseException"])
    def test_interrupts_pass_through(self, capsys, monkeypatch, interrupt):
        def interrupted(args, constant):
            raise interrupt()

        monkeypatch.setattr(cli, "cmd_factor", interrupted)
        with pytest.raises(interrupt):
            main(["--format", "json", "factor", "12"])
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,command,unparsable",
        [
            (["lunar", "search", "--max", "0"], "lunar search", ["lunar", "search", "--max", "x"]),
            (["lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", "0/5"], "lunar age", ["lunar", "age", "--lc", "5"]),
            (["lunar", "age", "--lc", "0", "--lc0", "5"], "lunar age", ["lunar", "age", "--lc", "5"]),
        ],
        ids=["search-max-0", "age-ratio-0", "age-lc-before-lc0"],
    )
    def test_handler_error_names_full_command(self, run, fmt, argv, command, unparsable):
        # A handler's error names its command as argparse's error for that command does.
        assert json.loads(run("--format", "json", *unparsable)[1])["command"] == command
        code, out = run("--format", fmt, *argv)
        assert code == 2
        if fmt == "json":
            data = json.loads(out)
            assert (data["command"], data["status"]) == (command, "error")
        else:
            assert out.startswith(f"command: {command}\nstatus: error\nerror: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,command,error",
        [
            (["convert", CREATION_CR, "--window", "5..3"], "convert",
             "window must satisfy 0 <= lo <= hi, got (5, 3)"),
            (["lunar", "age", "--lc", "-5", "--lc0", "0"], "lunar age", "bad --lc '-5'"),
            # Text with no dot is a day number, whatever else int() would read in it.
            (["lunar", "age", "--lc", CREATION_CR, "--lc0", "0"], "lunar age", f"bad --lc '{CREATION_CR}'"),
            (["lunar", "age", "--lc", "1_0", "--lc0", "0"], "lunar age", "bad --lc '1_0'"),
            (["lunar", "age", "--lc", "5", "--lc0", " 5"], "lunar age", "bad --lc0 ' 5'"),
            (["lunar", "age", "--lc", "+5", "--lc0", "0"], "lunar age", "bad --lc '+5'"),
            (["lunar", "age", "--lc", "9.16.15.0.0 1 Imix 0 Pop", "--lc0", "0"], "lunar age",
             "--lc: '9.16.15.0.0 1 Imix 0 Pop' is not self-consistent"),
            (["convert", "9.9.16.0.0", "--window", "0..5"], "convert",
             "--window needs a Calendar Round date without a Long Count"),
            (["convert", "--day", "5", "--window", "0..3"], "convert",
             "--window needs a Calendar Round date without a Long Count"),
        ],
        ids=["window-reversed", "lc-negative", "lc-calendar-round", "lc-underscore", "lc0-space", "lc-plus",
             "lc-inconsistent", "window-long-count", "window-day"],
    )
    def test_rejected_flag_value(self, run, fmt, argv, command, error):
        code, out = run("--format", fmt, *argv)
        assert code == 2
        if fmt == "json":
            assert json.loads(out) == {"command": command, "status": "error", "payload": {"error": error}, "checks": []}
        else:
            assert out == f"command: {command}\nstatus: error\nerror: {error}\n"

    @pytest.mark.parametrize(
        "template,command,what",
        [
            (["convert", "--day={}"], "convert", "--day"),
            (["--correlation={}", "convert", "--day", "0"], "convert", "--correlation"),
            (["lunar", "search", "--max={}"], "lunar search", "--max"),
            (["factor", "{}"], "factor", "n"),
            (["convert", CREATION_CR, "--window={}..40000"], "convert", "window bound"),
            (["convert", CREATION_CR, "--window=0..{}"], "convert", "window bound"),
            (["lunar", "age", "--lc={}", "--lc0", "0"], "lunar age", "--lc"),
            (["lunar", "age", "--lc", "9", "--lc0={}"], "lunar age", "--lc0"),
            (["lunar", "age", "--lc", "9", "--lc0", "0", "--ratio={}/81"], "lunar age", "ratio term"),
            (["lunar", "age", "--lc", "9", "--lc0", "0", "--ratio=2392/{}"], "lunar age", "ratio term"),
        ],
        ids=["day", "correlation", "max", "factor", "window-lo", "window-hi", "lc", "lc0", "ratio-days",
             "ratio-lunations"],
    )
    @pytest.mark.parametrize(
        "spelling,error",
        [("7", None), ("007", None), ("٧", None), ("７", None),
         ("+7", "bad"), ("-7", "bad"), ("7_0", "bad"), (" 7", "bad"), ("²", "bad"),
         ("9" * (MAX_DIGITS + 1), "too long"), ("-" + "9" * 4000, "bad")],
        ids=["plain", "zeros", "arabic-indic", "fullwidth", "plus", "minus", "underscore", "space", "superscript",
             "past-bound", "minus-at-bound"],
    )
    def test_every_integer_input_is_read_alike(self, run, template, command, what, spelling, error):
        # One reader: decimal digits of any script, no sign, at most MAX_DIGITS; else one of its two messages.
        code, out = run("--format", "json", *(arg.format(spelling) for arg in template))
        if error is None:
            assert (code, out) == (0, run("--format", "json", *(arg.format("7") for arg in template))[1])
            return
        message = f"bad {what} {spelling!r}" if error == "bad" else f"{what} is too long: {len(spelling)} digits"
        assert code == 2
        assert json.loads(out) == {"command": command, "status": "error", "payload": {"error": message}, "checks": []}

    def test_envelope_exit_mapping(self):
        ok = OutputEnvelope.result("x", {})
        assert ok.exit_code == 0
        bad = OutputEnvelope.result("x", {}, [Check("c", 1, 2, False)])
        assert (bad.status, bad.exit_code) == ("mismatch", 1)
        err = OutputEnvelope.error("x", "boom")
        assert (err.status, err.exit_code) == ("error", 2)


#: The text of a number: small ones, negative ones, 4000 digits, and text that no integer flag reads.
NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(-3, 3).map(str),
    st.integers(1, 9).map(lambda digit: str(digit) * 4000),
    st.sampled_from(["²", "٣", "1_0", "+5", " 5", "x", "", "-", "--5", TOO_LONG]),
)
#: Date strings: each form, ones that do not parse, and free text that argparse takes for no flag.
DATES = st.one_of(
    st.sampled_from(["9.9.16.0.0", CREATION_CR, "9.9.16.0.0 4 Ahau 8 Cumku", "9.9.16.0.0 5 Imix 0 Pop",
                     "4 Ahau 3 Kankin", "13(0).0.0.0.0", "2×13(0).0.0.0.0", "9.².16.0.0", "² Ahau 8 Cumku"]),
    st.builds("{}.{}.0.0.0".format, NUMBERS, NUMBERS),
    st.builds("4 Ahau {} Cumku".format, NUMBERS),
    st.text(max_size=20).filter(lambda text: not text.startswith("-")),
)
#: Windows narrow enough to render in a moment, wherever they start, and malformed ones.
WINDOWS = st.one_of(
    st.builds(lambda lo, width: f"{lo}..{lo + width}",
              st.integers(0, 10**15) | st.integers(1, 9).map(lambda digit: int(str(digit) * 4000)),
              st.integers(0, 40000)),
    st.builds("{}..{}".format, NUMBERS, NUMBERS),
)
#: Every leaf of the command line, with the strategies of its positional and of each of its flags.
LEAVES = {
    ("convert",): (DATES, {"--day": NUMBERS, "--window": WINDOWS}),
    ("verify",): (st.sampled_from(["all", *cli.SUITES, "eq9"]), {}),
    ("lunar", "table"): (None, {}),
    ("lunar", "search"): (None, {"--max": NUMBERS}),
    ("lunar", "age"): (None, {"--lc": NUMBERS | DATES, "--lc0": NUMBERS | DATES,
                              "--ratio": st.builds("{}/{}".format, NUMBERS, NUMBERS) | st.just("2392/81")}),
    ("factor",): (st.integers(-3, 5000).map(str) | NUMBERS, {}),
    ("table",): (st.sampled_from(["cultural-dates", "x"]), {}),
}
SHARED_FLAGS = {"--format": st.sampled_from(cli.FORMATS) | st.just("xml"),
                "--correlation": st.integers(1, 10**7).map(str) | NUMBERS}
FLAGS = {**SHARED_FLAGS, **{flag: values for _, flags in LEAVES.values() for flag, values in flags.items()}}


@st.composite
def flag_groups(draw, flags: dict, max_size: int) -> list[list[str]]:
    """Some of ``flags``, each as ``--flag value``, ``--flag=value`` or a bare ``--flag``."""
    groups = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=max_size)):
        value, shape = draw(flags[flag]), draw(st.sampled_from(["pair", "pair", "pair", "equals", "bare"]))
        groups.append({"pair": [flag, value], "equals": [f"{flag}={value}"], "bare": [flag]}[shape])
    return groups


@st.composite
def command_lines(draw) -> list[str]:
    """A command line for one leaf: its positional (or none), its flags, at times one of another leaf
    (misplaced), and the shared flags before the command, after it and, for ``lunar``, between the
    group and its leaf."""
    words = draw(st.sampled_from(sorted(LEAVES)))
    positional, flags = LEAVES[words]
    tail = draw(flag_groups(flags, 3)) if flags else []
    tail += draw(flag_groups(SHARED_FLAGS, 1)) + draw(flag_groups(FLAGS, 1)) * (draw(st.integers(0, 4)) == 0)
    if positional is not None and draw(st.integers(0, 4)):
        tail.append([draw(positional)])
    argv = [token for group in draw(flag_groups(SHARED_FLAGS, 2)) for token in group] + [words[0]]
    if len(words) == 2:
        argv += [token for group in draw(flag_groups(SHARED_FLAGS, 1)) for token in group] + [words[1]]
    return argv + [token for group in draw(st.permutations(tail)) for token in group]


def assert_window_head(head: str, fmt: str) -> None:
    """Check that ``head`` starts one ``ok`` ``convert`` envelope in ``fmt`` whose exact ``count`` is
    that of the progression of the days it lists, from the first to the window's end."""
    if fmt == "json":
        assert head.startswith('{\n  "command": "convert",\n  "status": "ok",\n  "payload": {\n    "input": ')
        lo, hi, count = map(int, re.search(r'\n    "window": "(\d+)\.\.(\d+)",\n    "count": (\d+),\n', head).groups())
        days = [int(day) for day in re.findall(r'\n        "day": (\d+),', head)]
    else:
        assert head.startswith("command: convert\nstatus: ok\ninput: ")
        lo, hi, count = map(int, re.search(r"\nwindow: (\d+)\.\.(\d+)\ncount: (\d+)\nmatches:\n", head).groups())
        days = [int(day) for day in re.findall(r"\n  - day: (\d+)\n", head)]
    step = days[1] - days[0]
    assert days == list(range(days[0], days[-1] + 1, step))
    assert lo <= days[0] < lo + step and count == (hi - days[0]) // step + 1


def asked_format(argv: list[str]) -> str:
    """The value of the last ``--format X`` or ``--format=X`` naming a format, else text."""
    pairs = [arg.partition("=")[::2] if arg.startswith("--format=") else (arg, following)
             for arg, following in zip(argv, argv[1:] + [None])]
    return ([value for flag, value in pairs if flag == "--format" and value in cli.FORMATS] or ["text"])[-1]


class TestCommandLines:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=command_lines())
    @example(argv=["convert", "--day", "9" * 4000, "--correlation", "9" * 4000])
    @example(argv=["--format", "json", "convert", "1.²", "--format"])
    @example(argv=["lunar", "--format", "json", "age", "--lc", "9.9.16.0.0", "--lc0", "٣", "--ratio=1/5"])
    @example(argv=["factor", "1"])
    @example(argv=["convert", CREATION_CR, "--format=json", "--window", f"1{'0' * 3999}..1{'0' * 3994}40000"])
    @example(argv=["convert", CREATION_CR, "--window", f"38629..{'6' * 4000}"])  # never ends
    @example(argv=["--format", "json", "convert", CREATION_CR, "--window", f"0..{'6' * 4000}"])
    def test_every_command_line_gets_one_envelope(self, monkeypatch, argv):
        # Whatever the command line, one envelope in the format asked for, and nothing on stderr.
        # A window may be accepted that no run could write whole: its head is checked instead.
        monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
        out = Sink(limit=4 * 2**20, keep=4 * 2**20)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except Full:
                code = None
        assert err.getvalue() == ""
        if code is None:
            assert_window_head(out.head, asked_format(argv))
            return
        out = out.head
        assert code in (0, 1, 2)
        status = {0: "ok", 1: "mismatch", 2: "error"}[code]
        if asked_format(argv) == "json":
            data = json.loads(out)  # one document, or this raises
            assert (list(data), data["status"]) == (["command", "status", "payload", "checks"], status)
            payload = data["payload"]
        else:
            assert re.match(rf"command: [a-z ]+\nstatus: {status}\n", out) and out.endswith("\n")
            assert len(re.findall("^command: ", out, re.M)) == 1
            payload = {key: int(value) if key == "position" else value  # top-level lines only
                       for key, value in re.findall(r"^(error|position): (.*)$", out, re.M)}
        offset = re.search(r"\(at offset (\d+)\)$", payload.get("error", ""))
        assert payload.get("position") == (offset and int(offset[1]))


class TestConvert:
    def test_named_days_come_from_the_model(self, run, constants):
        days = named_days(constants)
        assert list(days) == [0, 341640, 1195740, 1366560, 1708200, 1765140, 1872000, 2448420,
                              136656000, 683280000, 956592000]  # in day order
        assert {constants.aeon, 5 * constants.aeon, constants.grand_cycle} <= days.keys()
        code, out = run("--format", "json", "table", "cultural-dates")
        rows = json.loads(out)["payload"]["rows"]
        assert code == 0 and len(rows) == 5
        assert all((row["label"], row["meaning"]) == days[row["day"]] for row in rows)
        for day, (_, meaning) in days.items():
            code, out = run("convert", "--day", str(day))
            assert code == 0 and f"\nidentity: {meaning}\n" in out

    def test_long_round_identified(self, run):
        code, out = run("convert", "9.9.16.0.0")
        assert code == 0
        assert "day: 1366560" in out
        assert "identity: Long Round (Dresden Codex Venus table)" in out

    def test_day_zero(self, run):
        code, out = run("convert", "--day", "0")
        assert code == 0
        assert "0.0.0.0.0" in out
        assert "4 Ahau" in out and "8 Cumku" in out
        assert "kawil: 3" in out
        assert "East-Red" in out

    def test_window_resolution(self, run):
        code, out = run("--format", "json", "convert", "4 Ahau 3 Kankin", "--window", "0..1872000")
        assert code == 0
        payload = json.loads(out)["payload"]
        days = [m["day"] for m in payload["matches"]]
        assert 1872000 in days
        assert payload["count"] == len(days) == 99

    def test_era_multiple_as_displayed(self, run):
        code, out = run("convert", "365×13(0).0.0.0.0")
        assert code == 0
        assert "day: 683280000" in out
        assert "long_count_annotated: 365×13(0).0.0.0.0" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("text,day", [("13(0).0.0.0.0 4 Ahau 8 Cumku", 0),  # the abstract's creation date
                                          ("13(0).0.0.0.0 4 Ahau 3 Kankin", 1872000), ("13(0).0.0.0.0", 1872000)])
    def test_era_completion_as_displayed(self, run, fmt, text, day):
        code, out = run("--format", fmt, "convert", text)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)["payload"]
            assert (payload["day"], payload["long_count_annotated"]) == (day, "13(0).0.0.0.0")
        else:
            assert f"\nday: {day}\n" in out and "\nlong_count_annotated: 13(0).0.0.0.0\n" in out

    def test_calendar_round_needs_window(self, run):
        code, out = run("convert", "4 Ahau 3 Kankin")
        assert code == 2
        assert "--window" in out

    def test_inconsistent_combined(self, run):
        code, out = run("convert", "9.9.16.0.0 5 Imix 0 Pop")
        assert code == 2
        assert "inconsistent" in out

    def test_requires_exactly_one_input(self, run):
        assert run("convert")[0] == 2
        assert run("convert", "9.9.16.0.0", "--day", "5")[0] == 2

    def test_negative_day(self, run):
        assert run("convert", "--day", "-3")[0] == 2

    def test_non_positive_correlation(self, run):
        code, out = run("--correlation", "0", "convert", "--day", "0")
        assert code == 2
        assert "status: error" in out
        assert "correlation constant must be positive, got 0" in out
        code, out = run("--format", "json", "--correlation", "0", "convert", "--day", "0")
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "error"
        assert data["payload"]["error"] == "correlation constant must be positive, got 0"

    def test_custom_correlation(self, run):
        code, out = run("--correlation", "584285", "convert", "--day", "1872000")
        assert code == 0
        assert "jdn: 2456285" in out
        assert "23 December 2012" in out


class TestRows:
    def test_rows_render_like_a_list(self):
        fields = ("day", "half", "quoted", "other")
        rows = [(d, f"{d}/2", f'"{d}" \\ é\t', other) for d, other in enumerate(([0, [1, 2]], None, True))]
        payload = {"rows": [dict(zip(fields, row)) for row in rows], "none": []}
        envelope = OutputEnvelope.result("x", payload)
        reference = reference_rendering("x", payload)
        assert envelope.to_text() == reference["text"]
        assert envelope.to_json() == reference["json"]

    def test_window_matches_are_made_while_rendering(self, monkeypatch):
        made, civil = [], window.civil_text  # each row's civil date is its own
        monkeypatch.setattr(window, "civil_text", lambda jdn, calendar: made.append(jdn - GMT_CORRELATION)
                            or civil(jdn, calendar))
        args = cli.build_parser().parse_args(["convert", "4 Ahau 8 Cumku", "--window", "0..40000"])
        envelope = cli.cmd_convert(args, GMT)
        assert envelope.payload["count"] == 3
        assert made == []
        assert "day: 37960" in envelope.to_text()
        assert made == [0, 18980, 37960]

    @settings(max_examples=25, deadline=None)
    @given(day=st.integers(0, CALENDAR_ROUND - 1), lo=st.integers(0, 10**9), width=st.integers(0, 10**7))
    def test_streamed_output_is_the_materialised_rendering(self, day, lo, width):
        argv = ["convert", cycle_date(day).calendar_round, "--window", f"{lo}..{lo + width}"]
        streamed = {}
        for fmt in ("json", "text"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["--format", fmt, *argv]) == 0
            streamed[fmt] = out.getvalue()
        envelope = cli.cmd_convert(cli.build_parser().parse_args(argv), GMT)
        matches = envelope.payload["matches"]
        payload = {**envelope.payload, "matches": [match_summary(d, GMT) for d in (matches.days if matches else [])]}
        assert payload["count"] == len(payload["matches"])
        reference = reference_rendering("convert", payload)
        assert streamed == {fmt: rendering + "\n" for fmt, rendering in reference.items()}

    @settings(max_examples=60, deadline=None)
    @given(day=st.integers(0, CALENDAR_ROUND - 1), lo=st.integers(0, 10**15), width=st.integers(0, 10**6),
           correlation=st.integers(1, 10**9))
    @example(day=0, lo=0, width=10**6, correlation=GMT_CORRELATION)  # years BC
    @example(day=0, lo=10**15, width=10**6, correlation=10**9)  # years past 9999
    @example(day=1, lo=0, width=0, correlation=GMT_CORRELATION)  # no match
    @example(day=0, lo=0, width=0, correlation=GMT_CORRELATION)  # one
    def test_rows_match_the_records(self, day, lo, width, correlation):
        assert_rows_match_the_records(day, lo, width, correlation)

    @settings(max_examples=15, deadline=None)
    @given(day=st.integers(0, CALENDAR_ROUND - 1), lo=st.integers(0, 10**15),
           width=st.integers(361 * CALENDAR_ROUND, 10**8), correlation=st.integers(1, 10**9))
    @example(day=0, lo=0, width=10**8, correlation=1)  # years BC
    @example(day=CALENDAR_ROUND - 1, lo=10**15, width=10**8, correlation=10**9)  # years past 9999
    def test_rows_reread_every_table(self, day, lo, width, correlation):
        # Over 360 matches, each field a cycle decides is rendered for the first rows of its period only,
        # the period over its gcd with the Calendar Round (1, 63, 360), and then read again.
        rendered, periodic = {}, window._periodic

        def counted(days, period, render):
            rendered[period] = 0

            def count(day):
                rendered[period] += 1
                return render(day)
            return periodic(days, period, count)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(window, "_periodic", counted)
            assert_rows_match_the_records(day, lo, width, correlation)
        assert rendered == {period: period // math.gcd(period, CALENDAR_ROUND)
                            for period in (CALENDAR_ROUND, KAWIL_CYCLE, KATUN)}
        assert set(_DAYS_OF_YEAR) <= set(range(366))

    @settings(max_examples=60, deadline=None)
    @given(step=st.sampled_from([1, 20, 260, 365, KAWIL_CYCLE, KATUN, CALENDAR_ROUND]) | st.integers(1, 10**7),
           lo=st.integers(0, 10**30), rows=st.integers(1, 400), correlation=st.integers(1, 10**9))
    @example(step=CALENDAR_ROUND, lo=0, rows=1, correlation=GMT_CORRELATION)  # years BC
    @example(step=CALENDAR_ROUND, lo=5, rows=62, correlation=1)
    @example(step=CALENDAR_ROUND, lo=0, rows=63, correlation=GMT_CORRELATION)
    @example(step=CALENDAR_ROUND, lo=17, rows=64, correlation=10**9)
    @example(step=CALENDAR_ROUND, lo=0, rows=359, correlation=GMT_CORRELATION)
    @example(step=CALENDAR_ROUND, lo=10**30, rows=360, correlation=10**9)  # years past 9999
    @example(step=CALENDAR_ROUND, lo=BAKTUN - 1, rows=361, correlation=1)
    @example(step=1, lo=0, rows=400, correlation=1)
    @example(step=7, lo=10**30 - 3, rows=361, correlation=GMT_CORRELATION)
    def test_writer_matches_the_records_at_any_step(self, step, lo, rows, correlation):
        # The writer of any progression of days, not only a Calendar Round window's.
        constant = CorrelationConstant(correlation)
        matches = window.WindowMatches(range(lo, lo + rows * step, step), constant.jdn_at_creation)
        assert_renders_the_records(OutputEnvelope.result("convert", {"matches": matches}), constant)

    @settings(max_examples=200, deadline=None)
    @given(value=JSONABLE)
    def test_json_writer_is_the_stdlib_encoder(self, value):
        written = "".join(cli._json_pieces(value, json.encoder.encode_basestring))
        assert written == json.dumps(value, indent=2, ensure_ascii=False)


class TestStreaming:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wide_window_renders_in_bounded_memory(self, monkeypatch, fmt):
        rows = 200_000
        # The cheapest civil date, so that the test measures rendering rather than the
        # calendar: tracemalloc makes every allocation several times slower.
        monkeypatch.setattr(window, "civil_text", lambda jdn, calendar: str(jdn))
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["--format", fmt, "convert", CREATION_CR, "--window", f"0..{CALENDAR_ROUND * (rows - 1)}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.size > rows * 16
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB traced while rendering {sink.size} characters"

    def test_json_window_too_wide_to_hold_streams(self, monkeypatch):
        # 5.3e9 matches: the JSON document (about 1.4 TB) could never be held in memory.
        sink = Sink(limit=2**20)
        monkeypatch.setattr(sys, "stdout", sink)
        with pytest.raises(Full):
            main(["--format", "json", "convert", CREATION_CR, "--window", f"0..{10**14}"])
        assert sink.head.startswith('{\n  "command": "convert",\n  "status": "ok",')
        assert f'"count": {10**14 // CALENDAR_ROUND + 1},' in sink.head

    def test_exact_count_past_2_63_days(self, monkeypatch):
        hi = 10**30
        count = hi // CALENDAR_ROUND + 1  # days 0, 18980, ..., the last multiple of 18980 <= hi
        assert count > 2**63
        sink = Sink(limit=100_000)
        monkeypatch.setattr(sys, "stdout", sink)
        with pytest.raises(Full):
            main(["convert", CREATION_CR, "--window", f"0..{hi}"])
        assert f"\ncount: {count}\nmatches:\n  - day: 0\n" in sink.head
        assert "\n  - day: 18980\n" in sink.head

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status to read VmHWM from")
    def test_grand_cycle_window_in_bounded_memory(self):
        # The child reports its own peak RSS: Linux raises a child's ru_maxrss
        # to its starter's high-water mark, so wait4 would report pytest's.
        child = ("import sys; from mayacal.cli import main; code = main(sys.argv[1:]); sys.stderr.write("
                 "open('/proc/self/status').read().partition('VmHWM:')[2].split()[0]); sys.exit(code)")
        result = python("-c", child, "--format", "json", "convert", CREATION_CR, "--window", "0..956592000")
        payload = json.loads(result.stdout)["payload"]
        assert (result.returncode, payload["count"], len(payload["matches"])) == (0, 50401, 50401)
        assert int(result.stderr) < 32 * 1024, f"peak RSS {int(result.stderr) / 1024:.1f} MiB"  # VmHWM is in kB

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mayacal", "convert", CREATION_CR, "--window", f"0..{10**13}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no output within 30 s"
            head = os.read(proc.stdout.fileno(), 1000)
            proc.stdout.close()  # as `| head -c 1000` does
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()  # a writer that never sees the closed pipe would run on
        assert head.startswith(b"command: convert\nstatus: ok\n")
        assert (proc.returncode, err) == (cli.BROKEN_PIPE_EXIT, b"")


class TestVerify:
    def test_all_scopes_pass(self, run):
        for scope in ("all", "eq1", "eq2", "eq3", "eq4", "residues", "dates", "lunar", "eclipse"):
            code, out = run("verify", scope)
            assert code == 0, (scope, out)
            assert "status: ok" in out

    def test_all_has_at_least_twenty_checks(self, run):
        code, out = run("--format", "json", "verify", "all")
        data = json.loads(out)
        assert data["payload"]["checks_total"] >= 20
        assert data["payload"]["checks_failed"] == 0
        assert all(c["pass"] for c in data["checks"])

    def test_one_lunation_scan_per_command(self, run, monkeypatch):
        calls = []

        def counting_search(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "search", counting_search)
        for argv in (("lunar", "search"), ("verify", "lunar")):
            calls.clear()
            code, _ = run(*argv)
            assert (code, len(calls)) == (0, 1), argv


class TestLunar:
    def test_table(self, run):
        code, out = run("lunar", "table")
        assert code == 0
        assert "Palenque formula" in out

    def test_search_flags_palenque(self, run):
        code, out = run("--format", "json", "lunar", "search")
        assert code == 0
        data = json.loads(out)
        assert data["payload"]["best"]["ratio"] == "2392/81"
        zero = {c["ratio"] for c in data["payload"]["zero_error"]}
        assert zero == {"30/1", "59/2", "118/4", "148/5", "236/8", "295/10"}

    def test_search_short_scan(self, run):
        code, out = run("--format", "json", "lunar", "search", "--max", "10")
        assert code == 0
        data = json.loads(out)
        assert data["payload"]["scanned"] == 10
        assert data["checks"] == []

    def test_search_long_scan(self, run):
        code, out = run("--format", "json", "lunar", "search", "--max", "100000000")
        assert code == 0
        long = json.loads(out)["payload"]
        assert (long.pop("max_lunations"), long.pop("scanned")) == (100000000, 100000000)
        default = json.loads(run("--format", "json", "lunar", "search")[1])["payload"]
        del default["max_lunations"], default["scanned"]
        assert long == default

    def test_age_zero(self, run):
        code, out = run("lunar", "age", "--lc", "0.0.0.0.0", "--lc0", "0.0.0.0.0", "--ratio", "2392/81")
        assert code == 0
        assert "age: 0" in out

    def test_age_tikal(self, run):
        code, out = run("lunar", "age", "--lc", "9.16.15.0.0", "--lc0", "0")
        assert code == 0
        assert "age: 40/9" in out

    def test_bad_ratio(self, run):
        code, out = run("lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", "29.53")
        assert code == 2


class TestFactor:
    def test_kawil_cycle(self, run):
        code, out = run("factor", "3276")
        assert code == 0
        assert "2^2 × 3^2 × 7 × 13" in out

    def test_jupiter(self, run):
        code, out = run("factor", "399")
        assert code == 0
        assert "3 × 7 × 19" in out

    def test_one(self, run):
        code, out = run("factor", "1")
        assert code == 0
        assert "factorization: 1" in out
        assert out.endswith("\nfactors: {}\n")  # the empty product, as JSON writes it
        assert json.loads(run("--format", "json", "factor", "1")[1])["payload"]["factors"] == {}

    def test_mersenne_prime(self, run):
        code, out = run("factor", "2305843009213693951")
        assert code == 0
        assert "factorization: 2305843009213693951" in out
        code, out = run("--format", "json", "factor", "9223372036854775783")  # the largest prime below 2^63
        assert (code, json.loads(out)["payload"]["factors"]) == (0, {"9223372036854775783": 1})

    def test_out_of_range(self, run):
        assert run("factor", "0")[0] == 2
        assert run("factor", str(2**63))[0] == 2


class TestTable:
    def test_cultural_dates(self, run):
        code, out = run("--format", "json", "table", "cultural-dates")
        assert code == 0
        data = json.loads(out)
        rows = {r["label"]: r for r in data["payload"]["rows"]}
        assert rows["E"]["position"] == [160, 264, 588, 1]
        assert rows["GC"]["position"] == [160, 349, 3, 0]
        assert rows["E"]["gregorian"] == "21 December 2012"


class TestFormats:
    def test_json_and_text_carry_same_fields(self, run):
        code_t, text = run("convert", "--day", "1366560")
        code_j, raw = run("--format", "json", "convert", "--day", "1366560")
        assert code_t == code_j == 0
        payload = json.loads(raw)["payload"]
        for key, value in payload.items():
            assert f"{key}: {value}" in text

    def test_env_var_default(self, run, monkeypatch):
        monkeypatch.setenv("MAYACAL_FORMAT", "json")
        _, out = run("verify", "eq1")
        assert json.loads(out)["status"] == "ok"

    def test_format_flag_without_value(self, run, monkeypatch):
        # No format could be read from the command line, so the default applies.
        error = "argument --format: expected one argument"
        assert run("convert", "--format") == (2, f"command: convert\nstatus: error\nerror: {error}\n")
        monkeypatch.setenv("MAYACAL_FORMAT", "json")
        code, out = run("convert", "--format")
        assert (code, json.loads(out)) == (2, {"command": "convert", "status": "error", "payload": {"error": error},
                                               "checks": []})

    def test_flag_beats_env_var(self, run, monkeypatch):
        monkeypatch.setenv("MAYACAL_FORMAT", "json")
        _, out = run("--format", "text", "verify", "eq1")
        assert out.startswith("command: verify")

    def test_format_flag_after_subcommand(self, run):
        flags = ["--format", "json", "--correlation", "584285"]
        for argv in (
            ["verify", "eq1"],
            ["convert", "9.9.16.0.0"],
            ["lunar", "table"],
            ["lunar", "search", "--max", "10"],
            ["lunar", "age", "--lc", "9.16.15.0.0", "--lc0", "0"],
            ["factor", "3276"],
            ["table", "cultural-dates"],
        ):
            code, after = run(*argv, *flags)
            assert (code, json.loads(after)["status"]) == (0, "ok"), argv
            assert run(*flags, *argv) == (code, after), argv
            if argv[0] == "lunar":  # the group takes the flags too
                assert run("lunar", *flags, *argv[1:]) == (code, after), argv
        assert json.loads(run("convert", "--day", "0", *flags)[1])["payload"]["correlation"] == 584285


def mixed_lists(value) -> list:
    """Every list in ``value``, at any depth, that holds a dict and something other than a dict."""
    if isinstance(value, dict):
        return [found for v in value.values() for found in mixed_lists(v)]
    if isinstance(value, list):
        held = [value] if len({isinstance(i, dict) for i in value}) > 1 else []
        return held + [found for i in value for found in mixed_lists(i)]
    return []


def unwritten(value) -> list:
    """Each value in a payload, at any depth, that is not a str, int, bool, None, list or str-keyed
    dict, and each dict key that is not a str: what the renderers do not write."""
    if type(value) is dict:
        return [k for k in value if type(k) is not str] + [found for v in value.values() for found in unwritten(v)]
    if type(value) is list:
        return [found for v in value for found in unwritten(v)]
    return [] if type(value) in (str, int, bool, type(None)) else [value]


def test_unwritten_finds_each_kind():
    tzolkin = cycle_date(0).tzolkin  # a record: a tuple, rendered as its str only by jsonable
    payload = {"at": tzolkin, 1: [True, None, (2,)], "rows": [{"value": Fraction(1, 2)}], "nested": {"ok": ["x", -3]}}
    assert unwritten(payload) == [1, tzolkin, (2,), Fraction(1, 2)]


def test_mixed_lists_finds_each():
    mixed = [{"a": 1}, 2]
    payload = {"rows": [{"x": [1, {"y": 2}]}, {}], "m": mixed, "values": [1, [2]], "none": []}
    assert mixed_lists(payload) == [[1, {"y": 2}], mixed]


class TestGolden:
    COMMANDS = [
        ("convert_day0.txt", ["convert", "--day", "0"]),
        ("convert_day0.json", ["--format", "json", "convert", "--day", "0"]),
        ("verify_eq1.json", ["--format", "json", "verify", "eq1"]),
        ("factor_3276.txt", ["factor", "3276"]),
        ("lunar_table.txt", ["lunar", "table"]),
        ("cultural_dates.txt", ["table", "cultural-dates"]),
        ("verify_all.json", ["--format", "json", "verify", "all"]),
        ("lunar_search.json", ["--format", "json", "lunar", "search"]),
        ("lunar_search.txt", ["lunar", "search"]),
        ("lunar_table.json", ["--format", "json", "lunar", "table"]),
        ("cultural_dates.json", ["--format", "json", "table", "cultural-dates"]),
        # One lunation: no nonzero error, so minimal_nonzero is empty and best is None.
        ("lunar_search_max1.txt", ["lunar", "search", "--max", "1"]),
        ("lunar_search_max1.json", ["--format", "json", "lunar", "search", "--max", "1"]),
    ]

    @pytest.mark.parametrize("name,argv", COMMANDS)
    def test_pinned_output(self, run, name, argv):
        code, out = run(*argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name,argv", COMMANDS)
    def test_every_list_of_records_is_rows(self, name, argv):
        # A list that holds a record holds only records, the rows of one table: the text
        # writer reads a list as a table from its first entry alone.
        args = cli.build_parser().parse_args(argv)
        assert mixed_lists(args.run(args, GMT).to_dict()) == []

    @pytest.mark.parametrize("name,argv", COMMANDS)
    def test_payload_is_written_as_built(self, name, argv):
        # The renderers write a payload without converting it, so it holds only what they write.
        args = cli.build_parser().parse_args(argv)
        assert unwritten(args.run(args, GMT).payload) == []


def test_module_entry_point():
    result = python("-m", "mayacal", "verify", "eclipse")
    assert result.returncode == 0
    assert "status: ok" in result.stdout


def test_console_script_entry_point():
    # The `mayacal` command pip installs; where it is not installed, the declaration in pyproject.toml.
    declared = [ep.value for ep in importlib.metadata.entry_points(group="console_scripts", name="mayacal")]
    if not declared:
        scripts = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").partition("[project.scripts]\n")[2]
        pairs = (line.partition("=") for line in scripts.partition("\n[")[0].splitlines())
        declared = [value.strip(' "') for key, _, value in pairs if key.strip() == "mayacal"]
    assert declared == ["mayacal.cli:main"]
    module, _, name = declared[0].partition(":")
    assert getattr(importlib.import_module(module), name) is main


@pytest.mark.parametrize("flags", [[], ["--all"]], ids=["filtered", "all"])
def test_lunar_search_script(capsys, monkeypatch, flags):
    script = str(SRC.parent / "scripts" / "lunar_search.py")
    monkeypatch.setattr(sys, "argv", [script, *flags])
    runpy.run_path(script, run_name="__main__")
    assert "scanned 643, kept 14" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("value,error", [("1_0", "bad --max '1_0'"), ("0", "max_lunations must be >= 1")],
                         ids=["underscore", "zero"])
def test_lunar_search_script_reads_max_as_the_cli_does(capsys, value, error):
    script = runpy.run_path(str(SRC.parent / "scripts" / "lunar_search.py"))
    with pytest.raises(SystemExit) as exc:
        script["main"](["--max", value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {error}\n")
    assert main(["lunar", "search", "--max", value]) == 2
    assert f"error: {error}\n" in capsys.readouterr().out


class TestImportFootprint:
    """What a cold call loads.  ``bench/worker.py`` reads the eight
    ``mayacal.*`` submodules from ``sys.modules`` right after importing
    ``mayacal`` and ``mayacal.cli``, so those imports must load them all."""

    SUBMODULES = ("arith", "checks", "cycles", "notation", "correlation", "supernumber", "lunar", "cli")

    def _imported(self, *args: str) -> set[str]:
        """Modules that ``python -X importtime <args>`` imports."""
        result = python("-X", "importtime", *args)
        assert result.returncode == 0, result.stderr
        return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}

    def test_package_import(self):
        result = python("-c", "import sys, mayacal, mayacal.cli; print(*sorted(sys.modules))")
        loaded = set(result.stdout.split())
        assert not {"dataclasses", "inspect"} & loaded
        assert {f"mayacal.{name}" for name in self.SUBMODULES} <= loaded

    def test_text_call_never_loads_json(self):
        # Whatever the interpreter loads at start-up (site, .pth files) is not the call's.
        text = self._imported("-m", "mayacal", "convert", "9.9.16.0.0") - self._imported("-c", "pass")
        assert "mayacal.cli" in text
        assert not {name for name in text if name == "json" or name.startswith("json.")}
        assert "json" in self._imported("-m", "mayacal", "--format", "json", "convert", "9.9.16.0.0")
