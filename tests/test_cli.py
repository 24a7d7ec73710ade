import contextlib
import io
import json
import os
import select
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayacal import cli
from mayacal.checks import Check, Rows
from mayacal.cli import OutputEnvelope, main
from mayacal.correlation import GMT_CORRELATION, CorrelationConstant
from mayacal.cycles import cycle_date
from mayacal.lunar import search

GOLDEN = Path(__file__).parent / "golden"
GMT = CorrelationConstant(GMT_CORRELATION)
CALENDAR_ROUND = 18980
CREATION_CR = "4 Ahau 8 Cumku"  # day 0's Calendar Round, so its matches are the multiples of 18980
TOO_LONG = "1" * 5000  # past the interpreter's default limit of 4300 digits for int()
SRC = Path(cli.__file__).parents[1]


class Full(Exception):
    """Raised by a :class:`Sink` that has taken its limit."""


class Sink:
    """A stdout that counts what it is written, keeps the first 4096 characters,
    and raises :class:`Full` once it has taken ``limit`` characters."""

    def __init__(self, limit: float = float("inf")) -> None:
        self.head, self.size, self.limit = "", 0, limit

    def write(self, text: str) -> int:
        if len(self.head) < 4096:
            self.head = (self.head + text)[:4096]
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
        "argv,command",
        [(["frobnicate"], "mayacal"), (["verify", "eq9"], "verify"), (["convert", "--day", "x"], "convert")],
        ids=["frobnicate", "verify-eq9", "day-x"],
    )
    def test_usage_error_from_argparse(self, capsys, monkeypatch, fmt, argv, command):
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
                assert data["payload"]["error"].startswith("argument ")
            else:
                assert out.startswith(f"command: {command}\nstatus: error\nerror: argument "), asked_by

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", "verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mayacal verify")

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
        assert code == 2 and "window must be LO..HI" in out
        code, out = run("lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", "²/81")
        assert code == 2 and "ratio must be DAYS/LUNATIONS" in out
        code, out = run("--format", "json", "lunar", "age", "--lc", "²", "--lc0", "0")
        assert code == 2
        assert json.loads(out)["payload"]["position"] == 1
        # Only one minus sign may precede the digits.
        code, out = run("convert", "4 Ahau 8 Cumku", "--window=--5..6")
        assert code == 2 and "window must be LO..HI, got '--5..6'" in out
        code, out = run("--format", "json", "lunar", "age", "--lc=--5", "--lc0", "0")
        assert code == 2
        assert json.loads(out)["payload"]["position"] == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv,error,position",
        [
            (["convert", f"1.{TOO_LONG}.0.0.0"], "long count digit is too long: 5000 digits", 2),
            (["convert", f"4 Ahau {TOO_LONG} Cumku"], "Haab' day is too long: 5000 digits", 7),
            (["lunar", "age", "--lc", TOO_LONG, "--lc0", "0"], "--lc is too long: 5000 digits", 0),
            (["convert", CREATION_CR, "--window", f"0..{TOO_LONG}"], "window bound is too long: 5000 digits", None),
            (["lunar", "age", "--lc", "5", "--lc0", "0", "--ratio", f"{TOO_LONG}/81"],
             "ratio term is too long: 5000 digits", None),
        ],
        ids=["long-count", "calendar-round", "lc", "window", "ratio"],
    )
    def test_number_past_digit_limit(self, run, fmt, argv, error, position):
        code, out = run("--format", fmt, *argv)
        assert code == 2
        if fmt == "json":
            payload = json.loads(out)["payload"]
            assert payload["error"].startswith(error)
            assert payload.get("position") == position
        else:
            assert f"\nerror: {error}" in out
            assert ("\nposition: " in out) == (position is not None)
            assert position is None or out.endswith(f"\nposition: {position}\n")

    def test_mismatch_exits_one(self, run, monkeypatch):
        failing = cli.OutputEnvelope.result(
            "verify", {}, [Check("sabotaged", 1, 2, False)]
        )
        monkeypatch.setattr(cli, "cmd_verify", lambda args, constant: failing)
        monkeypatch.setitem(cli.HANDLERS, "verify", cli.cmd_verify)
        code, out = run("verify", "eq1")
        assert code == 1
        assert "status: mismatch" in out
        assert "[FAIL] sabotaged: expected 1, got 2" in out

    def test_envelope_exit_mapping(self):
        ok = OutputEnvelope.result("x", {})
        assert ok.exit_code == 0
        bad = OutputEnvelope.result("x", {}, [Check("c", 1, 2, False)])
        assert (bad.status, bad.exit_code) == ("mismatch", 1)
        err = OutputEnvelope.error("x", "boom")
        assert (err.status, err.exit_code) == ("error", 2)


class TestConvert:
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
        rows = [{"day": d, "half": Fraction(d, 2), "pair": (d, d)} for d in range(3)]
        lazy = OutputEnvelope.result("x", {"rows": Rows(rows.__getitem__, range(3)), "none": Rows(str, range(0))})
        eager = OutputEnvelope.result("x", {"rows": rows, "none": []})
        assert lazy.to_text() == eager.to_text()
        assert lazy.to_json() == eager.to_json()

    def test_window_matches_are_made_while_rendering(self, monkeypatch):
        made = []
        summary = cli._match_summary
        monkeypatch.setattr(cli, "_match_summary", lambda d, c: made.append(d) or summary(d, c))
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
        payload = {**envelope.payload, "matches": list(envelope.payload["matches"])}
        assert payload["count"] == len(payload["matches"])
        materialised = {**envelope.to_dict(), "payload": payload}
        assert streamed["json"] == json.dumps(materialised, indent=2, ensure_ascii=False) + "\n"
        assert streamed["text"] == OutputEnvelope.result("convert", payload).to_text() + "\n"


class TestStreaming:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wide_window_renders_in_bounded_memory(self, monkeypatch, fmt):
        rows = 200_000
        # The cheapest row, so that the test measures rendering rather than the
        # calendar: tracemalloc makes every allocation several times slower.
        monkeypatch.setattr(cli, "_match_summary", lambda d, c: {"day": d})
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

    def test_mersenne_prime(self, run):
        code, out = run("factor", "2305843009213693951")
        assert code == 0
        assert "factorization: 2305843009213693951" in out

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

    def test_flag_beats_env_var(self, run, monkeypatch):
        monkeypatch.setenv("MAYACAL_FORMAT", "json")
        _, out = run("--format", "text", "verify", "eq1")
        assert out.startswith("command: verify")

    def test_format_flag_after_subcommand(self, run):
        _, out = run("verify", "eq1", "--format", "json")
        assert json.loads(out)["status"] == "ok"


class TestGolden:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("convert_day0.txt", ["convert", "--day", "0"]),
            ("convert_day0.json", ["--format", "json", "convert", "--day", "0"]),
            ("verify_eq1.json", ["--format", "json", "verify", "eq1"]),
            ("factor_3276.txt", ["factor", "3276"]),
            ("lunar_table.txt", ["lunar", "table"]),
            ("cultural_dates.txt", ["table", "cultural-dates"]),
            ("verify_all.json", ["--format", "json", "verify", "all"]),
            ("lunar_search.json", ["--format", "json", "lunar", "search"]),
        ],
    )
    def test_pinned_output(self, run, name, argv):
        code, out = run(*argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "mayacal", "verify", "eclipse"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "status: ok" in result.stdout


class TestImportFootprint:
    """What a cold call loads.  ``bench/worker.py`` reads the eight
    ``mayacal.*`` submodules from ``sys.modules`` right after importing
    ``mayacal`` and ``mayacal.cli``, so those imports must load them all."""

    SUBMODULES = ("arith", "checks", "cycles", "notation", "correlation", "supernumber", "lunar", "cli")

    @staticmethod
    def _python(*args: str) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k != cli.FORMAT_ENV_VAR}
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

    def _imported(self, *args: str) -> set[str]:
        """Modules that ``python -X importtime <args>`` imports."""
        result = self._python("-X", "importtime", *args)
        assert result.returncode == 0, result.stderr
        return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}

    def test_package_import(self):
        result = self._python("-c", "import sys, mayacal, mayacal.cli; print(*sorted(sys.modules))")
        loaded = set(result.stdout.split())
        assert not {"dataclasses", "inspect"} & loaded
        assert {f"mayacal.{name}" for name in self.SUBMODULES} <= loaded

    def test_text_call_never_loads_json(self):
        # Whatever the interpreter loads at start-up (site, .pth files) is not the call's.
        text = self._imported("-m", "mayacal", "convert", "9.9.16.0.0") - self._imported("-c", "pass")
        assert "mayacal.cli" in text
        assert not {name for name in text if name == "json" or name.startswith("json.")}
        assert "json" in self._imported("-m", "mayacal", "--format", "json", "convert", "9.9.16.0.0")
