import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mayacal import cli
from mayacal.checks import Check, Rows
from mayacal.cli import OutputEnvelope, main
from mayacal.correlation import GMT_CORRELATION, CorrelationConstant
from mayacal.lunar import search

GOLDEN = Path(__file__).parent / "golden"


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

    def test_usage_error_from_argparse(self, run):
        with pytest.raises(SystemExit) as exc:
            run("no-such-command")
        assert exc.value.code == 2

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

    def test_mismatch_exits_one(self, run, monkeypatch):
        failing = cli.OutputEnvelope.result(
            "verify", {}, [Check.eq("sabotaged", 1, 2)]
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
        bad = OutputEnvelope.result("x", {}, [Check.eq("c", 1, 2)])
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
        envelope = cli.cmd_convert(args, CorrelationConstant(jdn_at_creation=GMT_CORRELATION, label="GMT"))
        assert envelope.payload["count"] == 3
        assert made == []
        assert "day: 37960" in envelope.to_text()
        assert made == [0, 18980, 37960]


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

    def test_unknown_scope(self, run):
        with pytest.raises(SystemExit) as exc:
            run("verify", "eq9")
        assert exc.value.code == 2


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
