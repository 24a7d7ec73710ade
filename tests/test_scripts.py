"""The timing script runs end to end: each of its calls once, untimed."""

import importlib.util
import timeit
from pathlib import Path

from mayacal.notation import parse

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "time_notation.py"


def test_time_notation_runs_every_call(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("time_notation", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def repeat(call, number, repeat):
        calls.append(call())
        return [1e-6]

    monkeypatch.setattr(timeit.Timer, "autorange", lambda self: (1, 0.0))
    monkeypatch.setattr(timeit, "repeat", repeat)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(calls) == len(set(line[:29] for line in lines))
    assert all(line.endswith(" us") for line in lines)
    names = [line[:29].rstrip() for line in lines]
    assert "parse, non-canonical digits" in names
    assert calls[names.index("parse, non-canonical digits")] == calls[names.index("parse")] == parse(script.NON_CANONICAL)
