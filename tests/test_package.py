"""The package's surface: the names ``import mayacal`` exports, and the README's library example."""

import contextlib
import io
import re
import types
from pathlib import Path

import mayacal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_only_what_its_callers_use():
    # The README's library example uses cycle_date, derive, PAPER, epsilon and search.
    # bench/worker.py's forward reads cycle_date, describe, expression_from_day, format_date,
    # parse and resolution as package attributes.  Everything else comes from its module.
    public = {name for name, value in vars(mayacal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"cycle_date", "derive", "PAPER", "epsilon", "search", "describe", "expression_from_day",
                      "format_date", "parse", "resolution"}


def test_readme_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    expected = [line.partition("# ")[2] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
