"""No floating point in the model: every value is an int or a Fraction, and
``Fraction(1, 2) == 0.5``, so a float that reached an identity check would pass it."""

import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import mayacal
from mayacal.checks import Report
from mayacal.cycles import LongCount

EXACT_MATH = {"lcm", "gcd", "isqrt", "prod"}


def inexact(tree: ast.AST) -> list[str]:
    """Each node of ``tree`` that reaches for floating point, as 'line: source'."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree) if (
        isinstance(node, ast.Constant) and type(node.value) in (float, complex)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex", "round")
        or isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "decimal" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (
            node.module == "decimal" or node.module == "math" and {a.name for a in node.names} - EXACT_MATH)
        or isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math" and node.attr not in EXACT_MATH
    )]


def test_walk_finds_each_form():
    source = "import decimal\nfrom math import sqrt\nx = 0.5 + 1j + float(2) + complex(1) + round(3) + math.pi\n"
    assert len(inexact(ast.parse(source))) == 8
    assert inexact(ast.parse("from math import gcd\nx = math.lcm(2, 3) + math.isqrt(9) + Fraction(1, 2)")) == []


@pytest.mark.parametrize("path", sorted(Path(mayacal.__file__).parent.rglob("*.py")), ids=lambda p: p.name)
def test_source_is_exact(path):
    assert inexact(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "inexact_value",
    [0.5, 1j, Decimal("0.5"), (1, 0.5), [Fraction(1, 2), [0.5]], {"k": 0.5}, {0.5: "v"},
     LongCount._make((9, 9, 16, 0, 0.0))],  # _make skips the constructor, which refuses a float
    ids=["float", "complex", "decimal", "tuple", "nested-list", "dict-value", "dict-key", "record"],
)
def test_checks_refuse_inexact_values(inexact_value):
    report = Report("exact")
    for expected, computed in ((inexact_value, Fraction(1, 2)), (Fraction(1, 2), inexact_value)):
        with pytest.raises(TypeError, match="check 'half' compares an inexact value"):
            report.check("half", expected, computed)
    assert report.checks == []
    exact = ((1, Fraction(1, 2)), [True, "0.5"], {"k": (2, None)}, LongCount(9, 9, 16, 0, 0))
    assert report.check("exact", exact, exact).passed
