"""No class in ``src/mayacal`` writes its own ``__repr__`` or ``__eq__``: every
record is a named tuple, whose generated ones name each field and compare by value."""

import ast
from pathlib import Path

import pytest

import mayacal

WRITTEN_BY_THE_TUPLE = {"__repr__", "__eq__"}


def hand_written(tree: ast.AST) -> list[str]:
    """Each method of ``WRITTEN_BY_THE_TUPLE`` that a class in ``tree`` defines, as 'line: Class.method'."""
    return [f"{item.lineno}: {node.name}.{item.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in WRITTEN_BY_THE_TUPLE]


def test_walk_finds_each_method():
    source = "class A:\n    def __repr__(self): ...\n    def __eq__(self, other): ...\n    def ok(self): ...\n"
    assert hand_written(ast.parse(source)) == ["2: A.__repr__", "3: A.__eq__"]
    assert hand_written(ast.parse("def __eq__(a, b): ...\nclass B(tuple):\n    __slots__ = ()\n")) == []


@pytest.mark.parametrize("path", sorted(Path(mayacal.__file__).parent.rglob("*.py")), ids=lambda p: p.name)
def test_no_class_writes_repr_or_eq(path):
    assert hand_written(ast.parse(path.read_text(encoding="utf-8"))) == []
