"""One closed form of a day, in ``cycles``.

``cycle_date``, ``expression_from_day`` and ``describe`` build their records
with ``new_record`` (``tuple.__new__``), unchecked, so the validating builders
are their oracle, compared value by value and type by type.  The Tzolk'in and
Haab' records come from two tables by their zero-based ordinals, which never
hold more than a cycle's length of entries.  The window rows
write the closed form out with the constants of ``cycles``; no other module
spells an epoch or a place value as a literal, which would keep its old value
if the model's changed.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mayacal
from mayacal import cycles
from mayacal.correlation import CivilDate, CorrelationConstant, _civil_fields, describe
from mayacal.cycles import (
    CALENDAR_ROUND,
    ERA,
    HAAB_DAYS,
    TZOLKIN_DAYS,
    CycleDate,
    cycle_date,
    haab_from_pos,
    long_count_from_day,
    tzolkin_from_pos,
)
from mayacal.notation import expression_from_day

GRAND_CYCLE = 956592000

#: The epochs and place values of the cycles, and the zero-based epochs of the window rows.
CYCLE_LITERALS = {159, 160, 348, 349, 819, 3276, 144000, 7200}


def built(day: int) -> CycleDate:
    """A day's cycles, each built through its validating constructor."""
    return CycleDate(
        day=day,
        tzolkin=tzolkin_from_pos((day + 160) % 260),
        haab=haab_from_pos((day + 349) % 365),
        kawil=(day + 3) % 819,
        direction_color=(day + 3) // 819 % 4,
        long_count=long_count_from_day(day),
    )


def assert_same_records(made: tuple, expected: tuple) -> None:
    # Records equal any tuple of the same values, so their types are compared too.
    assert made == expected
    assert [type(v) for v in made] == [type(v) for v in expected]


@given(st.integers(0, 10**15))
@example(0)
@example(ERA)
@example(GRAND_CYCLE)
@example(CALENDAR_ROUND - 1)
@example(CALENDAR_ROUND * 50400 - 1)
def test_cycle_date_is_the_validated_records(day):
    expected = built(day)
    assert_same_records(cycle_date(day), expected)
    expr = expression_from_day(day)
    assert_same_records(expr, (expected.long_count, expected.tzolkin, expected.haab, None))


@given(st.lists(st.integers(0, 10**15), max_size=20))
@example(list(range(CALENDAR_ROUND)))  # every ordinal of both cycles
def test_record_tables_hold_one_record_per_ordinal(days):
    for day in days:
        cycle_date(day)
        expression_from_day(day)
    for table, length, from_pos in ((cycles._TZOLKINS, TZOLKIN_DAYS, tzolkin_from_pos),
                                    (cycles._HAABS, HAAB_DAYS, haab_from_pos)):
        assert len(table) <= length
        for ordinal, record in table.items():
            assert type(ordinal) is int and 0 <= ordinal < length
            assert_same_records((record,), (from_pos((ordinal + 1) % length),))


@given(st.integers(0, 10**15), st.integers(1, 10**9))
@example(0, 584283)
@example(ERA, 584283)
@example(GRAND_CYCLE, 1)
@example(CALENDAR_ROUND - 1, 10**9)
def test_describe_is_the_validated_civil_dates(day, correlation):
    report = describe(day, CorrelationConstant(correlation))
    jdn = day + correlation
    assert report.jdn == jdn
    for calendar in ("julian", "gregorian"):
        assert_same_records(getattr(report, calendar), CivilDate(*_civil_fields(jdn, calendar)[:3], calendar))


def test_negative_day_is_refused():
    for call in (cycle_date, expression_from_day, describe):
        with pytest.raises(ValueError, match="day must be non-negative, got -1"):
            call(-1)


def cycle_literals(tree: ast.AST) -> list[str]:
    """Each integer constant of ``tree`` in :data:`CYCLE_LITERALS`, as 'line: value'."""
    return [f"{node.lineno}: {node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value in CYCLE_LITERALS]


def test_walk_finds_a_spelled_out_epoch():
    assert cycle_literals(ast.parse("tzolkin = (day + 159) % 260")) == ["1: 159"]
    assert sorted(cycle_literals(ast.parse("lc = f'{day // 144000}.{day // 7200 % 20}'; kawil = (day + 3) % 819"))) == [
        "1: 144000", "1: 7200", "1: 819"]
    assert cycle_literals(ast.parse("tzolkin = (day + TZOLKIN_EPOCH - 1) % TZOLKIN_DAYS")) == []


@pytest.mark.parametrize("name", ["cli.py", "notation.py", "correlation.py"])
def test_no_cycle_literals_outside_cycles(name):
    source = (Path(mayacal.__file__).parent / name).read_text(encoding="utf-8")
    assert cycle_literals(ast.parse(source)) == []
