"""Semantics every record keeps: construction, equality, hashing, repr and immutability.

All eighteen records are named tuples.  ``Report`` and ``OutputEnvelope``
each hold their own ``checks`` list, which makes them the two mutable,
unhashable ones.  Each entry of ``RECORDS`` names the fields in their
constructor order, so a renamed or reordered field fails here.
"""

from fractions import Fraction

import pytest

from mayacal.arith import Factorization
from mayacal.checks import Check, Report, jsonable
from mayacal.cli import OutputEnvelope
from mayacal.correlation import GMT_CORRELATION, CivilDate, CorrelationConstant, CorrelationReport
from mayacal.cycles import CycleDate, HaabDate, LongCount, TzolkinDate, cycle_date
from mayacal.lunar import LunarCandidate, SearchResult
from mayacal.notation import DateExpression, Resolution
from mayacal.supernumber import PAPER, CulturalDate, Derived, Model

LONG_ROUND = cycle_date(1366560)
PALENQUE = LunarCandidate(days=2392, lunations=81, ratio=Fraction(2392, 81), error=Fraction(104, 81), lcm260=11960)
CHECK = Check(name="N", expected=1, computed=1, passed=True)

RECORDS = {
    Factorization: {"factors": ((2, 3), (3, 1))},
    TzolkinDate: {"number": 4, "name_index": 19},
    HaabDate: {"day": 8, "month_index": 17},
    LongCount: {"baktun": 9, "katun": 9, "tun": 16, "winal": 0, "kin": 0},
    CycleDate: {
        "day": 1366560,
        "tzolkin": LONG_ROUND.tzolkin,
        "haab": LONG_ROUND.haab,
        "kawil": LONG_ROUND.kawil,
        "direction_color": LONG_ROUND.direction_color,
        "long_count": LONG_ROUND.long_count,
    },
    CorrelationConstant: {"jdn_at_creation": GMT_CORRELATION},
    CivilDate: {"year": 2012, "month": 12, "day": 21, "calendar": "gregorian"},
    CorrelationReport: {
        "jdn": GMT_CORRELATION,
        "julian": CivilDate(-3113, 9, 6, "julian"),
        "gregorian": CivilDate(-3113, 8, 11, "gregorian"),
    },
    DateExpression: {"long_count": LongCount(9, 9, 16, 0, 0), "tzolkin": TzolkinDate(4, 19),
                     "haab": HaabDate(8, 17), "kawil": (588, 1)},
    Resolution: {"days": range(0, 18981, 18980), "inconsistent": False},
    LunarCandidate: {"days": 2392, "lunations": 81, "ratio": Fraction(2392, 81),
                     "error": Fraction(104, 81), "lcm260": 11960},
    SearchResult: {"candidates": (PALENQUE,), "filtered": (PALENQUE,), "zero_error": (),
                   "minimal_nonzero": (PALENQUE,), "best": PALENQUE, "pareto": (PALENQUE,)},
    Model: PAPER._asdict(),
    Derived: {"model": PAPER, "n": 72, "n_factors": Factorization(((2, 3), (3, 2))), "tun_haab_kawil": 2391480,
              "aeon": 136656000, "grand_cycle": 956592000, "anchor": 0, "shift": 4680, "kawil_residue": 0},
    CulturalDate: {"label": "LR", "meaning": "Long Round", "day": 1366560, "lcc_display": "9.9.16.0.0",
                   "cycle": LONG_ROUND},
    Check: {"name": "N", "expected": 1, "computed": 1, "passed": True},
    Report: {"title": "super-number", "checks": [CHECK]},
    OutputEnvelope: {"command": "verify", "status": "ok", "payload": {"scope": "eq1"}, "checks": [CHECK]},
}
MUTABLE = (Report, OutputEnvelope)
IMMUTABLE = [record for record in RECORDS if record not in MUTABLE]


def ids(records):
    return [record.__name__ for record in records]


@pytest.mark.parametrize("record", RECORDS, ids=ids(RECORDS))
def test_keyword_and_positional_construction_agree(record):
    fields = RECORDS[record]
    by_keyword, by_position = record(**fields), record(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_keyword, name) == getattr(by_position, name) == value


@pytest.mark.parametrize("record", RECORDS, ids=ids(RECORDS))
def test_equal_fields_equal_records(record):
    a, b = record(**RECORDS[record]), record(**RECORDS[record])
    assert a == b and not a != b
    if record in MUTABLE:
        with pytest.raises(TypeError):  # mutable, so unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record", RECORDS, ids=ids(RECORDS))
def test_repr_names_every_field(record):
    fields = RECORDS[record]
    value = record(**fields)
    shown = ", ".join(f"{name}={item!r}" for name, item in fields.items())
    assert repr(value) == f"{record.__name__}({shown})"
    if record.__str__ in (object.__str__, tuple.__str__):  # no __str__ of its own
        assert str(value) == repr(value)


@pytest.mark.parametrize("record", IMMUTABLE, ids=ids(IMMUTABLE))
def test_fields_cannot_be_assigned(record):
    value = record(**RECORDS[record])
    for name, item in RECORDS[record].items():
        with pytest.raises(AttributeError):
            setattr(value, name, item)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("record", MUTABLE, ids=ids(MUTABLE))
def test_mutable_records_get_a_fresh_checks_list(record):
    required = {name: item for name, item in RECORDS[record].items() if name != "checks"}
    a, b = record(**required), record(**required)
    assert a.checks == [] and a.checks is not b.checks
    a.checks.append(CHECK)
    assert b.checks == []
    with pytest.raises(AttributeError):  # __slots__: no attribute outside the fields
        a.extra = 1


def test_defaults():
    assert CorrelationConstant() == CorrelationConstant(GMT_CORRELATION)
    assert DateExpression(haab=HaabDate(8, 17)) == DateExpression(None, None, HaabDate(8, 17), None)


def test_validation_runs_however_a_record_is_built():
    with pytest.raises(ValueError, match="Tzolk'in number must be 1..13, got 14"):
        TzolkinDate(number=14, name_index=0)
    with pytest.raises(ValueError, match="kin must be <= 19, got 20"):
        LongCount(9, 9, 16, 0, 20)
    with pytest.raises(ValueError, match="correlation constant must be positive, got 0"):
        CorrelationConstant(jdn_at_creation=0)
    with pytest.raises(ValueError, match="Haab' month index must be 0..18, got 19"):
        HaabDate(0, 19)
    with pytest.raises(ValueError, match="calendar must be 'julian' or 'gregorian', got 'mayan'"):
        CivilDate(2000, 1, 1, "mayan")
    with pytest.raises(ValueError, match="direction-color must be 0..3, got 4"):
        DateExpression(kawil=(0, 4))
    with pytest.raises(TypeError, match="Tzolk'in number must be an int, got 1.0"):
        TzolkinDate(1.0, 0)
    with pytest.raises(TypeError, match="Tzolk'in number must be an int, got True"):
        TzolkinDate(True, 0)
    with pytest.raises(TypeError, match="Haab' month index must be an int, got 1.0"):
        HaabDate(0, 1.0)
    with pytest.raises(TypeError, match="baktun must be an int, got 9.5"):
        LongCount(9.5, 0, 0, 0, 0)
    with pytest.raises(TypeError, match=r"kin must be an int, got Fraction\(0, 1\)"):
        LongCount(9, 9, 16, 0, Fraction(0))


# A field change each validating record refuses, with its constructor's message.
BAD_REPLACEMENTS = {
    Factorization: ({"factors": ((4, 1),)}, "4 is not prime"),
    TzolkinDate: ({"number": 99}, "Tzolk'in number must be 1..13, got 99"),
    HaabDate: ({"month_index": 18}, "Haab' day 8 out of range 0..4 for Uayeb"),
    LongCount: ({"kin": 20}, "kin must be <= 19, got 20"),
    CivilDate: ({"month": 2, "day": 30}, "day 30 invalid for 2012-02 (gregorian)"),
    CorrelationConstant: ({"jdn_at_creation": 0}, "correlation constant must be positive, got 0"),
    DateExpression: ({"kawil": (819, 0)}, "Kawil count must be 0..818, got 819"),
}


@pytest.mark.parametrize("record", BAD_REPLACEMENTS, ids=ids(BAD_REPLACEMENTS))
def test_replace_runs_the_constructors_checks(record):
    value = record(**RECORDS[record])
    changes, message = BAD_REPLACEMENTS[record]
    with pytest.raises(ValueError) as exc:
        value._replace(**changes)
    assert str(exc.value) == message
    name, item = next(iter(RECORDS[record].items()))
    assert value._replace(**{name: item}) == value and type(value._replace()) is record
    with pytest.raises(ValueError, match="Got unexpected field names: \\['nope'\\]"):
        value._replace(nope=1)


def test_make_builds_without_checks():
    # _make is for values already checked or in range by construction.
    assert TzolkinDate._make((99, 19)) == (99, 19)


def test_records_are_tuples():
    # They unpack, order and compare equal to plain tuples of the same values.
    number, name_index = TzolkinDate(4, 19)
    assert (number, name_index) == (4, 19) == TzolkinDate(4, 19)
    assert LongCount(9, 9, 16, 0, 0) < LongCount(9, 10, 0, 0, 0)
    assert sorted([HaabDate(3, 2), HaabDate(1, 2)]) == [(1, 2), (3, 2)]


def test_jsonable_renders_a_record_as_its_str():
    assert jsonable(LongCount(9, 9, 16, 0, 0)) == "9.9.16.0.0"
    assert jsonable({"at": TzolkinDate(4, 19), "pair": (1, [2, (3,)])}) == {"at": "4 Ahau", "pair": [1, [2, [3]]]}
