import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_closed_form import assert_same_records

from mayacal.cycles import ERA, HAAB_MONTHS, TZOLKIN_NAMES, HaabDate, LongCount, TzolkinDate, cycle_date
from mayacal.notation import (
    MAX_DIGITS,
    DateExpression,
    DateParseError,
    era_display,
    expression_from_day,
    format_date,
    parse,
    resolution,
)

PARSE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "parse_errors.json").read_text(encoding="utf-8"))


class TestParseLongCount:
    def test_long_round(self):
        expr = parse("9.9.16.0.0")
        assert expr.long_count == LongCount(9, 9, 16, 0, 0)
        assert expr.tzolkin is None and expr.haab is None

    def test_era_parenthetical(self):
        expr = parse("13(0).0.0.0.0 4 Ahau 8 Cumku")  # creation: the Calendar Round of day 0
        assert expr.long_count == LongCount(0, 0, 0, 0, 0)
        assert expr.tzolkin == TzolkinDate(4, 19)
        assert expr.haab == HaabDate(8, 17)
        assert parse("13(0).0.0.0.0 4 Ahau 3 Kankin").long_count == LongCount(13, 0, 0, 0, 0)

    @pytest.mark.parametrize("v", [0, 1, 7200, 18979, 18980, 143999])  # what the four lower digits can write
    def test_era_parenthetical_takes_the_day_its_round_agrees_with(self, v):
        lower = "{}.{}.{}.{}".format(*cycle_date(v).long_count[1:])
        for day in (v, ERA + v):
            expr = parse(f"13(0).{lower} {cycle_date(day).calendar_round}")
            assert expr.long_count.days == day
            assert resolution(expr, (0, 2 * ERA)).days == range(day, day + 1)

    def test_only_era_parenthetical(self):
        assert parse("13(0).0.0.0.0").long_count == LongCount(13, 0, 0, 0, 0)
        for bad in ("7(99).0.0.0.0", "13(5).0.0.0.0"):
            with pytest.raises(DateParseError) as exc:
                parse(" " + bad)
            assert exc.value.position == 1

    def test_era_multiple(self):
        assert parse("365×13(0).0.0.0.0").long_count == LongCount(4745, 0, 0, 0, 0)
        expr = parse("2×13(0).0.0.0.0 4 Ahau 18 Chen")
        assert expr.long_count == LongCount(26, 0, 0, 0, 0)
        assert tuple(resolution(expr, (0, 4 * ERA)).days) == (2 * ERA,)

    def test_era_multiple_only_as_printed(self):
        for bad in ("0×13(0).0.0.0.0", "1×13(0).0.0.0.0", "2x13(0).0.0.0.0", "2×13.0.0.0.0",
                    "2×7(0).0.0.0.0", "2×13(5).0.0.0.0", "×13(0).0.0.0.0"):
            with pytest.raises(DateParseError) as exc:
                parse(" " + bad)
            assert exc.value.position == 1

    def test_non_decimal_digit(self):
        # "²" passes str.isdigit() but not int(); it must fail with an offset.
        for text, position in (("9.².16.0.0", 2), ("² Ahau 8 Cumku", 0), ("4 Ahau ² Cumku", 7)):
            with pytest.raises(DateParseError) as exc:
                parse(text)
            assert exc.value.position == position

    def test_number_past_digit_limit(self):
        # int() refuses more than 4300 digits by default; the parser names the part and its offset.
        big = "1" * 5000
        for text, what, position in (
            (f"9.{big}.16.0.0", "long count digit", 2),
            (f"{big}.0.0.0.0", "baktun", 0),
            (f" {big}×13(0).0.0.0.0", "era multiple", 1),
            (f"{big} Ahau 8 Cumku", "Tzolk'in number", 0),
            (f"4 Ahau {big} Cumku", "Haab' day", 7),
        ):
            with pytest.raises(DateParseError) as exc:
                parse(text)
            assert str(exc.value) == f"{what} is too long: 5000 digits (at offset {position})"
            assert exc.value.position == position

    def test_number_at_digit_bound(self):
        # MAX_DIGITS digits read; one more is too long, though int() would convert it.
        at, past = "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)
        assert parse(f"{at}.0.0.0.0").long_count.baktun == int(at)
        assert parse(f"{at}×13(0).0.0.0.0").long_count.baktun == 13 * int(at)
        for text, what, position in ((f"{past}.0.0.0.0", "baktun", 0), (f"{past}×13(0).0.0.0.0", "era multiple", 0),
                                     (f"9.9.{past}.0.0", "long count digit", 4)):
            with pytest.raises(DateParseError) as exc:
                parse(text)
            assert str(exc.value) == f"{what} is too long: {MAX_DIGITS + 1} digits (at offset {position})"

    def test_whitespace_tolerant(self):
        expr = parse("  9.9.16.0.0   4   Ahau   8   Cumku  ")
        assert expr.long_count == LongCount(9, 9, 16, 0, 0)
        assert expr.haab == HaabDate(8, 17)

    def test_wrong_component_count(self):
        with pytest.raises(DateParseError):
            parse("9.9.16.0")
        with pytest.raises(DateParseError):
            parse("9.9.16.0.0.0")

    def test_empty_component(self):
        with pytest.raises(DateParseError):
            parse("9..16.0.0")

    def test_winal_range(self):
        parse("0.0.0.17.0")
        with pytest.raises(DateParseError) as exc:
            parse("0.0.0.18.0")
        assert "winal" in str(exc.value)
        assert exc.value.position == 6

    def test_kin_katun_tun_ranges(self):
        for bad in ("0.0.0.0.20", "0.20.0.0.0", "0.0.20.0.0"):
            with pytest.raises(DateParseError):
                parse(bad)


class TestParseCalendarRound:
    def test_plain(self):
        expr = parse("4 Ahau 3 Kankin")
        assert expr.long_count is None
        assert expr.tzolkin == TzolkinDate(4, 19)
        assert expr.haab == HaabDate(3, 13)

    def test_case_insensitive(self):
        expr = parse("4 AHAU 8 cumku")
        assert expr.tzolkin == TzolkinDate(4, 19)
        assert expr.haab == HaabDate(8, 17)

    def test_unknown_tzolkin_name(self):
        with pytest.raises(DateParseError) as exc:
            parse("4 Ajaw 8 Cumku")
        assert "Tzolk'in" in str(exc.value)
        assert exc.value.position == 2

    def test_unknown_haab_month(self):
        with pytest.raises(DateParseError) as exc:
            parse("4 Ahau 8 Kumku")
        assert exc.value.position == 9

    def test_number_out_of_range(self):
        with pytest.raises(DateParseError):
            parse("14 Ahau 8 Cumku")
        with pytest.raises(DateParseError):
            parse("0 Ahau 8 Cumku")

    def test_uayeb_day_range(self):
        parse("4 Ahau 4 Uayeb")
        with pytest.raises(DateParseError):
            parse("4 Ahau 5 Uayeb")

    def test_haab_day_range(self):
        with pytest.raises(DateParseError):
            parse("4 Ahau 20 Cumku")

    def test_incomplete(self):
        with pytest.raises(DateParseError):
            parse("4 Ahau")
        with pytest.raises(DateParseError):
            parse("4 Ahau 8")

    def test_trailing_junk(self):
        with pytest.raises(DateParseError):
            parse("4 Ahau 8 Cumku extra")

    def test_empty(self):
        with pytest.raises(DateParseError):
            parse("   ")


class TestFormat:
    def test_plain_long_count(self):
        expr = DateExpression(long_count=LongCount(9, 9, 16, 0, 0))
        assert format_date(expr) == "9.9.16.0.0"

    def test_era_completion_annotated(self):
        expr = expression_from_day(1872000)
        assert format_date(expr, "annotated") == "13(0).0.0.0.0 4 Ahau 3 Kankin"
        assert format_date(expr, "plain") == "13.0.0.0.0 4 Ahau 3 Kankin"

    def test_creation_day(self):
        expr = expression_from_day(0)
        assert format_date(expr, "plain") == "0.0.0.0.0 4 Ahau 8 Cumku"
        assert format_date(expr, "annotated") == "13(0).0.0.0.0 4 Ahau 8 Cumku"

    def test_calendar_round_only(self):
        expr = DateExpression(tzolkin=TzolkinDate(4, 19), haab=HaabDate(3, 13))
        assert format_date(expr) == "4 Ahau 3 Kankin"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_date(expression_from_day(0), "fancy")

    def test_era_display_multiples(self):
        assert era_display(0) == "13(0).0.0.0.0"
        assert era_display(1872000) == "13(0).0.0.0.0"
        assert era_display(683280000) == "365×13(0).0.0.0.0"
        assert era_display(956592000) == "511×13(0).0.0.0.0"
        with pytest.raises(ValueError):
            era_display(5)
        for day in (-1872000, -3744000):
            with pytest.raises(ValueError, match=f"day must be non-negative, got {day}"):
                era_display(day)


class TestResolve:
    def test_creation_in_first_round(self):
        expr = parse("4 Ahau 8 Cumku")
        assert tuple(resolution(expr, (0, 18979)).days) == (0,)

    def test_long_count_unique(self):
        expr = parse("11.17.5.0.0")
        assert tuple(resolution(expr, (0, 2 * 10**6)).days) == (1708200,)

    def test_calendar_round_recurrence(self):
        expr = parse("4 Ahau 8 Cumku")
        hits = resolution(expr, (0, 1872000)).days
        assert len(hits) == 1872000 // 18980 + 1 == 99
        assert hits[0] == 0
        assert all(b - a == 18980 for a, b in zip(hits, hits[1:]))
        # Every hit really carries the positions.
        for day in random.Random(9).sample(hits, 5):
            cd = cycle_date(day)
            assert cd.calendar_round == "4 Ahau 8 Cumku"

    def test_window_excludes_base(self):
        expr = parse("4 Ahau 3 Kankin")
        assert tuple(resolution(expr, (1860000, 1872000)).days) == (1872000,)

    def test_unreachable_pair_is_empty(self):
        expr = parse("1 Imix 1 Pop")
        assert tuple(resolution(expr, (0, 18979)).days) == ()

    def test_inconsistent_combined_flagged(self):
        # Plain digits, or an era completion whose Round agrees with neither day: baktun 13.
        for text in ("13.0.0.0.0 4 Ahau 8 Cumku", "13(0).0.0.0.0 1 Imix 0 Pop"):
            expr = parse(text)
            assert expr.long_count == LongCount(13, 0, 0, 0, 0)
            found = resolution(expr, (0, 2 * 10**6))
            assert tuple(found.days) == ()
            assert found.inconsistent

    def test_consistent_combined(self):
        expr = parse("13.0.0.0.0 4 Ahau 3 Kankin")
        found = resolution(expr, (0, 2 * 10**6))
        assert tuple(found.days) == (1872000,)
        assert not found.inconsistent

    def test_long_count_outside_window(self):
        expr = parse("9.9.16.0.0")
        found = resolution(expr, (0, 100))
        assert tuple(found.days) == ()
        assert not found.inconsistent

    def test_tzolkin_only(self):
        expr = DateExpression(tzolkin=TzolkinDate(4, 19))
        hits = resolution(expr, (0, 1000)).days
        assert tuple(hits) == (0, 260, 520, 780)

    def test_kawil_only(self):
        expr = DateExpression(kawil=(3, 0))
        hits = resolution(expr, (0, 10000)).days
        assert tuple(hits) == (0, 3276, 6552, 9828)
        for day in hits:
            cd = cycle_date(day)
            assert (cd.kawil, cd.direction_color) == (3, 0)

    def test_calendar_round_with_kawil(self):
        cd = cycle_date(1708200)
        expr = DateExpression(tzolkin=cd.tzolkin, haab=cd.haab, kawil=(588, 1))
        hits = resolution(expr, (0, 2 * 10**6)).days
        assert 1708200 in hits
        # Kawil narrows the 18980-day recurrence to the 1195740-day one.
        assert all(b - a == 1195740 for a, b in zip(hits, hits[1:]))

    def test_wide_window_counted_by_arithmetic(self):
        days = resolution(parse("4 Ahau 8 Cumku"), (0, 10**13)).days
        assert len(days) == 10**13 // 18980 + 1
        assert (days[1], days[-1]) == (18980, 10**13 - 10**13 % 18980)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            resolution(parse("4 Ahau 8 Cumku"), (-1, 10))
        with pytest.raises(ValueError):
            resolution(parse("4 Ahau 8 Cumku"), (10, 5))


def test_round_trip_sampled():
    rng = random.Random(584283)
    for _ in range(10**4):
        day = rng.randrange(0, 1872001)
        expr = expression_from_day(day)
        assert parse(format_date(expr)) == expr


def test_resolution_consistency_sampled():
    rng = random.Random(260)
    for _ in range(300):
        day = rng.randrange(0, 1872001)
        expr = parse(format_date(expression_from_day(day)))
        lo = max(0, day - 10000)
        assert tuple(resolution(expr, (lo, day + 10000)).days) == (day,)


@given(st.integers(min_value=0, max_value=10 * 1872000))
def test_round_trip_property(day):
    expr = expression_from_day(day)
    assert parse(format_date(expr)) == expr


@given(
    st.one_of(
        st.integers(min_value=0, max_value=10 * ERA),
        st.integers(min_value=0, max_value=511).map(lambda k: k * ERA),
    )
)
@example(0)  # 13(0).0.0.0.0 4 Ahau 8 Cumku
@example(ERA)  # 13(0).0.0.0.0 4 Ahau 3 Kankin
@example(365 * ERA)  # 365×13(0).0.0.0.0 4 Ahau 8 Cumku
def test_annotated_round_trip_resolves(day):
    text = format_date(expression_from_day(day), "annotated")
    assert tuple(resolution(parse(text), (day, day)).days) == (day,)


#: The decimal digits in ASCII, Arabic-Indic and full-width forms: str.isdecimal and int read each.
DIGIT_SCRIPTS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


@st.composite
def spelled(draw, n):
    """``n`` with up to two leading zeros, each digit drawn from any of :data:`DIGIT_SCRIPTS`."""
    text = "0" * draw(st.integers(0, 2)) + str(n)
    return "".join(draw(st.sampled_from(DIGIT_SCRIPTS))[int(c)] for c in text)


@given(st.integers(min_value=0, max_value=10**15), st.data())
def test_non_canonical_digits_parse_as_canonical(day, data):
    # Digits outside the canonical "0".."19" leave the table lookups for the isdecimal/int path.
    expr = expression_from_day(day)
    long_count, (number, name_index), (haab_day, month_index), _ = expr
    text = " ".join([".".join(data.draw(spelled(d)) for d in long_count), data.draw(spelled(number)),
                     TZOLKIN_NAMES[name_index], data.draw(spelled(haab_day)), HAAB_MONTHS[month_index]])
    assert_same_records(parse(text), expr)


@pytest.mark.parametrize("text", ["09.09.16.00.00 04 Ahau 08 Cumku", "٩.٩.١٦.٠.٠ ٤ Ahau ٨ Cumku",
                                  "９.９.１６.０.０ ４ Ahau ８ Cumku", "٠٩.９.1٦.00.０ ٤ Ahau ０8 Cumku"])
def test_non_canonical_spellings_of_the_long_round(text):
    assert_same_records(parse(text), parse("9.9.16.0.0 4 Ahau 8 Cumku"))


def brute_resolution(expr, lo, hi):
    # Oracle: every day of the window whose cycle_date carries each present component.
    days = []
    for day in range(lo, hi + 1):
        cd = cycle_date(day)
        if (
            expr.long_count in (None, cd.long_count)
            and expr.tzolkin in (None, cd.tzolkin)
            and expr.haab in (None, cd.haab)
            and expr.kawil in (None, (cd.kawil, cd.direction_color))
        ):
            days.append(day)
    return tuple(days)


@st.composite
def expressions_and_windows(draw):
    # Each component is absent, taken from the anchor day, or from an unrelated day.
    anchor = draw(st.integers(min_value=0, max_value=3 * 10**6))
    sources = (None, cycle_date(anchor), cycle_date(draw(st.integers(min_value=0, max_value=3 * 10**6))))
    lc, t, h, k = (draw(st.sampled_from(sources)) for _ in range(4))
    if lc is t is h is k is None:
        t = sources[1]
    expr = DateExpression(
        long_count=lc and lc.long_count,
        tzolkin=t and t.tzolkin,
        haab=h and h.haab,
        kawil=k and (k.kawil, k.direction_color),
    )
    width = draw(st.integers(min_value=0, max_value=2 * 10**5))
    lo = max(0, anchor - draw(st.integers(min_value=0, max_value=width + 100)))
    return expr, (lo, lo + width)


@settings(max_examples=25, deadline=None)
@given(expressions_and_windows())
def test_resolution_matches_brute_force(case):
    expr, (lo, hi) = case
    found = resolution(expr, (lo, hi))
    expected = brute_resolution(expr, lo, hi)
    assert tuple(found.days) == expected
    given_day_in_window = expr.long_count is not None and lo <= expr.long_count.days <= hi
    assert found.inconsistent == (given_day_in_window and not expected)


@st.composite
def long_count_expressions_and_windows(draw):
    # The Long Count is always there; every other component is absent, taken
    # from its own day or from an unrelated day.  Windows are narrow, some of
    # width 0, and some leave the Long Count's day out.
    anchor = draw(st.integers(min_value=0, max_value=3 * 10**6))
    sources = (None, cycle_date(anchor), cycle_date(draw(st.integers(min_value=0, max_value=3 * 10**6))))
    t, h, k = (draw(st.sampled_from(sources)) for _ in range(3))
    expr = DateExpression(
        long_count=sources[1].long_count,
        tzolkin=t and t.tzolkin,
        haab=h and h.haab,
        kawil=k and (k.kawil, k.direction_color),
    )
    width = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=300)))
    lo = draw(st.integers(min_value=max(0, anchor - width - 30), max_value=anchor + 30))
    return expr, (lo, lo + width)


@settings(max_examples=60, deadline=None)
@given(long_count_expressions_and_windows())
def test_long_count_resolution_matches_brute_force(case):
    expr, (lo, hi) = case
    found = resolution(expr, (lo, hi))
    expected = brute_resolution(expr, lo, hi)
    assert tuple(found.days) == expected
    assert found.inconsistent == (lo <= expr.long_count.days <= hi and not expected)


@given(st.text(max_size=40))
def test_parser_never_crashes(text):
    try:
        parse(text)
    except DateParseError:
        pass


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_parser_rejects_exactly_out_of_range_digits(winal, kin):
    text = f"1.2.3.{winal}.{kin}"
    if winal <= 17 and kin <= 19:
        assert parse(text).long_count == LongCount(1, 2, 3, winal, kin)
    else:
        with pytest.raises(DateParseError):
            parse(text)


@given(st.integers(min_value=0, max_value=25))
def test_parser_rejects_uayeb_overflow(day):
    text = f"4 Ahau {day} Uayeb"
    if day <= 4:
        assert parse(text).haab == HaabDate(day, 18)
    else:
        with pytest.raises(DateParseError):
            parse(text)


WHITESPACE = (" ", "\t", "\u00a0", "\x1c", "\u3000")


@given(
    st.integers(min_value=0, max_value=10**12),
    st.lists(st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3), min_size=4, max_size=4),
    st.tuples(*[st.text(st.sampled_from(WHITESPACE), max_size=3)] * 2),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(("x", "?", "+", "\u00b2")),
)
def test_error_offset_is_the_bad_tokens_start(day, gaps, ends, bad, prefix):
    # A prefix that is neither a digit nor whitespace spoils any of the five
    # tokens of a full date at its first character.
    tokens = format_date(expression_from_day(day)).split()
    tokens[bad] = prefix + tokens[bad]
    text, starts = ends[0], []
    for gap, token in zip(["", *gaps], tokens):
        text += gap
        starts.append(len(text))
        text += token
    text += ends[1]
    with pytest.raises(DateParseError) as exc:
        parse(text)
    assert exc.value.position == starts[bad]


def test_expression_requires_component():
    with pytest.raises(ValueError):
        DateExpression()


def assert_checked(expr):
    # Each record passes its own validating constructor, so building it unchecked admitted nothing out of range.
    assert DateExpression(*expr) == expr
    for record in expr[:3]:
        if record is not None:
            assert type(record)(*record) == record


def test_parse_errors_golden():
    # Every message and offset, and every accepted expression, exactly as pinned.
    for case in PARSE_GOLDEN["rejected"]:
        with pytest.raises(DateParseError) as exc:
            parse(case["text"])
        assert (str(exc.value), exc.value.position) == (case["message"], case["position"]), case["text"][:80]
    for case in PARSE_GOLDEN["accepted"]:
        expr = parse(case["text"])
        assert repr(expr) == case["expression"], case["text"][:80]
        assert_checked(expr)


@given(st.integers(min_value=0, max_value=10**12))
def test_expression_from_day_records_are_checked(day):
    assert_checked(expression_from_day(day))


@given(
    st.one_of(st.none(), st.tuples(*[st.integers(min_value=0, max_value=25)] * 5)),
    st.one_of(st.none(), st.tuples(
        st.integers(min_value=0, max_value=15), st.sampled_from(TZOLKIN_NAMES),
        st.integers(min_value=0, max_value=22), st.sampled_from(HAAB_MONTHS),
    )),
)
def test_parsed_records_are_checked(digits, calendar_round):
    # Near-valid strings: parse either refuses them or returns records in range.
    parts = [".".join(map(str, digits))] if digits else []
    parts += [" ".join(map(str, calendar_round))] if calendar_round else []
    try:
        expr = parse(" ".join(parts))
    except DateParseError:
        return
    assert_checked(expr)


@given(
    st.one_of(
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=0, max_value=10**15 // ERA).map(lambda k: k * ERA),
    ),
    st.sampled_from(("plain", "annotated")),
)
@example(0, "annotated")
@example(ERA, "annotated")
@example(365 * ERA, "annotated")
def test_formatted_day_resolves_to_itself(day, style):
    # What the formatter prints, the parser reads back as the same records, and they name the day alone.
    expr = expression_from_day(day)
    back = parse(format_date(expr, style))
    assert_same_records(back, expr)
    assert resolution(back, (day, day)) == (range(day, day + 1), False)
