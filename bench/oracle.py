"""Independent oracle for the benchmark: imports nothing from mayacal.

Every expected value is recomputed here from first principles:

* cycle positions from the residue formulas in the ``cycles`` docstring
  (Tzolk'in ``(d + 160) % 260``, Haab' ``(d + 349) % 365``, Kawil
  ``(d + 3) % 819``, direction-color ``((d + 3) // 819) % 4``);
* proleptic Gregorian dates from ``datetime.date.fromordinal(jdn - 1721425)``,
  shifted by whole 400-year cycles (146097 days) outside years 1..9999;
* Julian dates from the 1461-day four-year cycle that starts at JDN 0
  (1 January 4713 BC, a leap year);
* factorizations by a product check plus deterministic Miller-Rabin;
* Calendar-Round window hits by an arithmetic count plus spot checks;
* the lunation search by exact rational arithmetic on the paper's formulas.

``check_cli`` returns one of ``"ok"``, ``"wrong"`` (a value or exit code
the oracle contradicts) or ``"failed"`` (the operation did not finish or did
not round-trip), with a short reason.
"""

from __future__ import annotations

import datetime
import json
import math
from fractions import Fraction

TZOLKIN_NAMES = (
    "Imix", "Ik", "Akbal", "Kan", "Chicchan", "Cimi", "Manik", "Lamat",
    "Muluc", "Oc", "Chuen", "Eb", "Ben", "Ix", "Men", "Cib", "Caban",
    "Etznab", "Cauac", "Ahau",
)
HAAB_MONTHS = (
    "Pop", "Uo", "Zip", "Zotz", "Tzec", "Xul", "Yaxkin", "Mol", "Chen",
    "Yax", "Zac", "Ceh", "Mac", "Kankin", "Muan", "Pax", "Kayab", "Cumku",
    "Uayeb",
)
DIRECTION_COLORS = ("East-Red", "South-Yellow", "West-Black", "North-White")
MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)

ERA = 1872000
CALENDAR_ROUND = 18980
GMT = 584283
#: The super-number: LCM of the nine canonical synodic periods.
SUPER_NUMBER = math.lcm(116, 584, 365, 780, 399, 378, 177, 178, 148)
SYNODIC_MONTH = Fraction(29530588, 1000000)
#: ``mayacal verify`` check totals for the paper's equations.
VERIFY_TOTALS = {"all": 92, "eq1": 13}

OK, WRONG, FAILED = "ok", "wrong", "failed"


# --- cycles -----------------------------------------------------------------

def tzolkin(d: int) -> tuple[int, int]:
    """(number 1..13, name index 0..19) of day ``d``."""
    ordinal = ((d + 160) % 260 - 1) % 260
    return ordinal % 13 + 1, ordinal % 20


def haab(d: int) -> tuple[int, int]:
    """(day 0..19, month index 0..18) of day ``d``."""
    ordinal = ((d + 349) % 365 - 1) % 365
    return ordinal % 20, ordinal // 20


def long_count(d: int) -> str:
    digits = []
    for radix in (20, 18, 20, 20):
        d, r = divmod(d, radix)
        digits.append(r)
    return ".".join(str(x) for x in [d, *reversed(digits)])


def tzolkin_str(d: int) -> str:
    number, name = tzolkin(d)
    return f"{number} {TZOLKIN_NAMES[name]}"


def haab_str(d: int) -> str:
    day, month = haab(d)
    return f"{day} {HAAB_MONTHS[month]}"


def calendar_round(d: int) -> str:
    return f"{tzolkin_str(d)} {haab_str(d)}"


def kawil(d: int) -> tuple[int, int]:
    return (d + 3) % 819, ((d + 3) // 819) % 4


def cycle_fields(d: int) -> dict:
    """The CLI's single-day cycle fields, as strings."""
    count, color = kawil(d)
    return {
        "day": str(d),
        "long_count": long_count(d),
        "tzolkin": tzolkin_str(d),
        "haab": haab_str(d),
        "kawil": str(count),
        "direction_color_name": DIRECTION_COLORS[color],
    }


def plain_date(d: int) -> str:
    return f"{long_count(d)} {calendar_round(d)}"


def annotated_date(d: int) -> str:
    """Display form with the documented era-completion sugar."""
    if d % ERA:
        return plain_date(d)
    k = d // ERA
    lead = "13(0).0.0.0.0" if k <= 1 else f"{k}×13(0).0.0.0.0"
    return f"{lead} {calendar_round(d)}"


def window_hits(base: int, lo: int, hi: int) -> tuple[int, int | None, int | None]:
    """(count, first, last) of days congruent to ``base`` mod 18980 in [lo, hi]."""
    first = lo + (base - lo) % CALENDAR_ROUND
    if first > hi:
        return 0, None, None
    last = hi - (hi - base) % CALENDAR_ROUND
    return (last - first) // CALENDAR_ROUND + 1, first, last


# --- civil dates ----------------------------------------------------------------

_ORDINAL_1 = 1721426  # JDN of 1 January 1 (proleptic Gregorian)
_GREGORIAN_CYCLE = 146097  # days in 400 Gregorian years
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def gregorian(jdn: int) -> tuple[int, int, int]:
    """Astronomical (year, month, day), via datetime within one 400-year cycle."""
    k = (jdn - _ORDINAL_1) // _GREGORIAN_CYCLE
    date = datetime.date.fromordinal(jdn - k * _GREGORIAN_CYCLE - (_ORDINAL_1 - 1))
    return date.year + 400 * k, date.month, date.day


def julian(jdn: int) -> tuple[int, int, int]:
    """Astronomical (year, month, day) in the proleptic Julian calendar."""
    cycles, rest = divmod(jdn, 1461)
    year = -4712 + 4 * cycles
    if rest >= 366:
        extra, rest = divmod(rest - 366, 365)
        year += 1 + extra
    leap = year % 4 == 0
    for month, length in enumerate(_MONTH_DAYS, start=1):
        length += month == 2 and leap
        if rest < length:
            return year, month, rest + 1
        rest -= length
    raise AssertionError("day of year out of range")


def civil_str(ymd: tuple[int, int, int]) -> str:
    year, month, day = ymd
    shown = f"{1 - year} BC" if year <= 0 else str(year)
    return f"{day} {MONTH_NAMES[month - 1]} {shown}"


def civil_fields(d: int) -> dict:
    jdn = d + GMT
    return {
        "jdn": str(jdn),
        "julian": civil_str(julian(jdn)),
        "gregorian": civil_str(gregorian(jdn)),
    }


# --- numbers -------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first 12 prime bases are exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def round_half_away(f: Fraction) -> int:
    n, d = f.numerator, f.denominator
    return (2 * n + d) // (2 * d) if n >= 0 else -((2 * -n + d) // (2 * d))


def lunar_search(max_lunations: int) -> dict:
    """Expected summary of ``lunar search --max M``, from the paper's formulas.

    T_i = Rd(i * 29.530588); a candidate is kept when LCM(260, T_i) < 18980,
    which no T_i >= 18980 (every i >= 643) can meet.
    """
    kept = []
    for i in range(1, min(max_lunations, 642) + 1):
        days = round_half_away(i * SYNODIC_MONTH)
        if math.lcm(260, days) < CALENDAR_ROUND:
            n = SUPER_NUMBER * i
            error = Fraction(abs(n - round_half_away(Fraction(n, days)) * days), i)
            kept.append((days, i, error))
    zero = sorted((t, l) for t, l, e in kept if e == 0)
    nonzero = [(t, l, e) for t, l, e in kept if e > 0]
    best = None
    if nonzero:
        floor = min(e for _, _, e in nonzero)
        best = min(
            ((t, l) for t, l, e in nonzero if e == floor),
            key=lambda tl: abs(Fraction(tl[0], tl[1]) - SYNODIC_MONTH),
        )
    return {"scanned": max_lunations, "kept": len(kept), "zero": zero, "best": best}


# --- reading CLI output -----------------------------------------------------------

def read_text(out: str) -> dict:
    """The text envelope as nested dicts and lists of dicts, every leaf a string."""
    root: dict = {}
    section = None  # dict or list under the current top-level key
    item = None  # current list entry
    for line in out.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        if not body or body.startswith("[ok]") or body.startswith("[FAIL]"):
            continue
        is_entry = body.startswith("- ")
        key, _, value = (body[2:] if is_entry else body).partition(": ")
        key = key.rstrip(":")
        if indent == 0:
            if value or not body.endswith(":"):
                root[key] = value
                section = None
            else:
                section = root[key] = {}
            continue
        if section is None:
            continue
        if is_entry:
            if isinstance(section, dict):
                section = root[list(root)[-1]] = []
            item = {key: value}
            section.append(item)
        elif isinstance(section, list) and item is not None and indent >= 4:
            item[key] = value
        elif isinstance(section, dict):
            section[key] = value
    return root


def _strings(value):
    if isinstance(value, dict):
        return {str(k): _strings(v) for k, v in value.items()}
    if isinstance(value, list):
        if value and all(isinstance(v, dict) for v in value):
            return [_strings(v) for v in value]
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def read_output(out: str, fmt: str) -> dict:
    """Envelope fields (status plus payload) as strings, from either rendering."""
    if fmt == "json":
        env = json.loads(out)
        return {"status": env["status"], **_strings(env["payload"])}
    return read_text(out)


# --- checking CLI calls --------------------------------------------------------------

def _entries(view: dict, key: str) -> list:
    """A list-of-dicts field; empty lists render as the string "[]"."""
    value = view.get(key)
    return value if isinstance(value, list) else []


def _mismatch(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: expected {value!r}, got {got.get(key)!r}"
    return None


def _check_day(view: dict, d: int) -> str | None:
    want = {**cycle_fields(d), **civil_fields(d)}
    if d % ERA == 0:
        k = d // ERA
        want["long_count_annotated"] = "13(0).0.0.0.0" if k <= 1 else f"{k}×13(0).0.0.0.0"
    return _mismatch(view, want)


def _check_window(view: dict, spec: dict) -> str | None:
    lo, hi = spec["window"]
    count, first, last = window_hits(spec["base"], lo, hi)
    if view.get("count") != str(count):
        return f"count: expected {count}, got {view.get('count')!r}"
    matches = _entries(view, "matches")
    if len(matches) != count:
        return f"{len(matches)} matches listed for count {count}"
    if not count:
        return None
    days = [int(m["day"]) for m in matches]
    if days[0] != first or days[-1] != last:
        return f"first/last hit {days[0]}/{days[-1]}, expected {first}/{last}"
    if any(b - a != CALENDAR_ROUND for a, b in zip(days, days[1:])):
        return "hits are not one Calendar Round apart"
    for m in (matches[0], matches[len(matches) // 2], matches[-1]):
        d = int(m["day"])
        want = {
            "long_count": long_count(d),
            "calendar_round": calendar_round(d),
            "kawil": str(kawil(d)[0]),
            "gregorian": civil_fields(d)["gregorian"],
        }
        problem = _mismatch(m, want)
        if problem:
            return f"hit {d}: {problem}"
    return None


def _check_factor(view: dict, n: int) -> str | None:
    product, last = 1, 1
    for part in view.get("factorization", "").split(" × "):
        prime, _, mult = part.partition("^")
        p, m = int(prime), int(mult or 1)
        if p <= last or not is_prime(p):
            return f"factor {p} is not an increasing prime"
        product *= p**m
        last = p
    return None if product == n else f"factors multiply to {product}, not {n}"


def _check_search(view: dict, max_lunations: int) -> str | None:
    want = lunar_search(max_lunations)
    if view.get("scanned") != str(want["scanned"]):
        return f"scanned {view.get('scanned')!r}, expected {want['scanned']}"
    if view.get("within_calendar_round") != str(want["kept"]):
        return f"kept {view.get('within_calendar_round')!r}, expected {want['kept']}"
    zero = sorted((int(c["days"]), int(c["lunations"])) for c in _entries(view, "zero_error"))
    if zero != want["zero"]:
        return f"zero-error set {zero}, expected {want['zero']}"
    best = view.get("best")
    got = (int(best["days"]), int(best["lunations"])) if isinstance(best, dict) else None
    return None if got == want["best"] else f"best {got}, expected {want['best']}"


def _check_table(view: dict) -> str | None:
    rows = _entries(view, "rows")
    if not rows:
        return "no rows"
    for row in rows:
        d = int(row["day"])
        problem = _mismatch(row, {
            "calendar_round": calendar_round(d),
            "gregorian": civil_fields(d)["gregorian"],
        })
        if problem:
            return f"row {row.get('label')}: {problem}"
    return None


def _check_lunar_table(view: dict) -> str | None:
    rows = _entries(view, "rows")
    days = [int(r["days"]) for r in rows]
    lunations = [int(r["lunations"]) for r in rows]
    want = [round_half_away(Fraction(t) / Fraction(2953, 100)) for t in days]
    if days != [11960, 4784, 4606, 4429, 4400, 2392] or lunations != want:
        return f"rows {list(zip(days, lunations))}"
    return None


def check_cli(spec: dict, rc: int, out: str, capped: bool) -> tuple[str, str]:
    """Verdict on one CLI call described by ``spec`` (see ``inputs``)."""
    if capped:
        return FAILED, "cap"
    kind = spec["kind"]
    want_rc = 2 if kind == "usage" else 0
    if rc != want_rc:
        return WRONG, f"exit {rc}, expected {want_rc}"
    try:
        view = read_output(out, spec["fmt"])
    except (ValueError, KeyError) as exc:
        return WRONG, f"unreadable output: {exc}"
    want_status = "error" if kind == "usage" else "ok"
    if view.get("status") != want_status:
        return WRONG, f"status {view.get('status')!r}"
    try:
        if kind == "day":
            problem = _check_day(view, spec["day"])
        elif kind == "window":
            problem = _check_window(view, spec)
        elif kind == "verify":
            problem = _mismatch(view, {
                "checks_total": str(VERIFY_TOTALS[spec["scope"]]), "checks_failed": "0"})
        elif kind == "factor":
            problem = _check_factor(view, spec["n"])
        elif kind == "search":
            problem = _check_search(view, spec["max"])
        elif kind == "age":
            problem = _mismatch(view, {"age": str(Fraction(spec["lc"] - spec["lc0"]) % spec["ratio"])})
        elif kind == "table":
            problem = _check_table(view)
        elif kind == "lunar_table":
            problem = _check_lunar_table(view)
        else:  # usage
            problem = None
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable field: {exc!r}"
    return (WRONG, problem) if problem else (OK, "")


# --- checking the day-batch path -------------------------------------------------------

def check_day_result(d: int, r: dict) -> tuple[str, str]:
    """Verdict on one forward conversion and round trip from the worker."""
    if "error" in r:
        return WRONG, f"day {d}: {r['error']}"
    count, color = kawil(d)
    jdn = d + GMT
    want = {
        "tzolkin": list(tzolkin(d)),
        "haab": list(haab(d)),
        "kawil": [count, color],
        "long_count": long_count(d),
        "jdn": jdn,
        "julian": list(julian(jdn)),
        "gregorian": list(gregorian(jdn)),
        "plain": plain_date(d),
        "annotated": annotated_date(d),
    }
    for key, value in want.items():
        if r.get(key) != value:
            return WRONG, f"day {d} {key}: expected {value!r}, got {r.get(key)!r}"
    for style in ("plain", "annotated"):
        back = r[f"{style}_back"]
        if back != [d]:
            return FAILED, f"day {d} {style} round trip: {back!r}"
    return OK, ""
