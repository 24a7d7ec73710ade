#!/usr/bin/env python3
"""Dump the lunation search, one line per scanned equation.

Usage: lunar_search.py [--max N] [--all]

By default prints only the equations commensurate with the Tzolk'in inside
one Calendar Round (the filter the model applies); --all prints every
built line, up to the first T of at least one Calendar Round (no later
equation can pass the filter).  Zero-error equations are starred, the
best nonzero one is marked as the winner.
"""

import argparse

from mayacal.arith import decimal_str
from mayacal.lunar import PUBLISHED_MAX_LUNATIONS, search
from mayacal.notation import read_int
from mayacal.supernumber import PAPER, derive


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", default=str(PUBLISHED_MAX_LUNATIONS), help="largest lunation count")
    parser.add_argument("--all", action="store_true", help="include filtered-out equations")
    args = parser.parse_args(argv)
    try:  # as `mayacal lunar search` reads the flag
        max_lunations = read_int(args.max, "--max")
        result = search(derive(PAPER).n, max_lunations=max_lunations)
    except ValueError as exc:
        parser.error(str(exc))
    shown = result.candidates if args.all else result.filtered
    kept = set(id(c) for c in result.filtered)
    best = result.best

    for c in shown:
        flags = []
        if id(c) not in kept:
            flags.append("cut")
        if c.error == 0:
            flags.append("*")
        if best is not None and c is best:
            flags.append("best")
        print(
            f"i={c.lunations:>3}  T={c.days:>5}  S={decimal_str(c.ratio, 6)}"
            f"  eps={decimal_str(c.error, 4):>8}  LCM260={c.lcm260:>7}  {' '.join(flags)}"
        )

    print(f"\nscanned {max_lunations}, kept {len(result.filtered)}")
    print("zero-error:", ", ".join(c.ratio_str for c in result.zero_error))
    if best is not None:
        print(f"best nonzero: {best.ratio_str} = {decimal_str(best.ratio, 6)} (eps {decimal_str(best.error, 2)})")


if __name__ == "__main__":
    main()
