#!/usr/bin/env python3
"""Run every verification suite over the full q,r sample grid.

This is the long-form version of `sl2forms verify-all`: instead of one
(q, r) pair it sweeps the four-point grid {1, -1, 1/2, -3}² used by the
acceptance checks, printing one summary row per suite and pair.

Usage: python scripts/full_verification.py [--max N] [--jobs J]
"""

import argparse
import sys
from fractions import Fraction
from itertools import product

from sl2forms.cli import _SWEEP_MAX, _integer
from sl2forms.verify import verify_all

QR_GRID = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    highest = _SWEEP_MAX["verify-all"]
    parser.add_argument("--max", type=_integer(0, highest), default=12,
                        help=f"bound on m, n, at most {highest} (default 12)")
    parser.add_argument("--jobs", type=_integer(1), default=1, help="worker processes")
    args = parser.parse_args()

    all_ok = True
    for q, r in product(QR_GRID, repeat=2):
        suites = verify_all(args.max, q, r, jobs=args.jobs)
        ok = all(s.ok for s in suites)
        all_ok &= ok
        checks = sum(s.checks for s in suites)
        seconds = sum(s.seconds for s in suites)
        print(
            f"q={str(q):>4} r={str(r):>4}  "
            f"{checks:6d} checks  {seconds:6.2f}s  {'PASS' if ok else 'FAIL'}"
        )
        for s in suites:
            for failure in s.failures:
                print(f"    ✗ [{s.name}] {failure}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
