#!/usr/bin/env python3
"""Reproduce the full obstruction scan: J and sigma routes over n = 1..300.

Writes the CSV table and prints the zero sets with the triangular-law
verdict.  Exact arithmetic throughout; takes about 2 s at the default --max-n 300
(2 vCPUs, Python 3.11.7).
"""

import argparse
import sys
import time

from lumps import classify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=300)
    ap.add_argument("--out", default="scan_jn.csv")
    args = ap.parse_args()

    t0 = time.perf_counter()
    rows = classify.scan(args.max_n, routes=("J", "sigma"))
    elapsed = time.perf_counter() - t0
    classify.write_scan_csv(rows, args.out)

    j_zeros = [r.n for r in rows if r.J == 0]
    s_zeros = [r.n for r in rows if r.sigma_obstruction == 0]
    triangulars = [r.n for r in rows if r.triangular]
    errors = [r.error for r in rows if r.error]

    print(f"scanned n = 1..{args.max_n} in {elapsed:.1f}s -> {args.out}")
    print(f"J route zeros      ({len(j_zeros)}): {j_zeros}")
    print(f"sigma route zeros  ({len(s_zeros)}): {s_zeros}")
    print(f"triangular numbers ({len(triangulars)}): {triangulars}")
    law = j_zeros == triangulars and s_zeros == triangulars
    print(f"zero sets equal the triangulars on both routes: {law}")
    if errors:
        print(f"errors: {errors}")
    return 0 if law and not errors else 1


if __name__ == "__main__":
    sys.exit(main())
