#!/usr/bin/env python3
"""Energy quantization table: H(q) against the half-triangular multiples.

Computes the quadrature energy of each even catalog record in the
q = (3/2) dxx log tau normalization and compares H/H(ground state) with
k(k+1)/2.  Degree 2n = k(k+1) gives k = 1, 2, 3 for the three records.
"""

import argparse
import sys
import time

from lumps import catalog as cat

RECORDS = (("lump2-bnew", 1), ("pelin6-bnew", 2), ("pelin12-corrected-bnew", 3))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=float, default=200.0)
    ap.add_argument("--step", type=float, default=0.05)
    args = ap.parse_args()

    C = cat.catalog()
    base = None
    ok = True
    print(f"quadrature window [-R,R]^2, R = {args.half_width}, h = {args.step}")
    for rid, k in RECORDS:
        t0 = time.perf_counter()
        H = cat.energy(C[rid], half_width=args.half_width, step=args.step)
        dt = time.perf_counter() - t0
        if base is None:
            base = H
        ratio = H / base
        target = k * (k + 1) / 2
        dev = abs(ratio - target) / target
        ok = ok and dev <= 0.05
        print(f"{rid:24s} H = {H:12.6f}  H/H0 = {ratio:8.4f}  "
              f"k(k+1)/2 = {target:4.1f}  rel.dev = {dev:.3%}  ({dt:.2f}s)")
    print(f"\nall ratios within 5% of k(k+1)/2: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
