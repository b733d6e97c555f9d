#!/usr/bin/env python3
"""Uniqueness certificates for even solutions at triangular degrees.

For each n = k(k+1)/2 up to the bound, computes every gamma_q
(q = 1..floor(n/2)) exactly and reports whether all are nonzero.
The n = 15 row reproduces the seven printed fractions.
"""

import argparse
import sys
import time

from lumps import classify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=14,
                    help="largest k; n = k(k+1)/2 (default 14 -> n = 105)")
    ap.add_argument("--show-gammas", action="store_true",
                    help="print every gamma value, not just the verdict")
    args = ap.parse_args()

    all_ok = True
    for k in range(1, args.max_k + 1):
        n = k * (k + 1) // 2
        t0 = time.perf_counter()
        cert = classify.uniqueness_certificate(n)
        dt = time.perf_counter() - t0
        all_ok = all_ok and cert.all_nonzero
        print(f"n = {n:4d} (k = {k:2d}): {len(cert.gammas):3d} gammas, "
              f"all nonzero: {cert.all_nonzero}  ({dt:.2f}s)")
        if args.show_gammas:
            for q, v in sorted(cert.gammas.items()):
                print(f"    gamma_{q} = {v}")
    print(f"\nunique even solution certified for all k <= {args.max_k}: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
