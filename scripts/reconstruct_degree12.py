#!/usr/bin/env python3
"""Exhibit for the degree-12 transcription erratum.

The degree-12 polynomial, exactly as printed, fails the bilinear form
Dx^4 - Dx^2 - Dy^2 with a residual supported on 27 monomials.  This script
re-derives the unique single-coefficient correction from scratch: for each
symmetric coefficient slot it solves the quadratic equation the bilinear
form imposes on a correction there, from one pairing and one residual of
the slot monomial.  Each root is screened by its polarization sum, which
costs a few polynomial additions; the full residual is computed only for a
root that passes, so the reported fix is still checked globally.
The n = 6 gamma certificate (all gamma_q nonzero) makes the corrected
polynomial THE even solution, so the located coefficient is the erratum.
"""

import math
import sys
from fractions import Fraction

from lumps import catalog as cat
from lumps import classify
from lumps.hirota import STANDARD
from lumps.polyring import grlex, poly_zz


def slot_monomial(a, b):
    """z^a zbar^b + z^b zbar^a in x, y: the correction of one symmetric slot."""
    return poly_zz({(a, b): 1, (b, a): 1}).to_xy()


def slot_roots(printed_zz, tau0, R0):
    """(slot, E, lin, quad, eps) for every rational root eps of every slot.

    tau0 is the printed polynomial in x, y and R0 its residual.  Every form
    has even total order, so with E the symmetric slot monomial the residual
    of tau0 + eps E is the polarization sum R0 + eps lin + eps^2 quad, where
    lin = 2 B(tau0, E), B the form's pairing, and quad = R(E).  The roots
    zero the sum's coefficient at the smallest monomial of lin.
    """
    slots = sorted({(a, b) for (a, b) in printed_zz.terms if a >= b}, key=grlex)

    for slot in slots:
        E = slot_monomial(*slot)
        quad = STANDARD.residual(E)
        lin = STANDARD.pairing(tau0, E).scale(2)
        key = min(lin.numerators()[1], default=None)
        if key is None:
            continue
        q, l, r = quad.coeff(*key).re, lin.coeff(*key).re, R0.coeff(*key).re
        roots = []
        if q == 0:
            if l != 0:
                roots = [-r / l]
        else:
            disc = l * l - 4 * q * r
            if disc >= 0:
                num, den = disc.numerator, disc.denominator
                rn, rd = math.isqrt(num), math.isqrt(den)
                if rn * rn == num and rd * rd == den:
                    s = Fraction(rn, rd)
                    roots = [(-l + s) / (2 * q), (-l - s) / (2 * q)]
        for eps in roots:
            yield slot, E, lin, quad, eps


def corrected_candidates(printed_zz, tau0, R0):
    """(slot, epsilon) pairs whose symmetric correction zeroes the residual.

    A nonzero root is screened by its polarization sum, a few additions;
    one that passes is checked with the full residual of tau0 + eps E.
    """
    return [(slot, eps) for slot, E, lin, quad, eps in slot_roots(printed_zz, tau0, R0)
            if eps != 0
            and (R0 + lin.scale(eps) + quad.scale(eps * eps)).is_zero()
            and STANDARD.residual(tau0 + E.scale(eps)).is_zero()]


def main() -> int:
    printed_zz = poly_zz(cat._pelin12_zz_terms(corrected=False))
    tau0 = printed_zz.to_xy()
    res = STANDARD.residual(tau0)
    print(f"printed degree-12 polynomial: residual has {res.num_terms()} "
          f"monomials under Dx^4 - Dx^2 - Dy^2")

    cert = classify.uniqueness_certificate(6)
    print(f"n = 6 gamma certificate: {dict(cert.gammas)} "
          f"(all nonzero: {cert.all_nonzero})")

    fixes = corrected_candidates(printed_zz, tau0, res)
    for (a, b), eps in fixes:
        old = printed_zz.coeff(a, b).re
        print(f"single-coefficient fix: z^{a} zbar^{b} (+ mirror): "
              f"{old} -> {old + eps}   (shift {eps})")
    if len(fixes) != 1:
        print(f"expected exactly one fix, found {len(fixes)}")
        return 1

    slot, eps = fixes[0]
    fixed = tau0 + slot_monomial(*slot).scale(eps)
    agree = cat.catalog()["pelin12-corrected"].tau() == fixed
    print(f"matches the shipped pelin12-corrected record: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
