"""Independent brute-force oracles kept deliberately separate from the library.

The Hirota oracle uses the shift-variable definition: expand
f(x+h1, y+h2) * g(x-h1, y-h2) as a polynomial in four variables and read
off the (h1^a h2^b) coefficient times a! b!.  It never touches the
library's term-pair closed form, its axis coefficients or its
integer-scaled coefficient path.

The product oracle multiplies two polynomials term by term on a plain dict
of QQi coefficients, with no common-denominator scaling.
"""

from fractions import Fraction
from math import comb, factorial

from lumps.polyring import ExactPoly, QQi

# four-variable sparse polynomial: (ix, iy, ih1, ih2) -> QQi


def _shift_expand(poly: ExactPoly, sign: int) -> dict:
    """f(x + s*h1, y + s*h2) as a 4-variable dict, s = +/-1."""
    out = {}
    for (i, j), c in poly.terms.items():
        for p in range(i + 1):
            for q in range(j + 1):
                w = comb(i, p) * comb(j, q) * sign ** (p + q)
                key = (i - p, j - q, p, q)
                cur = out.get(key, QQi())
                out[key] = cur + c * Fraction(w)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _mul4(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(key, QQi())
            out[key] = cur + ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def hirota_oracle(a: int, b: int, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """D1^a D2^b f.g via the shift-variable definition."""
    assert f.basis is g.basis
    product = _mul4(_shift_expand(f, +1), _shift_expand(g, -1))
    terms = {}
    for (ix, iy, ih1, ih2), c in product.items():
        if ih1 == a and ih2 == b:
            terms[(ix, iy)] = terms.get((ix, iy), QQi()) + c
    scale = Fraction(factorial(a) * factorial(b))
    return ExactPoly({k: v * scale for k, v in terms.items()}, f.basis)


def product_oracle(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """f * g by the schoolbook sum over term pairs, in QQi arithmetic."""
    assert f.basis is g.basis
    out = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, QQi()) + c1 * c2
    return ExactPoly(out, f.basis)
