"""Hirota bilinear derivative operators on exact polynomials.

Both axes of D1^a D2^b act on monomials in closed form:

    D1^a D2^b (x^i1 y^j1).(x^i2 y^j2)
        = A(a, i1, i2) A(b, j1, j2) x^{i1+i2-a} y^{j1+j2-b},

    A(order, u, v) = sum_r (-1)^r C(order, r) falling(u, order-r) falling(v, r)

(``hirota_axis_coeff``).  By bilinearity D1^a D2^b f.g is one pass over the
pairs of terms of f and g, each pair written straight to its output
monomial.  The pass runs on the stored numerators of f and g (Gaussian
integers over one denominator each, ``ExactPoly.numerators``), so inside the
loop every coefficient is a Gaussian integer; the result's denominator is
the product of theirs and that of the form weights.  A(order, u, v) = 0
whenever u, v >= 0 and u + v < order, so no pair lands on a negative
exponent.  In the pass a monomial (i, j) is the int i*W + j, W above every
y-exponent sum, so an output key is the pair's key sum minus a per-order
offset a*W + b.  Real f and g (every catalog tau in x, y) take an inner
loop without imaginary parts.

Before the pass, each axis coefficient a call needs is laid out in rows:
per distinct order and distinct exponent of f on that axis, one list over
the distinct exponents of g there, so a pair reads its two coefficients by
position (order-0 rows are all ones).
The rows span only exponents that occur, so a sparse tau of high degree
costs no more than a dense one with as many terms.  They are filled from a
process-wide ``lru_cache`` on ``hirota_axis_coeff``: residuals of different
polynomials in one process ask for the same (order, u, v) again and again.

``hirota_d`` is one operator D1^a D2^b in either basis.  A BilinearForm is
a name and rational weights on Dx^a Dy^b, acting on (x, y) polynomials.  Its
``pairing(f, g)`` applies them to f.g; its residual applies them to tau.tau,
the exact polynomial whose vanishing says tau solves the bilinear PDE.
Every form has even total order, so the pair coefficient is symmetric: the
residual sums unordered pairs of tau terms, doubling the off-diagonal ones,
and residual(f + g) = residual(f) + 2 pairing(f, g) + residual(g).  The
classical shift-variable definition (expand f(x+h1, y+h2) g(x-h1, y-h2) in
powers of h) is reserved for the test-suite oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence, Tuple

from .polyring import Basis, ExactPoly, Rat, _reduced, _scaled, parse_rational


def _bilinear(terms, f: ExactPoly, g: ExactPoly, symmetric: bool) -> ExactPoly:
    """sum_k w_k D1^{a_k} D2^{b_k} f.g over the (w_k, a_k, b_k) of terms.

    One pass over term pairs: pair (i1, j1).(i2, j2) adds
    A(a, i1, i2) A(b, j1, j2) c1 c2 to monomial (i1+i2-a, j1+j2-b) of the
    accumulator of each order; the rational weights are applied at the end.
    The axis coefficients are read from rows: for each distinct order and
    distinct exponent u of f on that axis, the list of A(order, u, v) over
    the distinct exponents v of g on the same axis, so a pair costs two list
    indexings per order.  ``symmetric`` (g is f, every order of even total)
    visits each unordered pair once and doubles the off-diagonal ones.
    """
    den_f, fnum = f.numerators()
    den_g, gnum = g.numerators()
    W = max((j for _, j in fnum), default=0) + max((j for _, j in gnum), default=0) + 1
    # position of each distinct exponent of g on each axis
    px, py = {}, {}
    for i, j in gnum:
        px.setdefault(i, len(px))
        py.setdefault(j, len(py))
    gs = [(px[i], py[j], i * W + j, r, m) for (i, j), (r, m) in gnum.items()]
    fs = [(i, j, i * W + j, r, m) for (i, j), (r, m) in fnum.items()]
    # the distinct exponents of f on each axis, and the distinct orders
    fx, fy = (px, py) if symmetric else (
        dict.fromkeys(i for i, _ in fnum), dict.fromkeys(j for _, j in fnum))
    axis = hirota_axis_coeff
    # A(0, u, v) = 1
    xrows = {a: {u: [axis(a, u, v) for v in px] if a else [1] * len(px)
                 for u in fx}
             for a in dict.fromkeys(a for _, a, _ in terms)}
    yrows = {b: {u: [axis(b, u, v) for v in py] if b else [1] * len(py)
                 for u in fy}
             for b in dict.fromkeys(b for _, _, b in terms)}
    real = not any(m for _, m in fnum.values()) and not any(m for _, m in gnum.values())

    accs = [({}, {}) for _ in terms]
    for n, (i1, j1, k1, r1, m1) in enumerate(fs):
        ops = [(xrows[a][i1], yrows[b][j1], k1 - a * W - b, acc_re, acc_im)
               for (_, a, b), (acc_re, acc_im) in zip(terms, accs)]
        # off-diagonal pairs of a symmetric pass count twice
        d1, e1 = (2 * r1, 2 * m1) if symmetric else (r1, m1)
        if real:
            for pi, pj, k2, r2, _ in (gs[n:] if symmetric else gs):
                pr = (d1 if k2 != k1 else r1) * r2
                for xrow, yrow, base, acc_re, _ in ops:
                    k = xrow[pi]
                    if k:
                        k *= yrow[pj]
                    if k:
                        key = base + k2
                        acc_re[key] = acc_re.get(key, 0) + k * pr
            continue
        for pi, pj, k2, r2, m2 in (gs[n:] if symmetric else gs):
            c1, c2 = (d1, e1) if k2 != k1 else (r1, m1)
            pr = c1 * r2 - c2 * m2
            pm = c1 * m2 + c2 * r2
            for xrow, yrow, base, acc_re, acc_im in ops:
                k = xrow[pi]
                if k:
                    k *= yrow[pj]
                if k:
                    key = base + k2
                    acc_re[key] = acc_re.get(key, 0) + k * pr
                    acc_im[key] = acc_im.get(key, 0) + k * pm

    den_w, weights = _scaled(w for w, _, _ in terms)
    re, im = {}, {}
    for (w, _), (acc_re, acc_im) in zip(weights, accs):
        for key, r in acc_re.items():
            re[key] = re.get(key, 0) + w * r
        for key, m in acc_im.items():
            im[key] = im.get(key, 0) + w * m
    return _reduced({divmod(key, W): (r, im.get(key, 0)) for key, r in re.items()},
                    den_f * den_g * den_w, f.basis)


def hirota_d(a: int, b: int, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """D1^a D2^b f.g in the common basis of f and g, exactly."""
    if a < 0 or b < 0:
        raise ValueError("Hirota orders must be >= 0")
    f._require_same_basis(g, "apply a Hirota operator to")
    return _bilinear(((1, a, b),), f, g, symmetric=False)


def falling(a: int, s: int) -> int:
    """Falling factorial a (a-1) ... (a-s+1); defined for any integer a."""
    out = 1
    for t in range(s):
        out *= a - t
    return out


@lru_cache(maxsize=1 << 16)  # one exact-verify run fills under a thousand
def hirota_axis_coeff(order: int, a: int, c: int) -> int:
    """Coefficient of the single-axis Hirota action on a monomial pair.

    D^order applied to (v^a).(v^c) is this integer times v^{a+c-order};
    the integer is sum_r (-1)^r C(order, r) falling(a, order-r) falling(c, r).
    A nonnegative exponent bounds the sum, since falling(a, s) = 0 for
    s > a >= 0; so the coefficient is 0 when a, c >= 0 and a + c < order.
    """
    lo = max(order - a, 0) if a >= 0 else 0
    hi = min(c, order) if c >= 0 else order
    return sum((-1) ** r * comb(order, r) * falling(a, order - r) * falling(c, r)
               for r in range(lo, hi + 1))


def hirota_monomial_zz(a: int, b: int, c: int, d: int, p: int, q: int) -> Fraction:
    """Closed-form coefficient of Dz^p Dzbar^q (z^a zbar^b).(z^c zbar^d).

    The output monomial is z^{a+c-p} zbar^{b+d-q}.  The two axes factor, so
    the coefficient is the product of the single-axis sums.  Exponents may
    be any integers; the falling factorials extend the formula to the formal
    chains of the classifier.
    """
    return Fraction(hirota_axis_coeff(p, a, c) * hirota_axis_coeff(q, b, d))


def hirota_dx4_zz_coeff(b: int, d: int) -> int:
    """Coefficient of z^{a+c} zbar^{b+d-4} in Dx^4 (z^a zbar^b).(z^c zbar^d).

    Dx = Dz + Dzbar, so Dx^4 splits into C(4,p) Dz^p Dzbar^{4-p}; only the
    p = 0 component keeps the full z-exponent, and its value depends on the
    zbar exponents alone: hirota_axis_coeff(4, b, d), here expanded.
    """
    s, u = b + d, (b - d) ** 2
    return u * u + (8 - 6 * s) * u + 3 * s * (s - 2)


@dataclass(frozen=True)
class BilinearForm:
    """sum_k w_k Dx^{a_k} Dy^{b_k} on (x, y) polynomials, each weight w_k a
    nonzero int or Fraction and each total order a_k + b_k even."""

    name: str
    terms: Tuple[Tuple[Rat, int, int], ...]

    def __post_init__(self):
        for w, a, b in self.terms:
            if type(a) is not int or type(b) is not int or a < 0 or b < 0:
                raise ValueError(f"form {self.name!r}: Hirota orders must be "
                                 f"integers >= 0, got {a!r}, {b!r}")
            if type(w) not in (int, Fraction):
                raise TypeError(f"form {self.name!r}: weight {w!r} is not rational")
            if not w:
                raise ValueError(f"form {self.name!r}: zero weight on D^{a} D^{b}")
            if (a + b) % 2:
                raise ValueError(
                    f"form {self.name!r}: odd total order {a}+{b}; odd-order "
                    "Hirota operators annihilate tau.tau")

    def _require_xy(self, *polys: ExactPoly) -> None:
        for p in polys:
            if p.basis is not Basis.XY:
                p._require_same_basis(ExactPoly.zero(), "evaluate a bilinear form on")

    def residual(self, tau: ExactPoly) -> ExactPoly:
        """sum w_k Dx^{a_k} Dy^{b_k} tau.tau; empty means tau solves the form."""
        self._require_xy(tau)
        return _bilinear(self.terms, tau, tau, symmetric=True)

    def pairing(self, f: ExactPoly, g: ExactPoly) -> ExactPoly:
        """sum w_k Dx^{a_k} Dy^{b_k} f.g; symmetric in f and g, and
        residual(f + g) = residual(f) + 2 pairing(f, g) + residual(g)."""
        self._require_xy(f, g)
        return _bilinear(self.terms, f, g, symmetric=False)


#: Dx^4 - Dx^2 - Dy^2: bilinear Boussinesq with u = 2 dxx log tau.
STANDARD = BilinearForm("standard", ((1, 4, 0), (-1, 2, 0), (-1, 0, 2)))

#: Dx^4 - 3 Dx^2 + 3 Dy^2: scaling used by the degree-6 two-parameter family.
YANG = BilinearForm("yang", ((1, 4, 0), (-3, 2, 0), (3, 0, 2)))

#: 3 Dx^4 - 3 Dx^2 - Dy^2: scaling with q = (3/2) dxx log tau and (x^2+3y^2)
#: leading behavior; the normalization the pole-dynamics checks assume.
BNEW = BilinearForm("bnew", ((3, 4, 0), (-3, 2, 0), (-1, 0, 2)))

#: Dx^4 - 3 Dx^2 - 3 Dy^2: the form the printed degree-6 family satisfies.
YANG_ELLIPTIC = BilinearForm("yang-elliptic", ((1, 4, 0), (-3, 2, 0), (-3, 0, 2)))

PRESETS = {f.name: f for f in (STANDARD, YANG, YANG_ELLIPTIC, BNEW)}


def custom_form(spec: Sequence) -> BilinearForm:
    """Build a form on (x, y) from a non-empty list of (weight, a, b) triples;
    rational weights read by ``parse_rational``.  An empty form is refused."""
    if not (isinstance(spec, (list, tuple)) and spec and all(
            isinstance(t, (list, tuple)) and len(t) == 3 for t in spec)):
        raise ValueError("a custom form is a non-empty list of [weight, a, b] triples")
    terms = tuple((parse_rational(w), a, b) for w, a, b in spec)
    return BilinearForm("custom", terms)
