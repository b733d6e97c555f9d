"""Hirota bilinear derivative operators on exact polynomials.

Both axes of D1^a D2^b act on monomials in closed form:

    D1^a D2^b (x^i1 y^j1).(x^i2 y^j2)
        = A(a, i1, i2) A(b, j1, j2) x^{i1+i2-a} y^{j1+j2-b},

    A(order, u, v) = sum_r (-1)^r C(order, r) falling(u, order-r) falling(v, r)

(``hirota_axis_coeff``).  By bilinearity D1^a D2^b f.g is one pass over the
pairs of terms of f and g, each pair written straight to its output
monomial.  The pass runs on integer-scaled coefficients: f and g are brought
to common denominators, so inside the loop every coefficient is a Gaussian
integer, and the result is divided back once.  A(order, u, v) = 0 whenever
u + v < order, so no pair lands on a negative exponent.

A BilinearForm is a weighted list of such operators applied to tau.tau; its
residual is the exact polynomial whose vanishing says tau solves the
corresponding bilinear PDE.  Every form has even total order, so the pair
coefficient is symmetric and the residual sums unordered pairs of tau terms,
doubling the off-diagonal ones.  The classical shift-variable definition
(expand f(x+h1, y+h2) g(x-h1, y-h2) in powers of h) is reserved for the
test-suite oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from .polyring import ONE, Basis, ExactPoly, QQi, _from_scaled, _scaled


def _bilinear(terms, f: ExactPoly, g: ExactPoly, symmetric: bool) -> ExactPoly:
    """sum_k w_k D1^{a_k} D2^{b_k} f.g over the (w_k, a_k, b_k) of terms.

    One pass over term pairs: pair (i1, j1).(i2, j2) adds
    A(a, i1, i2) A(b, j1, j2) c1 c2 to monomial (i1+i2-a, j1+j2-b) of the
    accumulator of each order; the weights are applied once at the end.
    ``symmetric`` (g is f, every order of even total) visits each unordered
    pair once and doubles the off-diagonal ones.
    """
    den_f, fs = _scaled(f._terms.values())
    den_g, gs = (den_f, fs) if symmetric else _scaled(g._terms.values())
    fs = list(zip(f._terms, fs))
    gs = fs if symmetric else list(zip(g._terms, gs))
    axis: dict = {}  # (order, u, v) -> A(order, u, v), memoised for this call

    def coeff(order, u, v):
        key = (order, u, v)
        c = axis.get(key)
        if c is None:
            c = axis[key] = hirota_axis_coeff(order, u, v)
        return c

    accs = [({}, {}) for _ in terms]
    for n, ((i1, j1), (r1, m1)) in enumerate(fs):
        for (i2, j2), (r2, m2) in (gs[n:] if symmetric else gs):
            pr = r1 * r2 - m1 * m2
            pm = r1 * m2 + m1 * r2
            if symmetric and (i2, j2) != (i1, j1):
                pr, pm = 2 * pr, 2 * pm
            si, sj = i1 + i2, j1 + j2
            for (_, a, b), (acc_re, acc_im) in zip(terms, accs):
                k = coeff(a, i1, i2)
                if k:
                    k *= coeff(b, j1, j2)
                if k:
                    key = (si - a, sj - b)
                    acc_re[key] = acc_re.get(key, 0) + k * pr
                    acc_im[key] = acc_im.get(key, 0) + k * pm

    den_w, weights = _scaled(w for w, _, _ in terms)
    re, im = {}, {}
    for (wr, wm), (acc_re, acc_im) in zip(weights, accs):
        for key, r in acc_re.items():
            m = acc_im[key]
            re[key] = re.get(key, 0) + wr * r - wm * m
            im[key] = im.get(key, 0) + wr * m + wm * r
    return _from_scaled(re, im, den_f * den_g * den_w, f.basis)


def hirota_d(a: int, b: int, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """D1^a D2^b f.g in the common basis of f and g, exactly."""
    if a < 0 or b < 0:
        raise ValueError("Hirota orders must be >= 0")
    if f.basis is not g.basis:
        # reuse the polyring error path for a uniform message
        f._require_same_basis(g, "apply a Hirota operator to")
    return _bilinear(((ONE, a, b),), f, g, symmetric=False)


def falling(a: int, s: int) -> int:
    """Falling factorial a (a-1) ... (a-s+1); defined for any integer a."""
    out = 1
    for t in range(s):
        out *= a - t
    return out


def hirota_axis_coeff(order: int, a: int, c: int) -> int:
    """Coefficient of the single-axis Hirota action on a monomial pair.

    D^order applied to (v^a).(v^c) is this integer times v^{a+c-order};
    the integer is sum_r (-1)^r C(order, r) falling(a, order-r) falling(c, r).
    """
    return sum((-1) ** r * comb(order, r) * falling(a, order - r) * falling(c, r)
               for r in range(order + 1))


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
    """Weighted combination sum_k w_k D1^{a_k} D2^{b_k} acting on tau.tau."""

    name: str
    terms: Tuple[Tuple[QQi, int, int], ...]
    basis: Basis = Basis.XY

    def __post_init__(self):
        normalized = []
        for w, a, b in self.terms:
            wq = QQi.of(w)
            if wq.is_zero():
                raise ValueError(f"form {self.name!r}: zero weight on D^{a} D^{b}")
            if (a + b) % 2:
                raise ValueError(
                    f"form {self.name!r}: odd total order {a}+{b}; odd-order "
                    "Hirota operators annihilate tau.tau")
            if a < 0 or b < 0:
                raise ValueError("Hirota orders must be >= 0")
            normalized.append((wq, int(a), int(b)))
        object.__setattr__(self, "terms", tuple(normalized))

    def residual(self, tau: ExactPoly) -> ExactPoly:
        """sum w_k D1^{a_k} D2^{b_k} tau.tau; empty means tau solves the form."""
        if tau.basis is not self.basis:
            tau._require_same_basis(
                ExactPoly.zero(self.basis), "evaluate a bilinear form on")
        return _bilinear(self.terms, tau, tau, symmetric=True)


def _form(name: str, *terms) -> BilinearForm:
    return BilinearForm(name, tuple((QQi.of(Fraction(w)), a, b) for w, a, b in terms))


#: Dx^4 - Dx^2 - Dy^2: bilinear Boussinesq with u = 2 dxx log tau.
STANDARD = _form("standard", (1, 4, 0), (-1, 2, 0), (-1, 0, 2))

#: Dx^2 + Dy^2 - Dx^4: the even-solution section (standard negated).
EVEN_SECTION = _form("even-section", (1, 2, 0), (1, 0, 2), (-1, 4, 0))

#: Dx^4 - 3 Dx^2 + 3 Dy^2: scaling used by the degree-6 two-parameter family.
YANG = _form("yang", (1, 4, 0), (-3, 2, 0), (3, 0, 2))

#: 3 Dx^4 - 3 Dx^2 - Dy^2: scaling with q = (3/2) dxx log tau and (x^2+3y^2)
#: leading behavior; the normalization the pole-dynamics checks assume.
BNEW = _form("bnew", (3, 4, 0), (-3, 2, 0), (-1, 0, 2))

#: Dx^4 - 3 Dx^2 - 3 Dy^2: the form the printed degree-6 family satisfies.
YANG_ELLIPTIC = _form("yang-elliptic", (1, 4, 0), (-3, 2, 0), (-3, 0, 2))

PRESETS = {f.name: f for f in (STANDARD, EVEN_SECTION, YANG, YANG_ELLIPTIC, BNEW)}


def custom_form(spec: Sequence, basis: Basis = Basis.XY) -> BilinearForm:
    """Build a form from a non-empty list of (weight, a, b) triples; weights
    parsed as Fractions.  An empty form would be solved by every tau."""
    if not (isinstance(spec, (list, tuple)) and spec and all(
            isinstance(t, (list, tuple)) and len(t) == 3 for t in spec)):
        raise ValueError("a custom form is a non-empty list of [weight, a, b] triples")
    terms = tuple((QQi.of(Fraction(str(w))), int(a), int(b)) for w, a, b in spec)
    return BilinearForm("custom", terms, basis)
