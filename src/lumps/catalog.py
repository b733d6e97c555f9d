"""Catalog of explicit tau polynomials with their PDE scalings.

Each record carries the polynomial (possibly with free rational parameters),
the constant c of the reconstruction u = c * dxx log tau, and the bilinear
form the record is expected to annihilate.  Verification is an exact
polynomial-identity check; nothing numeric decides solution-hood.

The catalog deliberately pins each record to its own scaling: the degree-6
Pelinovskii entry uses c = 12 with the standard form, the two-parameter
degree-6 family uses c = 2 with its own transverse scaling, and every
"-bnew" variant is the y -> sqrt(3) y rescaling with c = 3/2 that the
pole-dynamics and energy checks assume.

Two documented errata travel with the catalog (see NOTES on the records):

* the degree-6 family is printed next to an equation whose transverse term
  has the wrong sign; the printed polynomials exactly annihilate
  Dx^4 - 3 Dx^2 - 3 Dy^2 (preset ``yang-elliptic``) and fail the
  ``yang`` preset Dx^4 - 3 Dx^2 + 3 Dy^2 that the printed equation implies;

* the printed degree-12 polynomial fails the standard form by a residual
  supported on 27 monomials; changing the coefficient of z^2 + zbar^2 from
  38390275 to -35277550/3 gives the exact (and, by the gamma certificate at
  n = 6, unique) even solution, shipped as ``pelin12-corrected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hirota import BNEW, STANDARD, YANG_ELLIPTIC, BilinearForm
from .polyring import Basis, ExactPoly, poly_xy, poly_zz, r_squared

ParamMonomial = Tuple[Tuple[str, int], ...]


class ParameterBindingError(ValueError):
    """A free parameter was left unbound (or bound without being declared)."""


@dataclass(frozen=True)
class TauRecord:
    """A catalog entry: tau (with optional free parameters) and its scaling."""

    id: str
    components: Tuple[Tuple[ParamMonomial, ExactPoly], ...]
    scale_c: Fraction
    form: BilinearForm
    params: Tuple[str, ...] = ()
    notes: str = ""

    def bind(self, bindings: Optional[Dict[str, Fraction]] = None) -> ExactPoly:
        """Assemble the concrete polynomial at exact parameter values."""
        bindings = dict(bindings or {})
        for name in bindings:
            if name not in self.params:
                raise ParameterBindingError(
                    f"record {self.id!r} has no parameter {name!r}")
        missing = [p for p in self.params if p not in bindings]
        if missing:
            raise ParameterBindingError(
                f"record {self.id!r}: unbound parameter {missing[0]!r}")
        total = ExactPoly.zero(Basis.XY)
        for monomial, poly in self.components:
            factor = Fraction(1)
            for name, exp in monomial:
                factor *= Fraction(bindings[name]) ** exp
            total = total + poly.scale(factor)
        return total

    def tau(self) -> ExactPoly:
        """The polynomial of a parameter-free record."""
        if self.params:
            raise ParameterBindingError(
                f"record {self.id!r} has free parameters {self.params}; "
                "bind them first")
        return self.bind({})


@dataclass(frozen=True)
class VerifyResult:
    record_id: str
    form_name: str
    is_solution: bool
    residual: ExactPoly

    def residual_terms(self, limit: int = 10) -> List[list]:
        keys = sorted(self.residual.terms,
                      key=lambda k: (-(k[0] + k[1]), -k[0]))
        return [[i, j, self.residual.coeff(i, j).to_json()]
                for (i, j) in keys[:limit]]


def verify_tau(rec: TauRecord, bindings: Optional[Dict[str, Fraction]] = None,
               form: Optional[BilinearForm] = None) -> VerifyResult:
    """Exact residual of the record's bilinear form on the bound polynomial."""
    tau = rec.bind(bindings)
    f = form if form is not None else rec.form
    residual = f.residual(tau)
    return VerifyResult(rec.id, f.name, residual.is_zero(), residual)


@dataclass(frozen=True)
class RationalFunction:
    """numerator / denominator with exact polynomial entries (denominator tau^2)."""

    numerator: ExactPoly
    denominator: ExactPoly


def u_from_tau(rec: TauRecord, bindings: Optional[Dict[str, Fraction]] = None
               ) -> RationalFunction:
    """u = c * dxx log tau as the exact rational function c(tau tau_xx - tau_x^2)/tau^2."""
    tau = rec.bind(bindings)
    if tau.is_zero():
        raise ValueError("tau must be nonzero")
    tx = tau.diff(0, 1)
    txx = tau.diff(0, 2)
    num = (tau * txx - tx * tx).scale(rec.scale_c)
    return RationalFunction(num, tau * tau)


# ---------------------------------------------------------------------------
# decay check


@dataclass(frozen=True)
class DecayReport:
    radii: Tuple[float, ...]
    bounds: Tuple[float, ...]          # max |u| r^2 per circle
    skipped: Tuple[Tuple[float, float], ...]  # (r, angle) of skipped samples


def decay_check(u: RationalFunction, radii: Sequence[float],
                samples_per_circle: int = 720,
                denominator_floor: float = 1e-12) -> DecayReport:
    """max of |u| r^2 over circle samples; near-zero denominators are skipped."""
    bounds = []
    skipped = []
    for r in radii:
        theta = np.linspace(0.0, 2 * math.pi, samples_per_circle, endpoint=False)
        xs = r * np.cos(theta)
        ys = r * np.sin(theta)
        num = _eval_array(u.numerator, xs, ys)
        den = _eval_array(u.denominator, xs, ys)
        scale = max(1.0, float(np.max(np.abs(den))))
        good = np.abs(den) > denominator_floor * scale
        for t in theta[~good]:
            skipped.append((float(r), float(t)))
        vals = np.abs(num[good] / den[good]) * r * r
        bounds.append(float(np.max(vals)) if vals.size else 0.0)
    return DecayReport(tuple(float(r) for r in radii), tuple(bounds),
                       tuple(skipped))


# ---------------------------------------------------------------------------
# energy


def energy(rec: TauRecord, half_width: float = 200.0, step: float = 0.05
           ) -> float:
    """Quadrature estimate of H(q) for a record in the q = (3/2) dxx log tau scaling.

    H(q) = int [ (3/2)|q_x|^2 + 4 q^3 - (3/2) q^2 - |dx^{-1} dy q|^2 ],
    with the antiderivative term evaluated in closed form as
    dx^{-1} dy q = (3/2) dx dy log tau (exact for this ansatz).

    Midpoint rule on [-R, R]^2; the record's polynomial must be even in x
    and in y, which folds the grid onto one quadrant.

    Evenness also fixes the parity of each derivative: tau and tau_xx are
    even, tau_x and tau_xxx are x times an even polynomial, tau_y is y
    times one and tau_xy is xy times one.  Each derivative is divided by
    that monomial and stored as a float table in X = x^2, Y = y^2; a grid
    row is then (Y powers) @ table @ (X powers), two small matrix products.
    The integrand is summed in ratio form: with a = tau_x/tau,
    b = tau_xx/tau and q = (3/2) qh, q_x = (3/2) qh_x, dx^{-1} dy q = (3/2) vh,

        qh = b - a^2,  qh_x = tau_xxx/tau - 3ab + 2a^3,
        vh = (tau_xy - a tau_y)/tau,

    the integrand is 3.375 qh_x^2 + qh^2 (13.5 qh - 3.375) - 2.25 vh^2.

    Raises ValueError for a window with no grid cell or a record outside
    the (3/2) normalization or not even, and ArithmeticError when the sum
    is not finite (tau vanishes, or overflows, at a grid node).
    """
    for name, value in (("half_width", half_width), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    cells = half_width / step
    if not (math.isfinite(cells) and round(cells) >= 1):
        raise ValueError(
            f"half_width/step = {cells} leaves no grid cell in [0, R]")
    if rec.scale_c != Fraction(3, 2):
        raise ValueError(
            f"energy expects the (3/2) dxx log tau normalization; record "
            f"{rec.id!r} has c = {rec.scale_c} (use its -bnew variant)")
    tau = rec.tau()
    if any(i % 2 or j % 2 for (i, j) in tau.terms):
        raise ValueError("energy quadrature assumes tau even in x and y")

    tau_x = tau.diff(0, 1)
    # (derivative, x-parity, y-parity), in the row order unpacked below
    parts = ((tau, 0, 0), (tau_x, 1, 0), (tau.diff(0, 2), 0, 0),
             (tau.diff(0, 3), 1, 0), (tau.diff(1, 1), 0, 1),
             (tau_x.diff(1, 1), 1, 1))
    nx = tau.degree_in(0) // 2 + 1
    ny = tau.degree_in(1) // 2 + 1
    table = np.zeros((ny, len(parts), nx))
    for k, (p, px, py) in enumerate(parts):
        for (i, j), c in p.terms.items():
            table[(j - py) // 2, k, (i - px) // 2] = float(c.re)
    table = table.reshape(ny, -1)

    m = int(round(cells))
    xs = (np.arange(m) + 0.5) * step
    xpow = np.vander(xs * xs, nx, increasing=True).T     # (nx, m)
    ypows = np.vander(xs * xs, ny, increasing=True)      # row k: Y_k powers
    total = 0.0
    # stripe across y to bound memory; each row is a full x vector
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for y, ypow in zip(xs, ypows):
            t, tx, txx, txxx, ty, txy = (ypow @ table).reshape(-1, nx) @ xpow
            inv = 1.0 / t
            a = tx * inv
            a *= xs
            b = txx * inv
            a2 = a * a
            qh = b - a2
            qhx = txxx * inv
            qhx *= xs
            qhx -= a * (3.0 * b - 2.0 * a2)
            vh_y = txy * xs              # vh / y: the y factors join below
            vh_y -= a * ty
            vh_y *= inv
            total += (3.375 * (qhx @ qhx) + (qh * qh) @ (13.5 * qh - 3.375)
                      - 2.25 * y * y * (vh_y @ vh_y))
    total = 4.0 * float(total) * step * step
    if not math.isfinite(total):
        raise ArithmeticError(
            f"energy sum of {rec.id!r} is not finite: tau vanishes (or "
            f"overflows) on the quadrature grid")
    return total


def _eval_array(p: ExactPoly, xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros(np.broadcast(xs, ys).shape)
    for (i, j), q in p.terms.items():
        out = out + float(q.re) * xs**i * ys**j
    return out


# ---------------------------------------------------------------------------
# the catalog itself


def _sqrt3_y_rescale(p: ExactPoly) -> ExactPoly:
    """tau(x, sqrt(3) y): exact for polynomials even in y (y^2 -> 3 y^2)."""
    out = {}
    for (i, j), c in p.terms.items():
        if j % 2:
            raise ValueError("sqrt(3)-rescale needs a polynomial even in y")
        out[(i, j)] = c * Fraction(3) ** (j // 2)
    return poly_xy(out)


def _lump2() -> ExactPoly:
    return poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})


def _pelin6() -> ExactPoly:
    return r_squared() ** 3 + poly_xy({
        (4, 0): 25, (2, 2): 90, (0, 4): 17,
        (2, 0): -125, (0, 2): 475, (0, 0): 1875})


def _pelin12_zz_terms(corrected: bool) -> dict:
    F = Fraction
    t = {
        (6, 6): F(1),
        (7, 3): F(-15), (6, 4): F(10), (5, 5): F(108),
        (4, 6): F(10), (3, 7): F(-15),
        (8, 0): F(-45), (7, 1): F(150), (6, 2): F(-875), (5, 3): F(-1050),
        (4, 4): F(4375), (3, 5): F(-1050), (2, 6): F(-875), (1, 7): F(150),
        (0, 8): F(-45),
        (6, 0): F(-22330, 3), (5, 1): F(20895), (4, 2): F(-52850),
        (3, 3): F(103950), (2, 4): F(-52850), (1, 5): F(20895),
        (0, 6): F(-22330, 3),
        (4, 0): F(594125, 3), (3, 1): F(-1798300), (2, 2): F(1471225),
        (1, 3): F(-1798300), (0, 4): F(594125, 3),
        (2, 0): F(38390275), (1, 1): F(76780550), (0, 2): F(38390275),
        (0, 0): F(878826025, 9),
    }
    if corrected:
        t[(2, 0)] = t[(0, 2)] = F(-35277550, 3)
    return t


def _pelin12(corrected: bool = False) -> ExactPoly:
    return poly_zz(_pelin12_zz_terms(corrected)).to_xy()


def _yang6_components():
    base = poly_xy({
        (6, 0): 1, (0, 6): 1, (4, 2): 3, (2, 4): 3, (5, 0): 14, (1, 4): 14,
        (3, 2): 28, (4, 0): 90, (2, 2): 128, (0, 4): 22, (3, 0): 324,
        (1, 2): 316, (2, 0): 648, (0, 2): 360, (1, 0): 648, (0, 0): 324})
    lin_a = poly_xy({(3, 0): 1, (1, 2): -3, (2, 0): 7, (0, 2): -7,
                     (1, 0): 16, (0, 0): 8}).scale(2)
    lin_b = poly_xy({(0, 3): 1, (2, 1): -3, (1, 1): -14, (0, 1): -18}).scale(2)
    one = ExactPoly.constant(1)
    return (
        ((), base),
        ((("a", 1),), lin_a),
        ((("b", 1),), lin_b),
        ((("a", 2),), one),
        ((("b", 2),), one),
    )


def _plain(id_, poly, c, form, notes=""):
    return TauRecord(id_, (((), poly),), Fraction(c), form, (), notes)


def build_catalog() -> Dict[str, TauRecord]:
    F = Fraction
    recs: List[TauRecord] = []

    recs.append(_plain(
        "lump2", _lump2(), 2, STANDARD,
        "classical lump; u = 2 dxx log tau"))
    recs.append(_plain(
        "pelin6", _pelin6(), 12, STANDARD,
        "degree-6 even solution; u = 12 dxx log tau"))
    recs.append(TauRecord(
        "yang6", _yang6_components(), F(2), YANG_ELLIPTIC, ("a", "b"),
        "two-parameter degree-6 family; satisfies Dx^4-3Dx^2-3Dy^2 exactly. "
        "The transverse sign printed with the family ('+3 u_yy', preset "
        "'yang') is an erratum: the printed polynomials fail that form."))
    recs.append(_plain(
        "pelin12", _pelin12(corrected=False), 2, STANDARD,
        "degree-12 entry exactly as printed; fails the standard form with a "
        "27-monomial residual (documented transcription erratum in the "
        "z^2+zbar^2 coefficient)."))
    recs.append(_plain(
        "pelin12-corrected", _pelin12(corrected=True), 2, STANDARD,
        "degree-12 entry with the z^2+zbar^2 coefficient replaced by "
        "-35277550/3; exact solution, unique by the n=6 gamma certificate."))

    for rid in ("lump2", "pelin6", "pelin12-corrected"):
        src = next(r for r in recs if r.id == rid)
        recs.append(_plain(
            rid + "-bnew", _sqrt3_y_rescale(src.bind({})), F(3, 2), BNEW,
            f"y -> sqrt(3) y rescaling of {rid}; q = (3/2) dxx log tau"))

    return {r.id: r for r in recs}


_CATALOG: Optional[Dict[str, TauRecord]] = None


def catalog() -> Dict[str, TauRecord]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = build_catalog()
    return _CATALOG


def get_record(rec_id: str) -> TauRecord:
    cat = catalog()
    try:
        return cat[rec_id]
    except KeyError:
        raise KeyError(
            f"unknown tau id {rec_id!r}; known: {sorted(cat)}") from None
