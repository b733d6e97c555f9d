"""Calogero-Moser pole representation checks.

A rational solution in the q = (3/2) dxx log tau normalization has poles
eta_i(y) in the complex x-plane with velocities beta_i = d eta_i / dy.
Membership in the locus M, membership of a deformation in the tangent
space TM, and the CM flow direction are all evaluated numerically here;
the constants (36, +3, 72) are pinned to that normalization, so callers
rescale tau first (the catalog's "-bnew" records).

Both come from one exact reduction at the height y: the x-coefficients of
p = tau(., y) and q = tau_y(., y).  Pole positions are the companion-matrix
eigenvalues (np.roots) of p, its exact coefficients converted to doubles,
each root held to ROOT_TOL.  Velocities use implicit differentiation:
beta = -q / p' at each root, since tau_x(., y) = p'.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .catalog import TauRecord
from .polyring import ExactPoly


#: bound on |p(z)| / (1 + |z|)^deg(p) at each root z of the monic pole polynomial p
ROOT_TOL = 1e-10
#: smallest pole gap accepted as distinct
GAP_THRESHOLD = 1e-8
#: largest locus or flow-tangency residual that cm-check accepts
RESIDUAL_TOL = 1e-9


class CoincidentPolesError(ValueError):
    """Pole configuration degenerates: two poles closer than the threshold."""


class RootFindingError(RuntimeError):
    """Pole extraction failed; the message says why."""


@dataclass(frozen=True)
class PoleConfig:
    """Poles eta and velocities beta; poles closer than GAP_THRESHOLD are refused."""

    eta: Tuple[complex, ...]
    beta: Tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.eta)

    def __post_init__(self):
        if len(self.eta) != len(self.beta):
            raise ValueError("eta and beta must have equal length")
        gap = self.min_gap()
        if gap < GAP_THRESHOLD:
            raise CoincidentPolesError(
                f"minimum pole gap {gap:.3e} below threshold {GAP_THRESHOLD:.1e}")

    def min_gap(self) -> float:
        n = self.n
        if n < 2:
            return math.inf
        return min(abs(self.eta[j] - self.eta[k])
                   for j in range(n) for k in range(j + 1, n))


@dataclass(frozen=True)
class TangentVector:
    a: Tuple[complex, ...]
    b: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")


def _pair_sums(cfg: PoleConfig, m: int, w) -> List[complex]:
    """Per pole j: sum_{k != j} w(j, k) / (eta_j - eta_k)^m.

    The power is a product (complex ** raises OverflowError at huge gaps);
    a pole with a power past float range gets nan, for the caller to report.
    """
    eta = cfg.eta
    out = []
    for j, ej in enumerate(eta):
        s = 0j
        for k, ek in enumerate(eta):
            if k != j:
                d = dm = ej - ek
                for _ in range(m - 1):
                    dm *= d
                if not cmath.isfinite(dm):
                    s = complex(math.nan, math.nan)
                    break
                s += w(j, k) / dm
        out.append(s)
    return out


def locus_residual(cfg: PoleConfig) -> Tuple[List[complex], List[complex]]:
    """Per-pole residuals of the two locus identities.

    First:  sum_{k != j} (beta_j + beta_k) / (eta_j - eta_k)^3
    Second: beta_j^2 + sum_{k != j} 36 / (eta_j - eta_k)^2 + 3
    """
    beta = cfg.beta
    first = _pair_sums(cfg, 3, lambda j, k: beta[j] + beta[k])
    second = [b * b + s + 3.0
              for b, s in zip(beta, _pair_sums(cfg, 2, lambda j, k: 36.0))]
    return first, second


def tangent_residual(cfg: PoleConfig, vec: TangentVector
                     ) -> Tuple[List[complex], List[complex]]:
    """Per-pole residuals of the tangent-space identities at cfg.

    First:  sum_{k != j} [ (b_j + b_k)/(eta_j - eta_k)^3
                           - 3 (beta_j + beta_k)(a_j - a_k)/(eta_j - eta_k)^4 ]
    Second: beta_j b_j - sum_{k != j} 36 (a_j - a_k)/(eta_j - eta_k)^3

    The base configuration is assumed to lie on the locus; that is the
    caller's responsibility and is not re-checked here.
    """
    if len(vec.a) != cfg.n:
        raise ValueError("tangent vector length does not match configuration")
    beta, a, b = cfg.beta, vec.a, vec.b
    s3 = _pair_sums(cfg, 3, lambda j, k: b[j] + b[k])
    s4 = _pair_sums(cfg, 4, lambda j, k: 3.0 * (beta[j] + beta[k]) * (a[j] - a[k]))
    first = [u - v for u, v in zip(s3, s4)]
    second = [beta[j] * b[j] - s for j, s in
              enumerate(_pair_sums(cfg, 3, lambda j, k: 36.0 * (a[j] - a[k])))]
    return first, second


def cm_rhs(cfg: PoleConfig) -> TangentVector:
    """The y-flow direction: a_j = beta_j, b_j = sum_{k != j} 72/(eta_j - eta_k)^3."""
    return TangentVector(cfg.beta, tuple(_pair_sums(cfg, 3, lambda j, k: 72.0)))


# ---------------------------------------------------------------------------
# root extraction


def _at_height(tau: ExactPoly, y: Fraction) -> Tuple[list, list]:
    """Exact x-coefficients, low order first, of p = tau(., y) and q = tau_y(., y).

    One pass over tau's numerators: with y = a/b and t the largest
    y-exponent, den b^t p and den b^t q have integer coefficients, built
    from cached powers of a and b.
    """
    den, num = tau.numerators()
    t = tau.degree_in(1)
    apow, bpow = [1], [1]
    for _ in range(t):
        apow.append(apow[-1] * y.numerator)
        bpow.append(bpow[-1] * y.denominator)
    p = [0] * (tau.degree_in(0) + 1)
    q = list(p)
    for (i, j), (re, im) in num.items():
        if im:
            raise ValueError("pole extraction expects a real tau")
        p[i] += re * apow[j] * bpow[t - j]
        if j:
            q[i] += j * re * apow[j - 1] * bpow[t - j + 1]
    scale = den * bpow[t]
    return [Fraction(c, scale) for c in p], [Fraction(c, scale) for c in q]


def _floats(coeffs: Sequence[Fraction]) -> list:
    """Doubles of exact coefficients; RootFindingError past float range."""
    try:
        return [float(c) for c in coeffs]
    except OverflowError:
        raise RootFindingError("a polynomial coefficient does not fit a float") from None


def roots_exact_poly(coeffs: Sequence[Fraction]) -> np.ndarray:
    """All complex roots of sum coeffs[k] x^k, as companion-matrix eigenvalues.

    Raises RootFindingError when a coefficient of the monic polynomial
    leaves float range, or when a root misses ROOT_TOL (a root past float
    range does: its residual is nan).
    """
    cf = _floats(coeffs)
    while cf and cf[-1] == 0.0:
        cf.pop()
    if len(cf) < 2:
        raise ValueError("polynomial must have positive degree")
    n = len(cf) - 1
    # past float range the values below are inf or nan, which is tested for;
    # numpy's overflow warnings are silenced
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        monic = np.array(cf[::-1], dtype=complex) / cf[-1]
        if not np.all(np.isfinite(monic)):
            raise RootFindingError("a monic polynomial coefficient does not fit a float")
        z = np.roots(monic)
        scaled = np.abs(np.polyval(monic, z)) / (1.0 + np.abs(z)) ** n
    worst = float(np.max(scaled))
    if not worst <= ROOT_TOL:  # nan included
        raise RootFindingError(
            f"companion roots miss the scaled residual bound {ROOT_TOL:.0e}: "
            f"worst {worst:.3e}")
    return np.sort_complex(z)


def poles_from_tau(rec: TauRecord, y) -> PoleConfig:
    """Pole positions and velocities of a catalog record at height y.

    The record must be in the (3/2) dxx log tau normalization (a "-bnew"
    catalog variant): the locus constants assume it.
    """
    rec.require_bnew("poles_from_tau")
    p, q = _at_height(rec.tau(), Fraction(y))
    eta = roots_exact_poly(p)
    dp = _floats([i * c for i, c in enumerate(p)][:0:-1])
    # past float range a velocity is inf or nan, which the residuals carry to
    # the caller; numpy's overflow warnings are silenced
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tx = np.polyval(dp, eta)
        if not np.all(tx):
            raise CoincidentPolesError(
                f"repeated root suspected at eta={eta[tx == 0][0]}: tau_x vanishes")
        beta = -np.polyval(_floats(q[::-1]), eta) / tx
    return PoleConfig(tuple(eta.tolist()), tuple(beta.tolist()))
