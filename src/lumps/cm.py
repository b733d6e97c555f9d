"""Calogero-Moser pole representation checks.

A rational solution in the q = (3/2) dxx log tau normalization has poles
eta_i(y) in the complex x-plane with velocities beta_i = d eta_i / dy.
Membership in the locus M, membership of a deformation in the tangent
space TM, and the CM flow direction are all evaluated numerically here;
the constants (36, +3, 72) are pinned to that normalization, so callers
rescale tau first (the catalog's "-bnew" records).

Pole positions come from simultaneous (Aberth-style) root iteration on the
x-polynomial tau(., y) with exact rational coefficients converted to
complex doubles; companion-matrix eigenvalues are the fallback.  Velocities
use implicit differentiation: beta = -tau_y / tau_x at each root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .catalog import TauRecord
from .polyring import ExactPoly


class CoincidentPolesError(ValueError):
    """Pole configuration degenerates: two poles closer than the threshold."""


class RootFindingError(RuntimeError):
    """Pole extraction failed; the message says why."""


@dataclass(frozen=True)
class PoleConfig:
    eta: Tuple[complex, ...]
    beta: Tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.eta)

    def __post_init__(self):
        if len(self.eta) != len(self.beta):
            raise ValueError("eta and beta must have equal length")

    def min_gap(self) -> float:
        n = self.n
        if n < 2:
            return math.inf
        return min(abs(self.eta[j] - self.eta[k])
                   for j in range(n) for k in range(j + 1, n))

    def require_distinct(self, threshold: float = 1e-8) -> None:
        gap = self.min_gap()
        if gap < threshold:
            raise CoincidentPolesError(
                f"minimum pole gap {gap:.3e} below threshold {threshold:.1e}")


@dataclass(frozen=True)
class TangentVector:
    a: Tuple[complex, ...]
    b: Tuple[complex, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")


_NAN = complex(math.nan, math.nan)


def _finite(*values: complex) -> bool:
    return all(cmath.isfinite(v) for v in values)


def locus_residual(cfg: PoleConfig, gap_threshold: float = 1e-8
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pole residuals of the two locus identities.

    First:  sum_{k != j} (beta_j + beta_k) / (eta_j - eta_k)^3
    Second: beta_j^2 + sum_{k != j} 36 / (eta_j - eta_k)^2 + 3
    """
    cfg.require_distinct(gap_threshold)
    n = cfg.n
    first = np.zeros(n, dtype=complex)
    second = np.zeros(n, dtype=complex)
    for j in range(n):
        s1 = 0j
        s2 = 0j
        for k in range(n):
            if k == j:
                continue
            d = cfg.eta[j] - cfg.eta[k]
            # powers as products: complex ** raises OverflowError at huge
            # gaps; a power past float range makes this pole's residual nan
            # for the caller to report
            d2 = d * d
            d3 = d * d2
            if not _finite(d2, d3):
                s1 = s2 = _NAN
                break
            s1 += (cfg.beta[j] + cfg.beta[k]) / d3
            s2 += 36.0 / d2
        first[j] = s1
        second[j] = cfg.beta[j] * cfg.beta[j] + s2 + 3.0
    return first, second


def tangent_residual(cfg: PoleConfig, vec: TangentVector,
                     gap_threshold: float = 1e-8
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pole residuals of the tangent-space identities at cfg.

    First:  sum_{k != j} [ (b_j + b_k)/(eta_j - eta_k)^3
                           - 3 (beta_j + beta_k)(a_j - a_k)/(eta_j - eta_k)^4 ]
    Second: beta_j b_j - sum_{k != j} 36 (a_j - a_k)/(eta_j - eta_k)^3

    The base configuration is assumed to lie on the locus; that is the
    caller's responsibility and is not re-checked here.
    """
    cfg.require_distinct(gap_threshold)
    if len(vec.a) != cfg.n:
        raise ValueError("tangent vector length does not match configuration")
    n = cfg.n
    first = np.zeros(n, dtype=complex)
    second = np.zeros(n, dtype=complex)
    for j in range(n):
        s1 = 0j
        s2 = 0j
        for k in range(n):
            if k == j:
                continue
            d = cfg.eta[j] - cfg.eta[k]
            d2 = d * d
            d3 = d * d2
            d4 = d2 * d2
            if not _finite(d2, d3, d4):
                s1 = s2 = _NAN
                break
            s1 += (vec.b[j] + vec.b[k]) / d3
            s1 -= 3.0 * (cfg.beta[j] + cfg.beta[k]) * (vec.a[j] - vec.a[k]) / d4
            s2 += 36.0 * (vec.a[j] - vec.a[k]) / d3
        first[j] = s1
        second[j] = cfg.beta[j] * vec.b[j] - s2
    return first, second


def cm_rhs(cfg: PoleConfig, gap_threshold: float = 1e-8) -> TangentVector:
    """The y-flow direction: a_j = beta_j, b_j = sum_{k != j} 72/(eta_j - eta_k)^3."""
    cfg.require_distinct(gap_threshold)
    b = []
    for j in range(cfg.n):
        s = 0j
        for k in range(cfg.n):
            if k != j:
                d = cfg.eta[j] - cfg.eta[k]
                s += 72.0 / (d * (d * d))
        b.append(s)
    return TangentVector(tuple(cfg.beta), tuple(b))


# ---------------------------------------------------------------------------
# root extraction


def _x_coefficients(tau: ExactPoly, y: Fraction) -> list:
    """Exact coefficients of tau(., y) as a polynomial in x, low order first."""
    deg = tau.degree_in(0)
    coeffs = [Fraction(0)] * (deg + 1)
    ypow = {0: Fraction(1)}
    for (i, j), c in tau.terms.items():
        if not c.is_real():
            raise ValueError("pole extraction expects a real tau")
        if j not in ypow:
            ypow[j] = Fraction(y) ** j
        coeffs[i] += c.re * ypow[j]
    return coeffs


def _evaluate(c: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """p(z) and |p(z)| / (1 + |z|)^n for p = sum c[k] x^k of degree n.

    Past float range these are inf or nan, which callers test for; numpy's
    overflow warnings are silenced here.
    """
    n = len(c) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.polyval(c[::-1], z)
        return p, np.abs(p) / (1.0 + np.abs(z)) ** n


def _within(scaled: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.isfinite(scaled)) and np.all(scaled <= tol))


def _aberth(coeffs: Sequence[complex], tol: float = 1e-12,
            max_iter: int = 400) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration on a monic-normalized polynomial.

    Raises RootFindingError with the reason when a polynomial value or a
    step leaves float range, or when the iteration does not converge.
    """
    c = np.array(coeffs, dtype=complex)
    c = c / c[-1]
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)

    # Cauchy-style radius with slight angular stagger to break symmetry
    radius = 1.0 + max(abs(c[k]) for k in range(n))
    angles = 2 * np.pi * (np.arange(n) + 0.376) / n
    z = radius * np.exp(1j * angles) * (1 + 0.05 * np.cos(3 * angles))

    for _ in range(max_iter):
        p, scaled = _evaluate(c, z)
        if not np.all(np.isfinite(scaled)):
            raise RootFindingError("root iteration: polynomial value is not finite")
        if np.all(scaled <= tol):
            return z
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            newton = p / np.polyval(dc[::-1], z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulsion = np.sum(1.0 / diff, axis=1)
            w = newton / (1.0 - newton * repulsion)
        if not np.all(np.isfinite(w)):
            raise RootFindingError("root iteration: step is not finite")
        z = z - w
    if _within(_evaluate(c, z)[1], tol * 100):
        return z
    raise RootFindingError(f"root iteration: no convergence in {max_iter} steps")


def roots_exact_poly(coeffs: Sequence[Fraction], tol: float = 1e-12
                     ) -> np.ndarray:
    """All complex roots of sum coeffs[k] x^k, Aberth first then companion."""
    try:
        cf = [complex(float(c), 0.0) for c in coeffs]
    except OverflowError:
        raise RootFindingError("a polynomial coefficient does not fit a float") from None
    while cf and abs(cf[-1]) == 0.0:
        cf.pop()
    if len(cf) < 2:
        raise ValueError("polynomial must have positive degree")
    try:
        z = _aberth(cf, tol=tol)
    except RootFindingError as exc:
        z = np.roots(np.array(cf[::-1], dtype=complex))
        if not _within(_evaluate(np.array(cf) / cf[-1], z)[1], tol * 1e3):
            raise RootFindingError(
                f"{exc}; companion fallback failed to reach tolerance") from None
    return np.sort_complex(z)


def poles_from_tau(rec: TauRecord, y, gap_threshold: float = 1e-8,
                   tol: float = 1e-12) -> PoleConfig:
    """Pole positions and velocities of a catalog record at height y.

    The record must be in the (3/2) dxx log tau normalization (a "-bnew"
    catalog variant): the locus constants assume it.
    """
    if rec.scale_c != Fraction(3, 2):
        raise ValueError(
            f"poles_from_tau expects the (3/2)-normalization; record "
            f"{rec.id!r} has c = {rec.scale_c} (use its -bnew variant)")
    tau = rec.tau()
    yq = Fraction(y)
    coeffs = _x_coefficients(tau, yq)
    eta = roots_exact_poly(coeffs, tol=tol)

    tau_x = tau.diff(0, 1)
    tau_y = tau.diff(1, 1)
    yf = float(yq)
    beta = []
    for root in eta:
        tx = tau_x.eval_complex(root, yf)
        ty = tau_y.eval_complex(root, yf)
        if abs(tx) == 0.0:
            raise CoincidentPolesError(
                f"repeated root suspected at eta={root}: tau_x vanishes")
        beta.append(-ty / tx)
    cfg = PoleConfig(tuple(complex(e) for e in eta), tuple(beta))
    cfg.require_distinct(gap_threshold)
    return cfg


def pair_roots(reference: Sequence[complex], candidates: Sequence[complex],
               ambiguity_ratio: float = 0.5) -> list:
    """Match each reference root to its nearest candidate, injectively.

    Raises RootFindingError when the matching is ambiguous (second-nearest
    candidate closer than ``ambiguity_ratio`` times the gap between distinct
    reference roots) instead of guessing.
    """
    remaining = list(enumerate(candidates))
    out = []
    for r in reference:
        remaining.sort(key=lambda ic: abs(ic[1] - r))
        if len(remaining) >= 2:
            d0 = abs(remaining[0][1] - r)
            d1 = abs(remaining[1][1] - r)
            if d0 > 0 and (d1 - d0) < ambiguity_ratio * d0:
                raise RootFindingError(
                    f"ambiguous root pairing near {r}: two candidates at "
                    f"distance {d0:.3e} and {d1:.3e}")
        out.append(remaining.pop(0)[1])
    return out
