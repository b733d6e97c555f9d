"""Closed-form spectral data of the third-order Lax system.

The constant-coefficient limit of the Lax operator has eigenvalues

    lambda_1 = i k,
    lambda_{2,3} = (-i k +/- sqrt(3 k^2 + 8)) / 2,

with transverse phases sigma_j = i (3 lambda_j^2 - 4) and plane-wave
exponents Lambda_j = lambda_j x + sigma_j y.  The four distinguished
spectral points are k = +/- (sqrt6/3) i (where 3k^2 + 2 = 0) and
k = +/- (2 sqrt6/3) i (where 3k^2 + 8 = 0 and the eigenvalues collide).

At those points everything lives in Q + Q*sqrt6, so the phase table is
computed exactly: an entry is a pair of Fractions, the x-coefficient in
units of sqrt6 and the y-coefficient in units of i.  sqrt(3k^2+8) uses the
principal branch; at the four distinguished points the radicand is 6 or 0,
so no branch ambiguity enters the exact table.

The printed reference table is also shipped: ten of its twelve entries
agree with the computed table, and the remaining two (Lambda_2 and
Lambda_3 at k = -(sqrt6/3) i) have their y-parts transposed in print,
which no eigenvalue branch can produce because the x- and y-coefficients
are tied through sigma = i (3 lambda^2 - 4).  See compare_phase_tables().

Phi_12 and Phi_22 are PHI_NUMERATORS over PHI_DENOMINATOR = 2(3k^2 + 2).
At the k1 points, where the denominator vanishes, residue_identity shows
exactly that both numerators vanish for every real x: the poles are
removable.  removable_probe adds a float probe at x = 1 as confirmation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# exact phase table at the four distinguished points

#: point name -> c, where k = c * sqrt6 * i
DISTINGUISHED = {
    "k1+": Fraction(1, 3),
    "k1-": Fraction(-1, 3),
    "k2+": Fraction(2, 3),
    "k2-": Fraction(-2, 3),
}


@dataclass(frozen=True)
class PhaseEntry:
    """Lambda_j at a distinguished point: x_coeff * sqrt6 * x + y_coeff * i * y."""

    point: str
    j: int
    x_coeff: Fraction
    y_coeff: Fraction

    def pretty(self) -> str:
        return f"({self.x_coeff})*sqrt6*x + ({self.y_coeff})*i*y"


def point_value(name: str) -> complex:
    """The distinguished point as a complex number."""
    c = DISTINGUISHED[name]
    return complex(0.0, float(c) * math.sqrt(6.0))


def computed_phase_table() -> List[PhaseEntry]:
    """The twelve Lambda entries from the eigenvalue formulas, exact.

    With k = c*sqrt6*i: lambda_1 = -c*sqrt6; sqrt(3k^2+8) = s*sqrt6 with
    s = 1 at k1 points, s = 0 at k2 points; lambda_{2,3} = ((c +/- s)/2)*sqrt6.
    Then sigma = (18 lam_coeff^2 - 4) * i.
    """
    out = []
    for name, c in DISTINGUISHED.items():
        radicand = 8 - 18 * c * c        # (3k^2+8) as a rational
        if radicand == 6:
            s = Fraction(1)
        elif radicand == 0:
            s = Fraction(0)
        else:  # pragma: no cover - DISTINGUISHED only holds the four points
            raise ValueError(f"point {name} is not distinguished")
        lam_coeffs = (-c, (c + s) / 2, (c - s) / 2)
        for j, lc in enumerate(lam_coeffs, start=1):
            out.append(PhaseEntry(name, j, lc, 18 * lc * lc - 4))
    return out


def printed_phase_table() -> List[PhaseEntry]:
    """The reference table exactly as printed, including its two bad entries."""
    rows = {
        "k1+": ((Fraction(-1, 3), Fraction(-2)),
                (Fraction(2, 3), Fraction(4)),
                (Fraction(-1, 3), Fraction(-2))),
        "k1-": ((Fraction(1, 3), Fraction(-2)),
                (Fraction(1, 3), Fraction(4)),      # y-part transposed in print
                (Fraction(-2, 3), Fraction(-2))),   # y-part transposed in print
        "k2+": ((Fraction(-2, 3), Fraction(4)),
                (Fraction(1, 3), Fraction(-2)),
                (Fraction(1, 3), Fraction(-2))),
        "k2-": ((Fraction(2, 3), Fraction(4)),
                (Fraction(-1, 3), Fraction(-2)),
                (Fraction(-1, 3), Fraction(-2))),
    }
    return [PhaseEntry(name, j, xc, yc)
            for name, row in rows.items()
            for j, (xc, yc) in enumerate(row, start=1)]


#: (point, j) pairs where print and computation disagree; the printed y-parts
#: of these two entries are swapped with each other.
PRINT_ERRATA = (("k1-", 2), ("k1-", 3))


def compare_phase_tables() -> List[dict]:
    """Entry-by-entry exact comparison of computed vs printed tables."""
    comp = {(e.point, e.j): e for e in computed_phase_table()}
    out = []
    for printed in printed_phase_table():
        computed = comp[(printed.point, printed.j)]
        out.append({
            "point": printed.point,
            "j": printed.j,
            "computed": computed.pretty(),
            "printed": printed.pretty(),
            "match": (computed.x_coeff == printed.x_coeff
                      and computed.y_coeff == printed.y_coeff),
        })
    return out


def phase_consistency(entry: PhaseEntry) -> bool:
    """Whether the entry obeys the sigma-lambda tie y = 18 x^2 - 4."""
    return entry.y_coeff == 18 * entry.x_coeff ** 2 - 4


# ---------------------------------------------------------------------------
# Phi entries and the removable-singularity probe


#: numerators of (Phi_12, Phi_22) over PHI_DENOMINATOR: for each entry, the
#: coefficients of (e^{-kxi/2} C, x e^{-kxi/2} S, e^{kix}) as integer
#: polynomials in kappa = k i, lowest power first
PHI_NUMERATORS = (((0, 2), (4, 0, -3), (0, -2)),
                  ((4, 0, -4), (0, 2), (0, 0, -2)))

#: 2 (3k^2 + 2) as a polynomial in kappa = k i; zero only at the k1 points
PHI_DENOMINATOR = (4, 0, -6)


def _phi_coefficients(k: complex) -> Tuple[Tuple[complex, ...], ...]:
    """PHI_NUMERATORS over PHI_DENOMINATOR at k, in floats."""
    kappa = 1j * k
    den = sum(c * kappa ** n for n, c in enumerate(PHI_DENOMINATOR))
    return tuple(tuple(sum(c * kappa ** n for n, c in enumerate(p)) / den
                       for p in entry) for entry in PHI_NUMERATORS)


def phi_entries(k: complex, x: float) -> Tuple[complex, complex]:
    """(Phi_12, Phi_22) of P e^{Mx} P^{-1} via the cosh/sinhc closed forms.

    P is the Vandermonde matrix of the eigenvalues (rows 1, lambda_j,
    lambda_j^2) and M = diag(lambda_j); a normalization n(k) P cancels.
    Each entry is PHI_NUMERATORS over PHI_DENOMINATOR on the factors
    (e^{-kxi/2} C, x e^{-kxi/2} S, e^{kix}), where C = cosh(w) and
    S = sinh(w)/w with w = sqrt(zeta), zeta = (x^2/4)(3k^2+8), and S = 1 at
    w = 0.  Both are even in w, so entire in zeta and free of the branch of
    the root; the only candidate singularities are 3k^2+2 = 0, and
    residue_identity shows that they are removable.
    """
    w = cmath.sqrt((x * x / 4.0) * (3 * k * k + 8))
    C = cmath.cosh(w)
    S = cmath.sinh(w) / w if w else 1.0
    half = cmath.exp(-k * x * 1j / 2)
    full = cmath.exp(k * x * 1j)
    phi12, phi22 = (a * half * C + b * x * half * S + c * full
                    for a, b, c in _phi_coefficients(k))
    return phi12, phi22


def _at_point(coeffs: Sequence[int], c: Fraction) -> Tuple[Fraction, Fraction]:
    """sum coeffs[n] kappa^n at kappa = -c sqrt6, as (a, b) for a + b sqrt6."""
    terms = [coeff * (-c) ** n * 6 ** (n // 2) for n, coeff in enumerate(coeffs)]
    return sum(terms[::2], Fraction(0)), sum(terms[1::2], Fraction(0))


def residue_identity(point: str) -> Optional[List[dict]]:
    """The numerators of Phi_12 and Phi_22 at a distinguished point, exactly.

    At k* = c sqrt6 i, kappa = -c sqrt6.  Where PHI_DENOMINATOR vanishes (the
    k1 points) 3k^2 + 8 = 6, so for real x of either sign each factor is a
    sum of E(t) = e^{t sqrt6 x} over Q(sqrt6): C = (E(1/2) + E(-1/2))/2,
    x S = (E(1/2) - E(-1/2))/sqrt6, e^{-kxi/2} = E(c/2), e^{kix} = E(-c).
    Returns, per entry, the map t -> (a, b) of the coefficient a + b sqrt6 of
    E(t), zero sums dropped: a numerator vanishes for every x exactly when
    its map is empty.  Returns None where the denominator does not vanish
    (the k2 points): there is no pole.
    """
    c = DISTINGUISHED[point]
    if _at_point(PHI_DENOMINATOR, c) != (0, 0):
        return None
    maps = []
    for entry in PHI_NUMERATORS:
        (ca, cb), (sa, sb), (fa, fb) = (_at_point(p, c) for p in entry)
        # (sa + sb sqrt6) / sqrt6 = sb + (sa / 6) sqrt6
        terms = (((c + 1) / 2, ca / 2 + sb, cb / 2 + sa / 6),
                 ((c - 1) / 2, ca / 2 - sb, cb / 2 - sa / 6),
                 (-c, fa, fb))
        sums = {}
        for t, a, b in terms:
            a0, b0 = sums.get(t, (0, 0))
            sums[t] = (a0 + a, b0 + b)
        maps.append({t: v for t, v in sums.items() if v != (0, 0)})
    return maps


#: radial offsets of removable_probe, k = k* (1 + eps)
PROBE_EPSILONS = (1e-2, 1e-3, 1e-4)

#: the x of removable_probe's float confirmation; the exact verdict holds
#: for every real x
PROBE_X = 1.0


def removable_probe(point: str) -> dict:
    """Exact removability at a distinguished point, with a float confirmation.

    ``exact_removable`` is the verdict: both maps of residue_identity are
    empty, or there is no pole; ``numerators`` is that evidence.  The
    confirmation approaches the point radially at x = PROBE_X, along
    k = k* (1 + eps) for eps in PROBE_EPSILONS.  At a removable point the
    values converge with gaps shrinking like eps, and ``cauchy_decreasing``
    holds when both gap sequences decrease strictly.
    """
    numerators = residue_identity(point)
    kstar = point_value(point)
    values12, values22 = zip(*(phi_entries(kstar * (1 + eps), PROBE_X)
                               for eps in PROBE_EPSILONS))
    gaps12 = [abs(b - a) for a, b in zip(values12, values12[1:])]
    gaps22 = [abs(b - a) for a, b in zip(values22, values22[1:])]
    return {
        "point": point,
        "exact_removable": numerators is None or not any(numerators),
        "numerators": numerators,
        "x": PROBE_X,
        "epsilons": list(PROBE_EPSILONS),
        "phi12": list(values12),
        "phi22": list(values22),
        "phi12_gaps": gaps12,
        "phi22_gaps": gaps22,
        "cauchy_decreasing": all(b < a for gaps in (gaps12, gaps22)
                                 for a, b in zip(gaps, gaps[1:])),
    }
