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
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple


def eigenvalues(k: complex) -> Tuple[complex, complex, complex]:
    """(lambda_1, lambda_2, lambda_3) with the principal branch of the root."""
    s = cmath.sqrt(3 * k * k + 8)
    return (1j * k, (-1j * k + s) / 2, (-1j * k - s) / 2)


def sigma_of_lambda(lam: complex) -> complex:
    return 1j * (3 * lam * lam - 4)


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


def _phi_coefficients(k: complex) -> Tuple[Tuple[complex, ...], ...]:
    """Coefficients of (e^{-kxi/2} C, x e^{-kxi/2} S, e^{kix}) in Phi_12, Phi_22.

    Shared by phi_entries and probe_log_bound, so the bound follows any
    change to the closed forms.
    """
    f1 = 3 * k * k + 2
    return ((k * 1j / f1, (3 * k * k + 4) / (2 * f1), -(k * 1j / f1)),
            ((2 * k * k + 2) / f1, k * 1j / f1, k * k / f1))


def phi_entries(k: complex, x: float) -> Tuple[complex, complex]:
    """(Phi_12, Phi_22) of P e^{Mx} P^{-1} via the cosh/sinhc closed forms.

    P is the Vandermonde matrix of the eigenvalues (rows 1, lambda_j,
    lambda_j^2) and M = diag(lambda_j); a normalization n(k) P cancels.

    With zeta = (x^2/4)(3k^2+8):

      Phi_12 = (ki/(3k^2+2)) e^{-kxi/2} C + ((3k^2+4)/(6k^2+4)) x e^{-kxi/2} S
               - (ki/(3k^2+2)) e^{kix}
      Phi_22 = ((2k^2+2)/(3k^2+2)) e^{-kxi/2} C + (ki/(3k^2+2)) x e^{-kxi/2} S
               + (k^2/(3k^2+2)) e^{kix}

    where C = cosh(w) and S = sinh(w)/w with w = sqrt(zeta), and S = 1 at
    w = 0.  Both are even in w, so entire in zeta and free of the branch of
    the root; the only candidate singularities are 3k^2+2 = 0 and they are
    removable (probed numerically by removable_probe).
    """
    (a12, b12, c12), (a22, b22, c22) = _phi_coefficients(k)
    w = cmath.sqrt((x * x / 4.0) * (3 * k * k + 8))
    C = cmath.cosh(w)
    S = cmath.sinh(w) / w if w else 1.0
    half = cmath.exp(-k * x * 1j / 2)
    full = cmath.exp(k * x * 1j)
    phi12 = a12 * half * C + b12 * x * half * S + c12 * full
    phi22 = a22 * half * C + b22 * x * half * S + c22 * full
    return phi12, phi22


#: radial offsets of removable_probe, k = k* (1 + eps)
PROBE_EPSILONS = (1e-2, 1e-3, 1e-4)

#: c of the probe's rounding floor c * eps_float * e^bound: every entry and
#: gap is below e^bound (probe_log_bound), so a gap at or below the floor is
#: rounding noise, as at small |x| where Phi is nearly the identity
ROUNDING_FLOOR_FACTOR = 4


def gaps_decreasing(gaps: Sequence[float], floor: float) -> bool:
    """True when every later gap is below the one before it or is at most
    ``floor`` (rounding noise, which need not decrease)."""
    return all(b < a or b <= floor for a, b in zip(gaps, gaps[1:]))


def probe_log_bound(point: str, x: float) -> float:
    """Natural log of a bound on every factor and entry removable_probe forms.

    At each k = k* (1 + eps), eps in PROBE_EPSILONS, with
    w = (|x|/2) sqrt(3k^2+8), |C| and |S| of phi_entries are at most
    cosh(Re w) <= e^{|Re w|}; e^{-kxi/2} and e^{kix} have real exponents
    x Im(k)/2 and -x Im(k).  Each entry is at most g times the largest of
    these factors, where g sums the magnitudes of the six coefficients of
    _phi_coefficients (those of x S times |x|), so every factor, entry and
    gap between entries stays below e^bound, with
    bound = max(|Re w| + max(x Im(k)/2, 0), -x Im(k)) + max(log g, 0) + log 2.
    No x^2 is formed, so any finite x gets a bound (possibly inf), never
    an OverflowError.
    """
    ax = abs(x)
    bounds = []
    for eps in PROBE_EPSILONS:
        k = point_value(point) * (1 + eps)
        re_w = ax / 2 * abs(cmath.sqrt(3 * k * k + 8).real)
        exponent = max(re_w + max(x * k.imag / 2, 0.0), -x * k.imag)
        g = sum(abs(a) + abs(b) * ax + abs(c)
                for a, b, c in _phi_coefficients(k))
        bounds.append(exponent + max(math.log(g), 0.0) + math.log(2.0))
    return max(bounds)


def removable_probe(point: str, x: float) -> dict:
    """Approach a distinguished point radially; report values and Cauchy gaps.

    The sequence k = k* (1 + eps), eps in PROBE_EPSILONS (the offsets that
    probe_log_bound bounds), converges, with successive differences
    shrinking proportionally to eps, exactly when the singularity is
    removable.  The verdict ``cauchy_decreasing`` holds when both gap
    sequences pass gaps_decreasing at ``rounding_floor``.  Raises
    ValueError, before any entry is formed, when the probe's terms would
    overflow a float.
    """
    log_bound = probe_log_bound(point, x)
    if log_bound >= math.log(sys.float_info.max):
        raise ValueError(
            f"--x {x} overflows the probe at {point}: its terms "
            f"reach e^{log_bound:.6g}, past the float maximum "
            f"e^{math.log(sys.float_info.max):.6g}")
    kstar = point_value(point)
    values12 = []
    values22 = []
    for eps in PROBE_EPSILONS:
        k = kstar * (1 + eps)
        p12, p22 = phi_entries(k, x)
        values12.append(p12)
        values22.append(p22)
    gaps12 = [abs(b - a) for a, b in zip(values12, values12[1:])]
    gaps22 = [abs(b - a) for a, b in zip(values22, values22[1:])]
    floor = ROUNDING_FLOOR_FACTOR * sys.float_info.epsilon * math.exp(log_bound)
    return {
        "point": point,
        "x": x,
        "epsilons": list(PROBE_EPSILONS),
        "phi12": values12,
        "phi22": values22,
        "phi12_gaps": gaps12,
        "phi22_gaps": gaps22,
        "rounding_floor": floor,
        "cauchy_decreasing": (gaps_decreasing(gaps12, floor)
                              and gaps_decreasing(gaps22, floor)),
    }
