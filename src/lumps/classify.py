"""Degree classification and even-solution uniqueness certificates.

Everything here is exact rational arithmetic.  Three routes are implemented,
each reading its obstruction as the first chain value past the last monomial:

* the J route: the coefficients a_m of the leading chain (x^2+y^2)^{n-3m}
  x^{2m} y^{2m}; J_n = -2 d(0, m) a_m at m = floor(n/3)+1 must vanish for an
  even rational solution of degree 2n to exist;

* the sigma route: the scalar chain sigma_j tracking the lowest
  zbar-degree monomial z^{n+j} zbar^{n-3j} of each homogeneous slice, with
  obstruction sigma_{floor(n/3)+1};

* the gamma route: for each kernel direction z^n zbar^{n-2q} + (mirror),
  the chain beta_j whose value gamma_q = beta_{jbar} certifies (when nonzero)
  that the kernel coefficient is forced, hence the even solution is unique.

The J and sigma routes are one recursion in two bases (x^2 y^2 =
-(z^2 - zbar^2)^2 / 16): a_m = (-16)^m sigma_m.  Their agreement checks the
code, not the mathematics; the test-suite's chain oracle checks that.

Pair-counting convention: all quadratic sums run over ordered pairs (i, j).
Terms containing the step's unknown move to the left-hand side; in the
symmetric chains the unknown appears twice, which is where the doubled
left-hand constants come from.  Counting unordered pairs instead makes J_6
nonzero although 6 is triangular, which the test-suite pins on its chain
oracle.  The calibration anchors are the triangular zero set of J_n, the
identity sigma_1 = (n - n^2)/2 and the seven printed gamma values at n = 15,
all pinned in the test-suite.

The a and sigma summands are symmetric under i <-> j (d, C4 and the
Dz Dzbar eigenfactor depend on (i - j)^2, and i + j is fixed in a step), so
those sums visit each pair i <= j once: the ordered sum is 2 x the
off-diagonal terms plus the diagonal one.  The beta sum pairs sigma with
beta and is not symmetric; it runs over k once, with both of its terms at
the same k under one factor sigma_k.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from . import hirota
from .polyring import ExactPoly, poly_xy

# ---------------------------------------------------------------------------
# closed-form structure constants (p_ij's lru_cache stores nothing; perfbench
# reads its cache_info().misses as the call count until it counts them itself)


def d_ij(i: int, j: int) -> int:
    """-12 (i-j)^2 (-1)^{i+j}."""
    return -12 * (i - j) ** 2 * (-1) ** ((i + j) % 2)


@lru_cache(maxsize=0)
def p_ij(n: int, i: int, j: int) -> int:
    """16 (-1)^{i+j} C4(n-3i, n-3j): the degree-4 structure polynomial.

    C4 is ``hirota.hirota_dx4_zz_coeff``, the one definition of the quartic;
    the i = j, i = j-1, i = j-2 and i = 0 sections printed alongside it are
    consequences, asserted in tests.
    """
    # the exponent is reduced mod 2: (-1) ** k is a float at k < 0
    return 16 * (-1) ** ((i + j) % 2) * hirota.hirota_dx4_zz_coeff(n - 3 * i, n - 3 * j)


# ---------------------------------------------------------------------------
# definitional route: build the g polynomials and take exact quotients


def g_poly(n: int, j: int) -> ExactPoly:
    """(x^2+y^2)^{n-3j} x^{2j} y^{2j} by the binomial theorem; needs n - 3j >= 0."""
    k = n - 3 * j
    if k < 0:
        raise ValueError(f"g_{j} is not defined for n={n}: n-3j = {k} < 0")
    return poly_xy({(2 * (k - t + j), 2 * (t + j)): math.comb(k, t)
                    for t in range(k + 1)})


_DX2_DY2 = hirota.BilinearForm("dx2+dy2", ((1, 2, 0), (1, 0, 2)))
_DX4 = hirota.BilinearForm("dx4", ((1, 4, 0),))


def _definitional(n: int, i: int, j: int, form, r_power: int) -> Fraction:
    if r_power < 0:
        raise ValueError(
            f"definitional quotient undefined: divisor exponent {r_power} < 0")
    quotient = form.pairing(g_poly(n, i), g_poly(n, j)).divide_exact(g_poly(r_power, 0))
    # g_i is even in x and in y, and so are the orders (2,0), (0,2) and (4,0),
    # so every exponent of the quotient is even: at x^2 = -1, y^2 = 1 the
    # term c x^a y^b is (-1)^(a/2) c; summed here on the numerators over den
    den, num = quotient.numerators()
    re = im = 0
    for (a, _), (r, m) in num.items():
        if a % 4:
            r, m = -r, -m
        re, im = re + r, im + m
    if im:
        raise ArithmeticError("definitional quotient produced a non-real value")
    return Fraction(re, den)


def d_ij_definitional(n: int, i: int, j: int) -> Fraction:
    """(Dx^2+Dy^2) g_i.g_j / (x^2+y^2)^{2n-3i-3j-1} at x^2 = -1, y^2 = 1."""
    return _definitional(n, i, j, _DX2_DY2, 2 * n - 3 * i - 3 * j - 1)


def p_ij_definitional(n: int, i: int, j: int) -> Fraction:
    """Dx^4 g_i.g_j / (x^2+y^2)^{2n-3i-3j-4} at x^2 = -1, y^2 = 1."""
    return _definitional(n, i, j, _DX4, 2 * n - 3 * i - 3 * j - 4)


# ---------------------------------------------------------------------------
# chain arithmetic: a chain is held as integer numerators over the lcm L of its
# denominators, so a step's pair sum is an integer over L_1 L_2 (a multiple of
# every pair's den_k den_m) and each step builds one Fraction


def _over_lcm(values: Sequence[Fraction]):
    """(L, [v L for v in values]) with L the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _push(chain: List[Fraction], nums: List[int], den: int, value: Fraction) -> int:
    """Append value to chain and to nums (numerators over den); return the new den."""
    new = math.lcm(den, value.denominator)
    if new != den:
        scale = new // den
        nums[:] = [s * scale for s in nums]
    nums.append(value.numerator * (new // value.denominator))
    chain.append(value)
    return new


def _dz_dzbar(q2: int, k: int, m: int) -> int:
    """(k-m)(q2+3(m-k)) = hirota_monomial_zz(n+k, n-3k, n+m, n-q2-3m, 1, 1)."""
    return (k - m) * (q2 + 3 * (m - k))


# ---------------------------------------------------------------------------
# J route

def _pairs(total: int):
    """(i, j, weight) for the pairs i <= j with i + j = total.

    The weight is 1 on the diagonal and 2 elsewhere, which folds the ordered
    pairs (i, j) and (j, i) into one term.
    """
    return [(i, total - i, 2 if 2 * i != total else 1)
            for i in range(total // 2 + 1)]


def a_seq(n: int, m_max: Optional[int] = None) -> List[Fraction]:
    """a_0 .. a_{m_max} of the leading-chain recursion (a_0 = 1).

    Each a_m is the unique solution of the degree-(4n-4m) slice equation
    sum_{i+j=m-1} a_i a_j p(n, i, j) = sum_{i+j=m} a_i a_j d(i, j); the
    unknown's coefficient is 2 d(0, m) (the ordered pairs (0, m) and (m, 0)),
    never zero for m >= 1.
    """
    if m_max is None:
        m_max = n // 3
    a, s, den = [Fraction(1)], [1], 1  # a[i] = s[i] / den
    for m in range(1, m_max + 1):
        total = 0  # over den**2
        for i, j, w in _pairs(m):
            if i:  # the pair (0, m) carries the unknown a_m
                total -= w * d_ij(i, j) * s[i] * s[j]
        for i, j, w in _pairs(m - 1):
            total += w * p_ij(n, i, j) * s[i] * s[j]
        den = _push(a, s, den, Fraction(total, 2 * d_ij(0, m) * den * den))
    return a


def j_obstruction(n: int) -> Fraction:
    """J_n = -2 d(0, m) a_m at m = floor(n/3) + 1, the first chain value past
    the last monomial: slice m has no g_m left to carry a_m's term."""
    m = n // 3 + 1
    return -2 * d_ij(0, m) * a_seq(n, m)[m]


# ---------------------------------------------------------------------------
# sigma route


def sigma_seq(n: int, j_max: Optional[int] = None) -> List[Fraction]:
    """sigma_0 .. sigma_{j_max} (default: the obstruction index floor(n/3)+1).

    Step j solves

      8 * (-3 j^2) sigma_j = sum_{k+m=j-1} sigma_k sigma_m C4(n-3k, n-3m)
                             - 4 sum_{k+m=j, k,m>=1} sigma_k sigma_m E(k, m)

    where C4 is the zbar-axis Dx^4 coefficient and E the Dz Dzbar eigenfactor
    (k-m)(3(m-k)); both sums are over ordered pairs and the coefficient of
    the tracked monomial z^{2n+j-1} zbar^{2n-3j-1} is matched.  Both summands
    are symmetric in k and m, and E(k, k) = 0.
    """
    if j_max is None:
        j_max = n // 3 + 1
    c4 = hirota.hirota_dx4_zz_coeff
    sig, s, den = [Fraction(1)], [1], 1  # sig[i] = s[i] / den
    for j in range(1, j_max + 1):
        total = 0  # over den**2
        for k, m, w in _pairs(j - 1):
            total += w * c4(n - 3 * k, n - 3 * m) * s[k] * s[m]
        for k in range(1, (j + 1) // 2):
            m = j - k
            total -= 8 * _dz_dzbar(0, k, m) * s[k] * s[m]
        den = _push(sig, s, den, Fraction(total, 8 * _dz_dzbar(0, 0, j) * den * den))
    return sig


def sigma_obstruction(n: int) -> Fraction:
    """sigma at j0 = floor(n/3) + 1; zero is necessary for an even solution."""
    return sigma_seq(n)[n // 3 + 1]


# ---------------------------------------------------------------------------
# gamma route


def _c4_rows(n: int) -> List[List[int]]:
    """C4(n-3k, n-r) at row k, index r, for 3k + r <= n.

    The beta sums read C4(n-3k, n-2q-3m) with r = 2q + 3m, so one table
    serves every q of a gamma table.
    """
    c4 = hirota.hirota_dx4_zz_coeff
    return [[c4(n - 3 * k, n - r) for r in range(n - 3 * k + 1)]
            for k in range(n // 3 + 1)]


def beta_seq(n: int, q: int, sigma: Optional[Sequence[Fraction]] = None,
             c4_rows: Optional[List[List[int]]] = None) -> List[Fraction]:
    """beta_0 .. beta_{jbar} for the kernel z^n zbar^{n-2q} (beta_0 = 1).

    Step j matches the coefficient of z^{2n+j-1} zbar^{2n-2q-3j-1}:

      4 * (-j)(2q+3j) beta_j = sum_{k+m=j-1} sigma_k beta_m C4(n-3k, n-2q-3m)
                               - 4 sum_{k+m=j, k,m>=1} sigma_k beta_m E

    with E = (k-m)(2q+3(m-k)).  The k,m >= 1 restriction on the second sum is
    pinned by the printed n = 15 gamma table.  ``sigma`` and ``c4_rows``
    (``_c4_rows(n)``) are computed here when not passed in.
    """
    if not 1 <= q <= n // 2:
        raise ValueError(f"q must lie in 1..floor(n/2); got q={q}, n={n}")
    jbar = (n - 2 * q) // 3 + 1
    den_s, s = _over_lcm(sigma_seq(n, jbar) if sigma is None else sigma[:jbar + 1])
    c4 = _c4_rows(n) if c4_rows is None else c4_rows
    beta, b, den = [Fraction(1)], [1], 1  # beta[i] = b[i] / den
    for j in range(1, jbar + 1):
        # k = 0 has no E term (the sum starts at k = 1); s[0] = den_s
        total = s[0] * c4[0][2 * q + 3 * (j - 1)] * b[j - 1]  # over den_s * den
        for k in range(1, j):
            m = j - 1 - k
            total += s[k] * (c4[k][2 * q + 3 * m] * b[m]
                             - 4 * _dz_dzbar(2 * q, k, m + 1) * b[m + 1])
        eigen = 4 * _dz_dzbar(2 * q, 0, j)  # -4 j (2q + 3j)
        den = _push(beta, b, den, Fraction(total, eigen * den_s * den))
    return beta


def gamma_table(n: int) -> Dict[int, Fraction]:
    """gamma_q = beta_{jbar} (jbar = floor((n-2q)/3) + 1) for q = 1 .. floor(n/2).

    Every chain shares one sigma chain and one C4 table.  Raises ValueError
    for n < 1, which has no table to certify.
    """
    if n < 1:
        raise ValueError(f"gamma_table needs n >= 1, got {n}")
    sigma, c4_rows = sigma_seq(n), _c4_rows(n)
    return {q: beta_seq(n, q, sigma, c4_rows)[-1] for q in range(1, n // 2 + 1)}


def is_triangular(n: int) -> bool:
    """True when n = k(k+1)/2 for an integer k >= 0; exact at any size."""
    if n < 0:
        return False
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k * (k + 1) == 2 * n


@dataclass(frozen=True)
class UniquenessCertificate:
    n: int
    gammas: Dict[int, Fraction]
    all_nonzero: bool


def uniqueness_certificate(n: int) -> UniquenessCertificate:
    """All-gamma-nonzero verdict with the full list as evidence.

    Meaningful for triangular n (where an even solution exists); for
    n = 1 the quantification is empty and the certificate holds vacuously.
    """
    gammas = gamma_table(n)
    return UniquenessCertificate(n, gammas, all(v != 0 for v in gammas.values()))


# ---------------------------------------------------------------------------
# hierarchy degree identities


@dataclass(frozen=True)
class HierarchyBalance:
    j: int
    m: Fraction
    b: Fraction
    B: Fraction
    balanced: bool


def hierarchy_degree(j: int, m) -> HierarchyBalance:
    """b_m(j), B_m(j) and whether the quarter-difference balances.

    b = -(j+1)(j(j+2)+2m);  B = (1/8)(j+1)(10 j (j+2) + 32 m);
    balance b = B is equivalent to m = -3 j (j+2) / 8.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    mf = Fraction(m)
    b = -Fraction(j + 1) * (j * (j + 2) + 2 * mf)
    B = Fraction(j + 1, 8) * (10 * j * (j + 2) + 32 * mf)
    return HierarchyBalance(j, mf, b, B, b == B)


def solve_degree(k: int) -> Fraction:
    """The balanced decay coefficient m = -(3/2) k (k+1) at j = 2k."""
    return Fraction(-3, 2) * k * (k + 1)


# ---------------------------------------------------------------------------
# scan


@dataclass
class ScanRow:
    n: int
    J: Optional[Fraction] = None
    sigma_obstruction: Optional[Fraction] = None
    gamma_all_nonzero: Optional[bool] = None
    error: Optional[str] = None

    @property
    def is_zero(self) -> Optional[bool]:
        if self.J is not None:
            return self.J == 0
        if self.sigma_obstruction is not None:
            return self.sigma_obstruction == 0
        return None

    @property
    def triangular(self) -> bool:
        return is_triangular(self.n)


def _scan_one(n: int, routes: Sequence[str]) -> ScanRow:
    row = ScanRow(n)
    try:
        if "J" in routes:
            row.J = j_obstruction(n)
        if "sigma" in routes:
            row.sigma_obstruction = sigma_obstruction(n)
        if "gamma" in routes and is_triangular(n):
            row.gamma_all_nonzero = uniqueness_certificate(n).all_nonzero
        if row.J is not None and row.sigma_obstruction is not None:
            if (row.J == 0) != (row.sigma_obstruction == 0):
                row.error = (
                    f"route disagreement at n={n}: J={row.J}, "
                    f"sigma_obstruction={row.sigma_obstruction}")
    except ArithmeticError as exc:
        row.error = str(exc)
    return row


def scan(max_n: int, routes: Sequence[str] = ("J", "sigma")) -> List[ScanRow]:
    """Per-n obstruction rows for n = 1..max_n; route agreement enforced."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if not routes:
        raise ValueError("at least one route is required (J, sigma, gamma)")
    for r in routes:
        if r not in ("J", "sigma", "gamma"):
            raise ValueError(f"unknown route {r!r}")
    return [_scan_one(n, routes) for n in range(1, max_n + 1)]


def write_scan_csv(rows: Sequence[ScanRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "J_n", "sigma_obstruction", "is_zero",
                         "is_triangular", "gamma_all_nonzero"])
        for row in rows:
            writer.writerow([
                row.n,
                "" if row.J is None else str(row.J),
                "" if row.sigma_obstruction is None else str(row.sigma_obstruction),
                "" if row.is_zero is None else str(row.is_zero).lower(),
                str(row.triangular).lower(),
                "" if row.gamma_all_nonzero is None
                else str(row.gamma_all_nonzero).lower(),
            ])
