import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from lumps import lax
from oracles import eigenvalues, sigma_of_lambda

SQRT6 = math.sqrt(6.0)


def vandermonde(k):
    """P(k): column j is (1, lambda_j, lambda_j^2) for the oracle's eigenvalues."""
    return np.vander(np.array(eigenvalues(k)), 3, increasing=True).T


def normalization(k):
    """n(k) = ((3k^2+2) sqrt(3k^2+8))^{-1}, principal branch."""
    return 1.0 / ((3 * k * k + 2) * cmath.sqrt(3 * k * k + 8))


class TestEigenvalues:
    def test_k_zero(self):
        l1, l2, l3 = eigenvalues(0)
        assert l1 == 0
        assert l2 == pytest.approx(math.sqrt(2))
        assert l3 == pytest.approx(-math.sqrt(2))

    def test_trace_free(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = complex(rng.normal(), rng.normal())
            assert abs(sum(eigenvalues(k))) < 1e-12

    def test_product_matches_characteristic(self):
        # det(T) = -i(k^3 + 2k): the eigenvalue product reproduces it
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = complex(rng.normal(), rng.normal())
            l1, l2, l3 = eigenvalues(k)
            assert l1 * l2 * l3 == pytest.approx(-1j * (k**3 + 2 * k))

    def test_at_first_distinguished_point(self):
        k = lax.point_value("k1+")
        l1, l2, l3 = eigenvalues(k)
        assert l1 == pytest.approx(-SQRT6 / 3)
        assert l2 == pytest.approx(2 * SQRT6 / 3)
        assert l3 == pytest.approx(-SQRT6 / 3)
        # sigma from lambda: i(3 lambda^2 - 4)
        assert sigma_of_lambda(l1) == pytest.approx(-2j)
        assert sigma_of_lambda(l2) == pytest.approx(4j)


class TestPhaseTable:
    def test_first_entry(self):
        table = {(e.point, e.j): e for e in lax.computed_phase_table()}
        e = table[("k1+", 1)]
        assert (e.x_coeff, e.y_coeff) == (Fraction(-1, 3), Fraction(-2))

    def test_k2_minus_lambda1(self):
        table = {(e.point, e.j): e for e in lax.computed_phase_table()}
        e = table[("k2-", 1)]
        assert (e.x_coeff, e.y_coeff) == (Fraction(2, 3), Fraction(4))

    def test_sigma_lambda_tie(self):
        for e in lax.computed_phase_table():
            assert lax.phase_consistency(e)

    def test_matches_numeric_eigenvalues(self):
        # the exact table agrees with floating-point evaluation at each
        # point; at the k2 collision points sqrt(3k^2+8) evaluates the root
        # of a ~1e-15 rounding residue, so only ~1e-7 accuracy is available
        table = {(e.point, e.j): e for e in lax.computed_phase_table()}
        for name in lax.DISTINGUISHED:
            k = lax.point_value(name)
            tol = 1e-12 if name.startswith("k1") else 1e-6
            lams = eigenvalues(k)
            for j, lam in enumerate(lams, start=1):
                e = table[(name, j)]
                assert lam == pytest.approx(float(e.x_coeff) * SQRT6, abs=tol)
                assert sigma_of_lambda(lam) == pytest.approx(
                    1j * float(e.y_coeff), abs=tol)

    def test_print_comparison(self):
        comparison = lax.compare_phase_tables()
        assert len(comparison) == 12
        mismatches = tuple((c["point"], c["j"])
                           for c in comparison if not c["match"])
        assert mismatches == lax.PRINT_ERRATA

    def test_errata_are_exactly_a_transposition(self):
        comp = {(e.point, e.j): e for e in lax.computed_phase_table()}
        prnt = {(e.point, e.j): e for e in lax.printed_phase_table()}
        (p1, j1), (p2, j2) = lax.PRINT_ERRATA
        # x-parts agree; the printed y-parts are each other's computed values
        assert prnt[(p1, j1)].x_coeff == comp[(p1, j1)].x_coeff
        assert prnt[(p2, j2)].x_coeff == comp[(p2, j2)].x_coeff
        assert prnt[(p1, j1)].y_coeff == comp[(p2, j2)].y_coeff
        assert prnt[(p2, j2)].y_coeff == comp[(p1, j1)].y_coeff
        # and the printed pairs are impossible under the sigma-lambda tie
        assert not lax.phase_consistency(prnt[(p1, j1)])
        assert not lax.phase_consistency(prnt[(p2, j2)])


class TestEMatrix:
    """E = n(k) P(k) on the Vandermonde P of the oracle's eigenvalues."""

    def test_unit_normalization_relation(self):
        # n det P = 1 (det P is the Vandermonde product), while det(n P) =
        # n^3 det P = n^2 is the k-dependent 1/((3k^2+2)^2 (3k^2+8))
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = complex(rng.normal(), rng.normal())
            n = normalization(k)
            P = vandermonde(k)
            assert abs(n * np.linalg.det(P) - 1.0) < 1e-10
            f1 = 3 * k * k + 2
            f2 = 3 * k * k + 8
            assert np.linalg.det(n * P) == pytest.approx(
                1.0 / (f1 * f1 * f2), rel=1e-8)

    def test_examples(self):
        for k in (1.0 + 0j, 1j):
            assert abs(normalization(k) * np.linalg.det(vandermonde(k)) - 1.0) < 1e-12

    def test_columns_are_eigenvectors(self):
        k = 0.8 - 0.3j
        E = normalization(k) * vandermonde(k)
        T = np.array([[0, 1, 0], [0, 0, 1],
                      [-1j * (k**3 + 2 * k), 2, 0]], dtype=complex)
        lams = eigenvalues(k)
        for col, lam in enumerate(lams):
            v = E[:, col]
            assert np.max(np.abs(T @ v - lam * v)) < 1e-10


class TestPhiEntries:
    @pytest.mark.parametrize("k", [0.7 + 0.2j, 2.0 - 1.0j, 0.3j, 1.5])
    def test_identity_at_x_zero(self, k):
        p12, p22 = lax.phi_entries(k, 0.0)
        assert p12 == pytest.approx(0.0, abs=1e-14)
        assert p22 == pytest.approx(1.0, abs=1e-14)

    def test_matrix_exponential_agreement(self):
        # Phi = E e^{Mx} E^{-1} computed densely on E = n P agrees with the closed forms
        k = 0.9 + 0.4j
        x = 0.7
        E = normalization(k) * vandermonde(k)
        lams = eigenvalues(k)
        Phi = E @ np.diag([cmath.exp(l * x) for l in lams]) @ np.linalg.inv(E)
        p12, p22 = lax.phi_entries(k, x)
        assert Phi[0, 1] == pytest.approx(p12, rel=1e-9)
        assert Phi[1, 1] == pytest.approx(p22, rel=1e-9)

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_removable_singularities(self, point):
        probe = lax.removable_probe(point)
        g12 = probe["phi12_gaps"]
        g22 = probe["phi22_gaps"]
        # Cauchy: successive differences shrink roughly like epsilon
        assert g12[1] < 0.3 * g12[0]
        assert g22[1] < 0.3 * g22[0]
        # values stay bounded at the would-be pole
        assert all(abs(v) < 10 for v in probe["phi12"] + probe["phi22"])
        assert probe["cauchy_decreasing"] is True


def closed_forms(k, i=1j):
    """(3k^2+2) Phi_12 and (3k^2+2) Phi_22 from the closed forms, with the
    coefficients of (e^{-kxi/2} C, x e^{-kxi/2} S, e^{kix})."""
    return ((i * k, (3 * k * k + 4) / 2, -i * k),
            (2 * k * k + 2, i * k, k * k))


def sympy_numerators(k, x, rows):
    """The numerators with coefficient rows ``rows`` as sympy expressions in x
    at the point k."""
    w = sympy.sqrt(x ** 2 / 4 * (3 * k ** 2 + 8))
    factors = (sympy.exp(-k * x * sympy.I / 2) * sympy.cosh(w),
               sympy.exp(-k * x * sympy.I / 2) * x * sympy.sinh(w) / w,
               sympy.exp(k * x * sympy.I))
    return [sum(c * f for c, f in zip(row, factors)) for row in rows]


def vanishes(expr) -> bool:
    return sympy.simplify(sympy.expand(expr.rewrite(sympy.exp))) == 0


def sympy_point(point):
    return sympy.Rational(lax.DISTINGUISHED[point]) * sympy.sqrt(6) * sympy.I


#: wrong Phi_12 rows, as the library's table and as closed forms
WRONG_ROWS = [
    # (3k^2+4)/2 -> (3k^2+5)/2 on x e^{-kxi/2} S
    (((0, 2), (5, 0, -3), (0, -2)),
     lambda k: (sympy.I * k, (3 * k ** 2 + 5) / 2, -sympy.I * k)),
    # the sign of the e^{kix} term
    (((0, 2), (4, 0, -3), (0, 2)),
     lambda k: (sympy.I * k, (3 * k ** 2 + 4) / 2, sympy.I * k)),
]


class TestResidueIdentity:
    @pytest.mark.parametrize("point", ["k1+", "k1-"])
    def test_numerators_vanish_at_the_poles(self, point):
        assert lax.residue_identity(point) == [{}, {}]

    @pytest.mark.parametrize("point", ["k2+", "k2-"])
    def test_no_pole_at_k2(self, point):
        # 3k^2 + 2 = -6 there
        assert lax.residue_identity(point) is None

    @pytest.mark.parametrize("point", ["k1+", "k1-"])
    @pytest.mark.parametrize("positive", [True, False])
    def test_sympy_oracle(self, point, positive):
        # the closed forms, not the library's table, vanish identically at
        # the pole for x of either sign; a wrong Phi_12 row does not
        k = sympy_point(point)
        x = sympy.Symbol("x", positive=positive, negative=not positive)
        assert all(vanishes(n) for n in sympy_numerators(k, x, closed_forms(k, sympy.I)))
        for _, wrong in WRONG_ROWS:
            assert not vanishes(sympy_numerators(k, x, [wrong(k)])[0])

    @pytest.mark.parametrize("point", ["k1+", "k1-"])
    @pytest.mark.parametrize("row, closed", WRONG_ROWS, ids=["xS-constant", "eikx-sign"])
    def test_wrong_numerator_is_found(self, point, row, closed, monkeypatch):
        # the map of a wrong Phi_12 row is nonzero, and it is exactly the
        # sympy expansion of twice the same wrong closed form
        monkeypatch.setattr(lax, "PHI_NUMERATORS", (row, lax.PHI_NUMERATORS[1]))
        got12, got22 = lax.residue_identity(point)
        assert got12 and got22 == {}
        k = sympy_point(point)
        x = sympy.Symbol("x", positive=True)
        n12, = sympy_numerators(k, x, [closed(k)])
        mapped = sum((sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(6))
                     * sympy.exp(sympy.Rational(t) * sympy.sqrt(6) * x)
                     for t, (a, b) in got12.items())
        assert vanishes(mapped - 2 * n12)

    @pytest.mark.parametrize("k", [0.7 + 0.2j, 2.0 - 1.0j, 0.3j, 1.5,
                                   1.001 * lax.point_value("k1+")])
    def test_table_matches_closed_forms(self, k):
        f1 = 3 * k * k + 2
        for got, want in zip(lax._phi_coefficients(k), closed_forms(k)):
            for g, w in zip(got, want):
                assert abs(g - w / f1) <= 1e-15 * abs(w / f1)

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_probe_reports_the_identity(self, point):
        probe = lax.removable_probe(point)
        assert probe["exact_removable"] is True
        assert probe["numerators"] == lax.residue_identity(point)
        assert probe["x"] == lax.PROBE_X == 1.0

    def test_exact_verdict_reads_both_maps(self, monkeypatch):
        # a nonzero Phi_22 map alone refuses removability, though the float
        # probe still converges
        monkeypatch.setattr(lax, "residue_identity",
                            lambda point: [{}, {Fraction(1, 3): (Fraction(1), Fraction(0))}])
        probe = lax.removable_probe("k1+")
        assert probe["exact_removable"] is False
        assert probe["cauchy_decreasing"] is True
