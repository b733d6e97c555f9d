import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from lumps import lax

SQRT6 = math.sqrt(6.0)


def vandermonde(k):
    """P(k): column j is (1, lambda_j, lambda_j^2) for the library's eigenvalues."""
    return np.vander(np.array(lax.eigenvalues(k)), 3, increasing=True).T


def normalization(k):
    """n(k) = ((3k^2+2) sqrt(3k^2+8))^{-1}, principal branch."""
    return 1.0 / ((3 * k * k + 2) * cmath.sqrt(3 * k * k + 8))


class TestEigenvalues:
    def test_k_zero(self):
        l1, l2, l3 = lax.eigenvalues(0)
        assert l1 == 0
        assert l2 == pytest.approx(math.sqrt(2))
        assert l3 == pytest.approx(-math.sqrt(2))

    def test_trace_free(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = complex(rng.normal(), rng.normal())
            assert abs(sum(lax.eigenvalues(k))) < 1e-12

    def test_product_matches_characteristic(self):
        # det(T) = -i(k^3 + 2k): the eigenvalue product reproduces it
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = complex(rng.normal(), rng.normal())
            l1, l2, l3 = lax.eigenvalues(k)
            assert l1 * l2 * l3 == pytest.approx(-1j * (k**3 + 2 * k))

    def test_at_first_distinguished_point(self):
        k = lax.point_value("k1+")
        l1, l2, l3 = lax.eigenvalues(k)
        assert l1 == pytest.approx(-SQRT6 / 3)
        assert l2 == pytest.approx(2 * SQRT6 / 3)
        assert l3 == pytest.approx(-SQRT6 / 3)
        # sigma from lambda: i(3 lambda^2 - 4)
        assert lax.sigma_of_lambda(l1) == pytest.approx(-2j)
        assert lax.sigma_of_lambda(l2) == pytest.approx(4j)


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
            lams = lax.eigenvalues(k)
            for j, lam in enumerate(lams, start=1):
                e = table[(name, j)]
                assert lam == pytest.approx(float(e.x_coeff) * SQRT6, abs=tol)
                assert lax.sigma_of_lambda(lam) == pytest.approx(
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
    """E = n(k) P(k) on the Vandermonde P of lax.eigenvalues."""

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
        lams = lax.eigenvalues(k)
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
        lams = lax.eigenvalues(k)
        Phi = E @ np.diag([cmath.exp(l * x) for l in lams]) @ np.linalg.inv(E)
        p12, p22 = lax.phi_entries(k, x)
        assert Phi[0, 1] == pytest.approx(p12, rel=1e-9)
        assert Phi[1, 1] == pytest.approx(p22, rel=1e-9)

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_removable_singularities(self, point):
        probe = lax.removable_probe(point, 1.0)
        g12 = probe["phi12_gaps"]
        g22 = probe["phi22_gaps"]
        # Cauchy: successive differences shrink roughly like epsilon
        assert g12[1] < 0.3 * g12[0]
        assert g22[1] < 0.3 * g22[0]
        # values stay bounded at the would-be pole
        assert all(abs(v) < 10 for v in probe["phi12"] + probe["phi22"])
        assert probe["cauchy_decreasing"] is True


class TestGapsDecreasing:
    def test_rule(self):
        floor = 1e-11
        assert lax.gaps_decreasing([3.0, 2.0, 1.0], floor)
        assert lax.gaps_decreasing([0.0, 0.0], floor)
        # noise may grow while it stays at or below the floor
        assert lax.gaps_decreasing([1e-14, 5e-12, 1e-11], floor)
        # growth above the floor fails, from noise or from a real gap
        assert not lax.gaps_decreasing([1e-14, 2e-11], floor)
        assert not lax.gaps_decreasing([1.0, 2.0, 0.5], floor)
        assert not lax.gaps_decreasing([1e-3, 1e-4, 2e-4], floor)


class TestProbeBound:
    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_accepted_x_stays_finite(self, point, sign):
        # bisect the largest |x| the bound accepts; the probe there is finite
        limit = math.log(sys.float_info.max)
        lo, hi = 0.0, 1e4
        for _ in range(60):
            mid = (lo + hi) / 2
            if lax.probe_log_bound(point, sign * mid) < limit:
                lo = mid
            else:
                hi = mid
        assert lo > 400
        with pytest.raises(ValueError, match="overflows the probe"):
            lax.removable_probe(point, sign * hi)
        probe = lax.removable_probe(point, sign * lo)
        values = probe["phi12"] + probe["phi22"]
        gaps = probe["phi12_gaps"] + probe["phi22_gaps"]
        assert all(cmath.isfinite(v) for v in values)
        assert all(math.isfinite(g) for g in gaps)
