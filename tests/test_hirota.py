import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lumps
from conftest import exact_polys, random_poly, wide_polys, wide_rationals
from lumps.hirota import (
    BNEW, EVEN_SECTION, STANDARD, YANG, YANG_ELLIPTIC, BilinearForm, custom_form,
    hirota_axis_coeff, hirota_d, hirota_dx4_zz_coeff, hirota_monomial_zz,
    preset)
from lumps.polyring import Basis, BasisMismatchError, ExactPoly, QQi, \
    poly_xy, poly_zz
from oracles import hirota_oracle


class TestHirotaD:
    def test_dx2_on_x(self):
        f = poly_xy({(1, 0): 1})
        # Dx^2 f.f = 2(f f_xx - f_x^2) = -2
        assert hirota_d(2, 0, f, f) == ExactPoly.constant(-2)

    def test_dzdzbar_monomials(self):
        # coefficient (a-c)(b-d) on z^{a+c-1} zbar^{b+d-1}
        f = poly_zz({(5, 2): 1})
        g = poly_zz({(3, 4): 1})
        assert hirota_d(1, 1, f, g) == poly_zz({(7, 5): (5 - 3) * (2 - 4)})

    def test_dx4_on_znzbarn(self):
        n = 2
        f = poly_zz({(n, n): 1})
        # Dx^4 in (z,zbar) variables is sum C(4,p) Dz^p Dzbar^{4-p}
        total = ExactPoly.zero(Basis.ZZBAR)
        from math import comb
        for p in range(5):
            total = total + hirota_d(p, 4 - p, f, f).scale(Fraction(comb(4, p)))
        assert total.coeff(2 * n, 2 * n - 4) == QQi(Fraction(12 * n * n - 12 * n))
        assert total.coeff(2 * n - 2, 2 * n - 2) == QQi(Fraction(24 * n * n))

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            hirota_d(1, 1, poly_xy({(1, 0): 1}), poly_zz({(1, 0): 1}))

    def test_negative_order(self):
        with pytest.raises(ValueError):
            hirota_d(-1, 0, poly_xy({}), poly_xy({}))


class TestOracleAgreement:
    def test_two_hundred_random_instances(self, rng):
        # degree <= 4, order a+b <= 4, exact equality against the
        # shift-variable oracle
        checked = 0
        while checked < 200:
            f = random_poly(rng, max_degree=4, max_terms=4, real_only=False)
            g = random_poly(rng, max_degree=4, max_terms=4, real_only=False)
            a = rng.randint(0, 4)
            b = rng.randint(0, 4 - a)
            assert hirota_d(a, b, f, g) == hirota_oracle(a, b, f, g)
            checked += 1

    @settings(max_examples=40)
    @given(exact_polys(max_degree=3, max_terms=3),
           exact_polys(max_degree=3, max_terms=3))
    def test_oracle_d22(self, f, g):
        assert hirota_d(2, 2, f, g) == hirota_oracle(2, 2, f, g)


class TestKernelAgainstOracle:
    """The term-pair kernel on inputs the random oracle runs above avoid:
    wide Gaussian coefficients, odd orders, f != g and complex weights."""

    @settings(max_examples=40, deadline=None)
    @given(wide_polys(max_degree=3, max_terms=3),
           wide_polys(max_degree=3, max_terms=3),
           st.integers(0, 4), st.integers(0, 4),
           st.sampled_from(list(Basis)))
    def test_distinct_pair(self, f, g, a, b, basis):
        assume(f != g)
        f, g = ExactPoly(f.terms, basis), ExactPoly(g.terms, basis)
        assert hirota_d(a, b, f, g) == hirota_oracle(a, b, f, g)

    @settings(max_examples=40, deadline=None)
    @given(wide_polys(max_degree=4, max_terms=3),
           wide_polys(max_degree=4, max_terms=3),
           st.sampled_from([(1, 0), (0, 1), (3, 0), (0, 3), (5, 0), (0, 5)]))
    def test_odd_single_orders(self, f, g, order):
        a, b = order
        assert hirota_d(a, b, f, g) == hirota_oracle(a, b, f, g)
        assert hirota_d(a, b, f, f).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(wide_polys(max_degree=4, max_terms=4),
           st.lists(st.tuples(wide_rationals, wide_rationals.filter(bool)),
                    min_size=4, max_size=4),
           st.sampled_from(list(Basis)))
    def test_custom_form_complex_weights(self, tau, weights, basis):
        tau = ExactPoly(tau.terms, basis)
        orders = ((4, 0), (1, 1), (0, 2), (3, 1))
        form = BilinearForm(
            "complex", tuple((QQi(re, im), a, b)
                             for (re, im), (a, b) in zip(weights, orders)),
            basis)
        expected = ExactPoly.zero(basis)
        for (re, im), (a, b) in zip(weights, orders):
            expected = expected + hirota_oracle(a, b, tau, tau).scale(QQi(re, im))
        assert form.residual(tau) == expected


class TestProperties:
    @settings(max_examples=40)
    @given(exact_polys(max_degree=3, max_terms=3),
           exact_polys(max_degree=3, max_terms=3))
    def test_antisymmetry(self, f, g):
        for (a, b) in ((1, 0), (2, 0), (1, 1), (3, 0), (2, 1)):
            lhs = hirota_d(a, b, f, g)
            rhs = hirota_d(a, b, g, f)
            if (a + b) % 2:
                assert lhs == -rhs
            else:
                assert lhs == rhs

    def test_odd_order_annihilates_diagonal(self, rng):
        for _ in range(10):
            f = random_poly(rng, max_degree=4)
            assert hirota_d(3, 0, f, f).is_zero()
            assert hirota_d(1, 2, f, f).is_zero()

    @settings(max_examples=30)
    @given(exact_polys(max_degree=3, max_terms=3),
           exact_polys(max_degree=3, max_terms=3),
           exact_polys(max_degree=3, max_terms=3))
    def test_bilinearity(self, f, g, h):
        assert hirota_d(2, 1, f + g, h) == \
            hirota_d(2, 1, f, h) + hirota_d(2, 1, g, h)

    @settings(max_examples=30)
    @given(exact_polys(max_degree=4, max_terms=4, real_only=True))
    def test_basis_covariance(self, tau):
        # residual of Dx^2 + Dy^2 equals residual of 4 Dz Dzbar after
        # conversion, converted back
        xy_res = hirota_d(2, 0, tau, tau) + hirota_d(0, 2, tau, tau)
        z = tau.to_zzbar()
        zz_res = hirota_d(1, 1, z, z).scale(4)
        assert zz_res.to_xy() == xy_res


class TestMonomialClosedForm:
    def test_sigma_eigenfactor(self):
        n = 7
        assert hirota_monomial_zz(n, n, n + 1, n - 3, 1, 1) == -3

    def test_equal_exponents_vanish(self):
        assert hirota_monomial_zz(4, 2, 4, 9, 1, 1) == 0
        assert hirota_monomial_zz(2, 2, 1, 2, 1, 1) == 0

    def test_agrees_with_hirota_d(self, rng):
        for _ in range(40):
            a, b, c, d = (rng.randint(0, 5) for _ in range(4))
            p = rng.randint(0, 3)
            q = rng.randint(0, 3)
            full = hirota_d(p, q, poly_zz({(a, b): 1}), poly_zz({(c, d): 1}))
            coeff = hirota_monomial_zz(a, b, c, d, p, q)
            key = (a + c - p, b + d - q)
            if key[0] < 0 or key[1] < 0 or coeff == 0:
                assert full.is_zero()
            else:
                assert full == poly_zz({key: coeff})

    def test_dx4_zbar_component(self):
        # matches the n(n-1) table entry used by the sigma chain
        for n in (2, 5, 9):
            assert hirota_dx4_zz_coeff(n, n) == 12 * n * n - 12 * n

    def test_axis_coeff_symmetry(self):
        for a in range(-3, 6):
            for c in range(-3, 6):
                assert hirota_axis_coeff(4, a, c) == hirota_axis_coeff(4, c, a)
                assert hirota_axis_coeff(2, a, c) == hirota_axis_coeff(2, c, a)


class TestBilinearForm:
    def test_lump_solves_standard(self):
        tau = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})
        assert STANDARD.residual(tau).is_zero()

    def test_shifted_constant_residual(self):
        # on x^2 + y^2 + c the residual is the constant 24 - 8c
        for c in (0, 1, Fraction(7, 2)):
            tau = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): c})
            res = STANDARD.residual(tau)
            assert res == ExactPoly.constant(Fraction(24) - 8 * Fraction(c))

    def test_harmonic_power_family(self):
        # (Dx^2 + Dy^2) annihilates a (x^2+y^2)^j (x+yi)^k
        from lumps.polyring import r_squared, x_plus_iy_power
        form = custom_form([("1", 2, 0), ("1", 0, 2)])
        for j, k in ((0, 3), (2, 0), (1, 2)):
            eta = (r_squared() ** j * x_plus_iy_power(k)).scale(QQi(Fraction(2), Fraction(5)))
            assert form.residual(eta).is_zero()

    def test_odd_total_order_rejected(self):
        with pytest.raises(ValueError, match="odd total order"):
            BilinearForm("bad", ((QQi.of(1), 1, 2),))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            BilinearForm("bad", ((QQi.of(0), 2, 0),))

    def test_presets(self):
        assert preset("standard") is STANDARD
        assert preset("even-section") is EVEN_SECTION
        assert preset("yang") is YANG
        assert preset("bnew") is BNEW
        assert preset("yang-elliptic") is YANG_ELLIPTIC
        with pytest.raises(KeyError):
            preset("nope")

    def test_yang_elliptic_without_catalog(self):
        # the preset must not depend on which lumps module was imported first
        code = ("import sys; from lumps import hirota; "
                "print(hirota.preset('yang-elliptic').name, "
                "'lumps.catalog' in sys.modules)")
        src = str(Path(lumps.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["yang-elliptic", "False"]

    def test_even_section_is_negated_standard(self, rng):
        for _ in range(5):
            tau = random_poly(rng, max_degree=4)
            assert EVEN_SECTION.residual(tau) == -STANDARD.residual(tau)
