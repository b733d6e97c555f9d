import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_polys, gaussian_rationals, random_poly, wide_polys, wide_rationals)
from lumps.polyring import (
    Basis, BasisMismatchError, ExactDivisionError, ExactPoly, QQi,
    poly_xy, poly_zz, r_squared, x_plus_iy_power)
from oracles import (
    division_oracle, product_oracle, squares_oracle, substitute_oracle)


class TestQQi:
    def test_field_ops(self):
        a = QQi(Fraction(1, 2), Fraction(-3))
        b = QQi(Fraction(2), Fraction(1, 3))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.conjugate() == QQi(a.re * a.re + a.im * a.im)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQi(Fraction(1)) / QQi()

    def test_json_roundtrip(self):
        for v in (QQi(Fraction(-3, 17)), QQi(Fraction(5)), QQi(Fraction(1, 2), Fraction(-2, 7))):
            assert QQi.from_json(v.to_json()) == v

    @given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestArithmetic:
    def test_add_constant(self):
        assert r_squared() + ExactPoly.constant(3) == poly_xy(
            {(2, 0): 1, (0, 2): 1, (0, 0): 3})

    def test_additive_inverse_is_empty(self):
        f = poly_xy({(1, 2): Fraction(3, 4), (0, 0): -2})
        assert (f + (-f)).is_zero()
        assert (f + (-f)).num_terms() == 0

    def test_doubling_zzbar(self):
        zz = poly_zz({(1, 1): 1})
        assert zz + zz == poly_zz({(1, 1): 2})

    def test_difference_of_squares(self):
        f = poly_xy({(1, 0): 1, (0, 1): 1})
        g = poly_xy({(1, 0): 1, (0, 1): -1})
        assert f * g == poly_xy({(2, 0): 1, (0, 2): -1})

    def test_monomial_product(self):
        zn = poly_zz({(3, 0): 1})
        zbn = poly_zz({(0, 3): 1})
        assert zn * zbn == poly_zz({(3, 3): 1})

    def test_r_squared_cubed(self):
        assert r_squared() ** 3 == poly_xy(
            {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1})

    def test_basis_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError):
            r_squared() + r_squared(Basis.ZZBAR)
        with pytest.raises(BasisMismatchError):
            r_squared() * r_squared(Basis.ZZBAR)

    def test_degree_of_product(self, rng):
        for _ in range(30):
            f = random_poly(rng)
            g = random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()

    @settings(max_examples=60)
    @given(exact_polys(), exact_polys(), exact_polys())
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f

    @settings(max_examples=60)
    @given(wide_polys(), wide_polys(), st.sampled_from(list(Basis)))
    def test_mul_matches_product_oracle(self, f, g, basis):
        # Gaussian coefficients with large, unrelated denominators
        f, g = ExactPoly(f.terms, basis), ExactPoly(g.terms, basis)
        assert f * g == product_oracle(f, g)
        assert f * f == product_oracle(f, f)


class TestDiff:
    def test_dxx_of_lump(self):
        tau = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})
        assert tau.diff(0, 2) == ExactPoly.constant(2)

    def test_dz_of_monomial(self):
        f = poly_zz({(4, 4): 1})
        assert f.diff(0, 1) == poly_zz({(3, 4): 4})

    def test_high_order_annihilates(self):
        f = poly_xy({(2, 3): 5, (1, 1): 1})
        assert f.diff(1, 4).is_zero()

    def test_axis_by_name(self):
        f = poly_xy({(1, 1): 1})
        assert f.diff("x") == poly_xy({(0, 1): 1})
        with pytest.raises(ValueError):
            f.diff("z")


class TestBasisConversion:
    def test_modulus_identity(self):
        assert r_squared().to_zzbar() == poly_zz({(1, 1): 1})

    def test_lump_tau(self):
        tau = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})
        assert tau.to_zzbar() == poly_zz({(1, 1): 1, (0, 0): 3})

    def test_x_plus_iy(self):
        assert x_plus_iy_power(3).to_zzbar() == poly_zz({(3, 0): 1})

    @settings(max_examples=100)
    @given(exact_polys(max_degree=6))
    def test_roundtrip(self, f):
        assert f.to_zzbar().to_xy() == f

    @settings(max_examples=60)
    @given(exact_polys(real_only=True))
    def test_real_gives_conjugation_symmetry(self, f):
        z = f.to_zzbar()
        for (a, b), c in z.terms.items():
            assert z.coeff(b, a) == c.conjugate()

    @settings(max_examples=60)
    @given(exact_polys())
    def test_diff_commutes_with_conversion(self, f):
        # d/dx becomes d/dz + d/dzbar
        lhs = f.diff(0, 1).to_zzbar()
        g = f.to_zzbar()
        assert lhs == g.diff(0, 1) + g.diff(1, 1)


@st.composite
def complex_lead_divisors(draw, basis):
    """Wide polynomials whose graded-lex leading coefficient is a non-real,
    non-unit Gaussian rational."""
    terms = draw(wide_polys(basis=basis, max_degree=3, max_terms=3)).terms
    lead = max(terms, key=lambda k: (k[0] + k[1], k[0]))
    nonzero = wide_rationals.filter(bool)
    terms[lead] = QQi(draw(nonzero), draw(nonzero))
    return ExactPoly(terms, basis)


class TestAgainstOracles:
    @settings(max_examples=80)
    @given(wide_polys(max_degree=8, max_terms=6), st.sampled_from(list(Basis)))
    def test_conversion_matches_substitute_oracle(self, f, basis):
        f = ExactPoly(f.terms, basis)
        got = f.to_zzbar() if basis is Basis.XY else f.to_xy()
        assert got == substitute_oracle(f)

    @settings(max_examples=60)
    @given(st.sampled_from(list(Basis)), st.data())
    def test_exact_division_matches_division_oracle(self, basis, data):
        g = data.draw(complex_lead_divisors(basis))
        q = data.draw(wide_polys(basis=basis, max_degree=3, max_terms=3))
        f = q * g
        quot, rem = division_oracle(f, g)
        assert rem.is_zero()
        assert f.divide_exact(g) == quot == q

    @settings(max_examples=60)
    @given(st.sampled_from(list(Basis)), st.data())
    def test_nonexact_division_matches_division_oracle(self, basis, data):
        g = data.draw(complex_lead_divisors(basis))
        q = data.draw(wide_polys(basis=basis, max_degree=3, max_terms=3))
        r = data.draw(wide_polys(basis=basis, max_degree=2, max_terms=2))
        f = q * g + r
        quot, rem = division_oracle(f, g)
        if rem.is_zero():
            assert f.divide_exact(g) == quot
            return
        with pytest.raises(ExactDivisionError) as err:
            f.divide_exact(g)
        assert err.value.remainder == rem
        assert str(err.value) == (f"polynomial division is not exact; "
                                  f"remainder has {rem.num_terms()} term(s)")


class TestDivideExact:
    def test_difference_of_fourth_powers(self):
        f = poly_xy({(4, 0): 1, (0, 4): -1})
        assert f.divide_exact(r_squared()) == poly_xy({(2, 0): 1, (0, 2): -1})

    def test_zzbar_quotient(self):
        f = poly_zz({(2, 2): 1})
        g = poly_zz({(1, 1): 1})
        assert f.divide_exact(g) == g

    def test_xi_quotient_exists(self):
        # (Dx^2+Dy^2) g_0 . g_1 at n = 3 is divisible by (x^2+y^2)^2
        from lumps.classify import g_poly
        from lumps.hirota import hirota_d
        xi = hirota_d(2, 0, g_poly(3, 0), g_poly(3, 1)) + \
            hirota_d(0, 2, g_poly(3, 0), g_poly(3, 1))
        q = xi.divide_exact(r_squared() ** 2)
        assert q * r_squared() ** 2 == xi

    def test_nonexact_division_carries_remainder(self):
        f = poly_xy({(1, 0): 1, (0, 0): 1})
        with pytest.raises(ExactDivisionError) as err:
            f.divide_exact(poly_xy({(0, 1): 1}))
        assert not err.value.remainder.is_zero()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            r_squared().divide_exact(ExactPoly.zero())

    @settings(max_examples=60)
    @given(exact_polys(max_terms=4), exact_polys(max_terms=4))
    def test_mul_then_divide_roundtrip(self, q, g):
        if g.is_zero():
            return
        assert (q * g).divide_exact(g) == q


class TestEvaluation:
    def test_eval_exact(self):
        f = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3})
        assert f.eval_exact(Fraction(1, 2), Fraction(-2)) == \
            QQi(Fraction(1, 4) + 4 + 3)
        g = poly_zz({(1, 1): QQi(Fraction(0), Fraction(1))})
        assert g.eval_exact(QQi(Fraction(2)), QQi(Fraction(0), Fraction(1))) \
            == QQi(Fraction(-2))

    def test_eval_complex_matches_exact(self, rng):
        for _ in range(10):
            f = random_poly(rng, real_only=False)
            exact = f.eval_exact(Fraction(1, 3), Fraction(-5, 7))
            approx = f.eval_complex(1 / 3, -5 / 7)
            assert abs(complex(exact) - approx) < 1e-9

    def test_conjugate_coeffs(self):
        f = poly_zz({(2, 1): QQi(Fraction(1), Fraction(3))})
        assert f.conjugate_coeffs() == poly_zz(
            {(2, 1): QQi(Fraction(1), Fraction(-3))})


class TestSubstituteSquares:
    def test_examples(self):
        assert poly_xy({(2, 2): 1}).substitute_squares(-1, 1) == QQi(Fraction(-1))
        assert (r_squared() ** 2).substitute_squares(-1, 1) == QQi()
        assert poly_xy({(4, 0): 1, (0, 4): 1}).substitute_squares(-1, 1) == \
            QQi(Fraction(2))

    @settings(max_examples=60)
    @given(wide_polys(max_degree=5), gaussian_rationals(), gaussian_rationals())
    def test_matches_squares_oracle(self, f, x2, y2):
        f = ExactPoly({(2 * i, 2 * j): c for (i, j), c in f.terms.items()})
        assert f.substitute_squares(x2, y2) == squares_oracle(f, x2, y2)

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError, match="odd exponent"):
            poly_xy({(1, 2): 1}).substitute_squares(-1, 1)


class TestInterchange:
    def test_roundtrip(self, rng):
        for _ in range(20):
            p = random_poly(rng, real_only=False)
            assert ExactPoly.loads(p.dumps()) == p

    def test_format_shape(self):
        p = poly_xy({(2, 0): Fraction(1, 2), (0, 1): QQi(Fraction(0), Fraction(-2, 3))})
        doc = json.loads(p.dumps())
        assert doc["basis"] == "xy"
        by_key = {(i, j): c for i, j, c in doc["terms"]}
        assert by_key[(2, 0)] == "1/2"
        assert by_key[(0, 1)] == {"re": "0", "im": "-2/3"}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ExactPoly({(-1, 0): 1}, Basis.XY)
