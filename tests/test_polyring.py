import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    conjugate, exact_polys, gaussian_rationals, random_poly, wide_polys,
    wide_rationals, x_plus_iy_power)
from lumps.hirota import STANDARD, hirota_d
from lumps.polyring import (
    ONE, Basis, BasisMismatchError, ExactDivisionError, ExactPoly, QQi,
    parse_rational, poly_xy, poly_zz, r_squared)
from oracles import (
    _div, diff_oracle, division_oracle, product_oracle, scale_oracle,
    substitute_oracle, sum_oracle)


class TestQQi:
    def test_no_arithmetic(self):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__neg__", "__complex__"):
            assert op not in vars(QQi), op

    def test_json_roundtrip(self):
        for v in (QQi(Fraction(-3, 17)), QQi(Fraction(5)), QQi(Fraction(1, 2), Fraction(-2, 7))):
            assert QQi.from_json(v.to_json()) == v

    @pytest.mark.parametrize("value", [0.1, 1.0, "1/3", None, 1j])
    def test_only_exact_coefficients(self, value):
        # a float would store its binary expansion, a string its parse
        with pytest.raises(TypeError, match="exact coefficient"):
            QQi.of(value)
        with pytest.raises(TypeError, match="exact coefficient"):
            ExactPoly({(0, 0): value})
        with pytest.raises(TypeError, match="exact coefficient"):
            ExactPoly.constant(value)
        with pytest.raises(TypeError, match="exact coefficient"):
            poly_xy({(1, 0): 1}).scale(value)


class TestParseRational:
    @pytest.mark.parametrize("value, expected", [
        (" 2 ", Fraction(2)), ("0.25", Fraction(1, 4)), ("-3/4", Fraction(-3, 4)),
        (3, Fraction(3)), ("1e4300", Fraction(10 ** 4300)),
    ])
    def test_accepts(self, value, expected):
        assert parse_rational(value) == expected

    @pytest.mark.parametrize("value", [
        # an exponent past 4300 is refused before Fraction builds 10**e,
        # which takes seconds at 1e10000000
        "1e4301", "1e-4301", "1e10000000", "1e-10000000", "nan", "inf", True,
    ])
    def test_refuses(self, value):
        with pytest.raises(ValueError):
            parse_rational(value)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


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

    def test_axis_is_an_index(self):
        f = poly_xy({(1, 1): 1})
        assert f.diff(0) == poly_xy({(0, 1): 1})
        for axis in ("x", 2):
            with pytest.raises(ValueError, match="axis index must be 0 or 1"):
                f.diff(axis)


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
            assert z.coeff(b, a) == conjugate(c)

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


def lead_norm(g):
    """|g0|^2 of the graded-lex leading numerator g0 of g."""
    _, num = g.numerators()
    r, m = num[max(num, key=lambda k: (k[0] + k[1], k[0]))]
    return r * r + m * m


@st.composite
def unit_lead_divisors(draw, basis):
    """Divisors of degree 4 with Gaussian-integer numerators over a drawn
    denominator and a unit (1, -1, i or -i) leading numerator."""
    ints = st.integers(-10**20, 10**20)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 3))
        j = draw(st.integers(0, 3 - i))
        terms[(i, j)] = QQi(Fraction(draw(ints)), Fraction(draw(ints)))
    i = draw(st.integers(0, 4))
    terms[(i, 4 - i)] = draw(st.sampled_from(
        [QQi(Fraction(1)), QQi(Fraction(-1)), QQi(Fraction(0), Fraction(1)),
         QQi(Fraction(0), Fraction(-1))]))
    return ExactPoly(terms, basis).scale(Fraction(1, draw(st.integers(1, 10**12))))


any_polys = st.sampled_from(list(Basis)).flatmap(
    lambda b: st.one_of(exact_polys(basis=b), wide_polys(basis=b)))


def assert_canonical(p):
    """gcd(den, every numerator) = 1, den > 0, no zero entry."""
    den, num = p.numerators()
    assert den > 0
    assert all(r or m for r, m in num.values())
    assert math.gcd(den, *(x for c in num.values() for x in c)) == 1


def same_terms(got, want):
    """Equal values in the same term order."""
    assert list(got.terms.items()) == list(want.terms.items())


class TestStoredForm:
    @settings(max_examples=80)
    @given(any_polys, any_polys, gaussian_rationals())
    def test_every_operation_is_canonical(self, f, g, c):
        g = ExactPoly(g.terms, f.basis)
        results = [f, f + g, f - g, f - f, -f, f * g, f ** 2, f.scale(c),
                   f.diff(0), f.diff(1, 2), hirota_d(2, 1, f, g),
                   f.to_zzbar() if f.basis is Basis.XY else f.to_xy()]
        if not g.is_zero():
            results.append((f * g).divide_exact(g))
        if f.basis is Basis.XY:
            results.append(STANDARD.residual(f))
        for p in results:
            assert_canonical(p)

    @settings(max_examples=80)
    @given(any_polys)
    def test_terms_rebuild_the_same_polynomial(self, p):
        q = ExactPoly(p.terms, p.basis)
        assert q == p and hash(q) == hash(p)
        same_terms(q, p)

    @settings(max_examples=80)
    @given(any_polys, any_polys, gaussian_rationals())
    def test_inverse_operations(self, p, q, c):
        q = ExactPoly(q.terms, p.basis)
        assert p + q - q == p
        if not c.is_zero():
            assert p.scale(c).scale(_div(ONE, c)) == p

    @settings(max_examples=80)
    @given(any_polys, any_polys, gaussian_rationals(), st.integers(0, 1),
           st.integers(0, 3))
    def test_operations_match_term_oracles(self, f, g, c, axis, order):
        g = ExactPoly(g.terms, f.basis)
        same_terms(f + g, sum_oracle(f, g))
        same_terms(f - g, sum_oracle(f, scale_oracle(g, QQi(Fraction(-1)))))
        same_terms(-f, scale_oracle(f, QQi(Fraction(-1))))
        same_terms(f.scale(c), scale_oracle(f, c))
        same_terms(f * g, product_oracle(f, g))
        same_terms(f ** 2, product_oracle(f, f))
        same_terms(f.diff(axis, order), diff_oracle(f, axis, order))

    @settings(max_examples=60)
    @given(st.sampled_from(list(Basis)), st.booleans(), st.data())
    def test_mul_then_divide_for_unit_and_other_leads(self, basis, unit, data):
        g = data.draw(unit_lead_divisors(basis) if unit else complex_lead_divisors(basis))
        assert (lead_norm(g) == 1) == unit
        p = data.draw(wide_polys(basis=basis, max_degree=3, max_terms=3))
        f = p * g
        got = f.divide_exact(g)
        assert got == p
        same_terms(got, division_oracle(f, g)[0])


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

    def test_non_integral_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-integral exponent"):
            ExactPoly({(2.5, 0): 1}, Basis.XY)
        assert ExactPoly({(2.0, 0): 1}, Basis.XY) == poly_xy({(2, 0): 1})

    @pytest.mark.parametrize("terms, reason", [
        ([[2.5, 0, "1"]], "exponents must be integers"),
        ([["2", 0, "1"]], "exponents must be integers"),
        ([[True, 0, "1"]], "exponents must be integers"),
        ([[2, 0, "1"], [2, 0, "5"]], "repeated monomial"),
        ([[2, 0, {"re": "1", "imag": "5"}]], "coefficient keys"),
        ([[0, 0, "1/0"]], "zero denominator"),
        ([[2, 0, {"re": "1", "im": "1/0"}]], "zero denominator"),
    ])
    def test_malformed_interchange_rejected(self, terms, reason):
        with pytest.raises(ValueError, match=reason):
            ExactPoly.from_json_dict({"basis": "xy", "terms": terms})
