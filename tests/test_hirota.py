import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import exact_polys, fresh_python, random_poly, wide_polys, wide_rationals
from lumps.catalog import catalog
from lumps.hirota import (
    BNEW, STANDARD, YANG, YANG_ELLIPTIC, BilinearForm, custom_form,
    PRESETS, hirota_axis_coeff, hirota_d, hirota_dx4_zz_coeff,
    hirota_monomial_zz)
from lumps.polyring import Basis, BasisMismatchError, ExactPoly, QQi, \
    poly_xy, poly_zz
from oracles import _axis, hirota_oracle


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


#: four nonzero rational weights, for ``weighted_form``
form_weights = st.lists(wide_rationals.filter(bool), min_size=4, max_size=4)


#: the orders of ``weighted_form``, all of even total
FORM_ORDERS = ((4, 0), (1, 1), (0, 2), (3, 1))


def weighted_form(weights):
    """The orders FORM_ORDERS, one rational weight each."""
    return BilinearForm("weighted", tuple(
        (w, a, b) for w, (a, b) in zip(weights, FORM_ORDERS)))


def oracle_pairing(weights, f, g):
    """sum_k w_k D^{FORM_ORDERS[k]} f.g by the shift-variable oracle."""
    expected = ExactPoly.zero(f.basis)
    for w, (a, b) in zip(weights, FORM_ORDERS):
        expected = expected + hirota_oracle(a, b, f, g).scale(w)
    return expected


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
    wide Gaussian coefficients, odd orders, f != g and rational weights."""

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
    @given(wide_polys(max_degree=4, max_terms=4), form_weights)
    def test_form_rational_weights(self, tau, weights):
        assert weighted_form(weights).residual(tau) == oracle_pairing(weights, tau, tau)


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

    def test_dx4_closed_form_is_the_axis_sum(self):
        # the formal chains reach negative exponents
        for b in range(-40, 41):
            for d in range(-40, 41):
                c = hirota_dx4_zz_coeff(b, d)
                assert type(c) is int
                assert c == hirota_axis_coeff(4, b, d), (b, d)
        big = 10**30
        for b, d in ((big, big), (big, -big), (-big, 7), (3, big + 1)):
            c = hirota_dx4_zz_coeff(b, d)
            assert type(c) is int
            assert c == hirota_axis_coeff(4, b, d), (b, d)

    def test_axis_coeff_matches_oracle_sum(self):
        # the bounded, incremental sum against the plain one, negative
        # exponents (the formal chains) included
        for order in range(9):
            for a in range(-6, 31):
                for c in range(-6, 31):
                    assert hirota_axis_coeff(order, a, c) == _axis(order, a, c), \
                        (order, a, c)

    def test_axis_coeff_vanishes_below_the_order(self):
        # a, c >= 0 with a + c < order: zero without summing 10^6 terms
        assert hirota_axis_coeff(10**6, 3, 4) == 0
        assert hirota_axis_coeff(10**6, 0, 0) == 0
        assert hirota_axis_coeff(7, 3, 4) == _axis(7, 3, 4) != 0

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
        from conftest import x_plus_iy_power
        from lumps.polyring import r_squared
        form = custom_form([("1", 2, 0), ("1", 0, 2)])
        for j, k in ((0, 3), (2, 0), (1, 2)):
            eta = (r_squared() ** j * x_plus_iy_power(k)).scale(QQi(Fraction(2), Fraction(5)))
            assert form.residual(eta).is_zero()

    def test_odd_total_order_rejected(self):
        with pytest.raises(ValueError, match="odd total order"):
            BilinearForm("bad", ((1, 1, 2),))

    @pytest.mark.parametrize("w", [1.5, True, "1", QQi.of(1)])
    def test_weights_are_rational(self, w):
        # an int (not a bool) or a Fraction; a Gaussian weight is refused
        with pytest.raises(TypeError, match="form 'bad': weight"):
            BilinearForm("bad", ((w, 2, 0),))

    def test_zero_weight_rejected(self):
        for w in (0, Fraction(0)):
            with pytest.raises(ValueError, match="zero weight"):
                BilinearForm("bad", ((w, 2, 0),))

    def test_custom_form_reads_rationals(self):
        form = custom_form([["3/2", 4, 0], ["-1", 2, 0], [2, 0, 2]])
        assert form.terms == ((Fraction(3, 2), 4, 0), (-1, 2, 0), (2, 0, 2))
        assert all(type(w) is Fraction for w, _, _ in form.terms)

    def test_forms_act_on_xy_only(self):
        # a form has a name and terms and no basis: (z, zbar) is refused
        assert [f.name for f in dataclasses.fields(BilinearForm)] == ["name", "terms"]
        zz = poly_zz({(1, 1): 1, (0, 0): 3})
        for form in (*PRESETS.values(), custom_form([["1", 1, 1]])):
            with pytest.raises(BasisMismatchError):
                form.residual(zz)
            with pytest.raises(BasisMismatchError):
                form.pairing(zz, zz)

    @pytest.mark.parametrize("a, b", [(4.5, 0), ("4", 0), (True, True), (-2, 0),
                                      (2, 2.0)])
    def test_orders_are_nonnegative_ints(self, a, b):
        # int() would truncate 4.5 and read "4" as 4 and true as 1
        with pytest.raises(ValueError, match="integers >= 0"):
            BilinearForm("bad", ((1, a, b),))
        with pytest.raises(ValueError, match="integers >= 0"):
            custom_form([["1", a, b]])

    def test_presets(self):
        forms = (STANDARD, YANG, BNEW, YANG_ELLIPTIC)
        assert set(PRESETS) == {"standard", "yang", "bnew", "yang-elliptic"}
        assert all(PRESETS[f.name] is f for f in forms)
        assert "nope" not in PRESETS

    def test_yang_elliptic_without_catalog(self):
        # the preset must not depend on which lumps module was imported first
        code = ("import sys; from lumps import hirota; "
                "print(hirota.PRESETS['yang-elliptic'].name, "
                "'lumps.catalog' in sys.modules)")
        out = fresh_python("-c", code, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["yang-elliptic", "False"]


class TestPairing:
    """B(f, g) = sum w_k D1^{a_k} D2^{b_k} f.g of two different polynomials."""

    @settings(max_examples=30, deadline=None)
    @given(wide_polys(max_degree=4, max_terms=4),
           wide_polys(max_degree=4, max_terms=4), form_weights)
    def test_identities(self, f, g, weights):
        form = weighted_form(weights)
        pair = form.pairing(f, g)
        assert form.pairing(f, f) == form.residual(f)
        assert pair == form.pairing(g, f)
        assert form.residual(f + g) == \
            form.residual(f) + pair.scale(2) + form.residual(g)

    @settings(max_examples=30, deadline=None)
    @given(wide_polys(max_degree=3, max_terms=3),
           wide_polys(max_degree=3, max_terms=3), form_weights)
    def test_against_oracle(self, f, g, weights):
        assert weighted_form(weights).pairing(f, g) == oracle_pairing(weights, f, g)

    def test_basis_mismatch(self):
        xy, zz = poly_xy({(1, 0): 1}), poly_zz({(1, 0): 1})
        for f, g in ((xy, zz), (zz, xy), (zz, zz)):
            with pytest.raises(BasisMismatchError):
                STANDARD.pairing(f, g)


#: real polynomials with wide coefficients: only the real-times-real pass runs
real_polys = st.builds(
    lambda p: ExactPoly({k: QQi(c.re) for k, c in p.terms.items()}, p.basis),
    wide_polys(max_degree=4, max_terms=4))


class TestKernelLoops:
    """The kernel runs one integer pair loop per product of the real and
    imaginary parts of f and g, skipping those with an empty part, on packed
    monomial keys i*W + j with W above every y-exponent sum; each against
    the oracle.  Forms act on (x, y); ``hirota_d`` runs in the drawn basis."""

    @settings(max_examples=30, deadline=None)
    @given(real_polys, form_weights)
    def test_real_symmetric(self, tau, weights):
        assert weighted_form(weights).residual(tau) == oracle_pairing(weights, tau, tau)

    @settings(max_examples=30, deadline=None)
    @given(real_polys, real_polys, form_weights, st.sampled_from(list(Basis)))
    def test_real_pair(self, f, g, weights, basis):
        assert weighted_form(weights).pairing(f, g) == oracle_pairing(weights, f, g)
        f, g = ExactPoly(f.terms, basis), ExactPoly(g.terms, basis)
        assert hirota_d(3, 1, f, g) == hirota_oracle(3, 1, f, g)

    @settings(max_examples=30, deadline=None)
    @given(real_polys, wide_polys(max_degree=4, max_terms=4), form_weights)
    def test_real_with_complex(self, f, g, weights):
        # one real factor leaves a cross pass to run, in either slot
        form = weighted_form(weights)
        assert form.pairing(f, g) == oracle_pairing(weights, f, g)
        assert form.pairing(g, f) == oracle_pairing(weights, g, f)

    @pytest.mark.parametrize("form", list(PRESETS.values()), ids=list(PRESETS))
    def test_each_pass_on_the_catalog(self, form):
        # tau i is purely imaginary: its residual runs the i.i pass alone,
        # and pairing(tau, tau i) the two cross passes alone
        i = QQi(Fraction(0), Fraction(1))
        for rec in catalog().values():
            tau = rec.bind({"a": Fraction(1, 2), "b": Fraction(-3)} if rec.params else {})
            residual = form.residual(tau)
            assert form.residual(tau.scale(i)) == residual.scale(-1)
            assert form.pairing(tau, tau.scale(i)) == residual.scale(i)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_empty_and_constant(self, basis):
        zero = ExactPoly.zero(basis)
        c = ExactPoly.constant(QQi(Fraction(3), Fraction(-2)), basis)
        f = ExactPoly({(2, 1): 5, (0, 3): QQi(Fraction(1), Fraction(1))}, basis)
        for p, q in ((zero, f), (f, zero), (c, c), (c, f), (f, c)):
            assert hirota_d(0, 0, p, q) == p * q
            for a, b in FORM_ORDERS:
                assert hirota_d(a, b, p, q) == hirota_oracle(a, b, p, q)

    def test_form_on_empty_and_constant(self):
        zero = ExactPoly.zero()
        c = ExactPoly.constant(QQi(Fraction(3), Fraction(-2)))
        f = poly_xy({(2, 1): 5, (0, 3): QQi(Fraction(1), Fraction(1))})
        weights = [1, Fraction(-1, 2), Fraction(1, 3), 7]
        form = weighted_form(weights)
        assert form.residual(zero) == zero
        for p, q in ((zero, f), (f, zero), (c, c), (c, f), (f, c)):
            assert form.pairing(p, q) == oracle_pairing(weights, p, q)
        assert form.residual(c) == oracle_pairing(weights, c, c)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("im", [0, 1])
    def test_top_y_sum_beside_an_x_step(self, basis, im):
        # y^3.y^2 reaches the y-sum W - 1 = 5 at x^0 beside x^1 outputs;
        # with W one too small x^0 y^5 would read as x^1 y^0
        f = ExactPoly({(0, 3): 1, (1, 0): QQi(Fraction(2), Fraction(im))}, basis)
        g = ExactPoly({(0, 2): 7, (1, 0): -3, (0, 0): 1}, basis)
        for a, b in ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2)):
            assert hirota_d(a, b, f, g) == hirota_oracle(a, b, f, g)
        weights = [1, 2, -1, Fraction(1, 2)]
        f = ExactPoly(f.terms)
        assert weighted_form(weights).residual(f) == oracle_pairing(weights, f, f)
