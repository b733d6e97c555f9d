import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import exact_polys, rationals
from hypothesis import given

from lumps import cm
from lumps.catalog import TauRecord, catalog
from lumps.hirota import BNEW
from lumps.polyring import QQi, poly_xy
from oracles import eval_oracle

CAT = catalog()
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


#: p/q with q <= 8 and |p/q| <= 8, as the benchmark draws them, then 20 and 50
LOCUS_HEIGHTS = [Fraction(v) for v in (
    "-8", "-61/8", "-7", "-47/7", "-13/2", "-6", "-28/5", "-16/3", "-5", "-9/2",
    "-4", "-7/3", "-3", "-5/2", "-3/2", "-1", "-5/8", "-1/3", "-1/7", "1/8",
    "1/6", "2/5", "3/4", "4/3", "11/4", "17/5", "23/6", "37/7", "43/8", "13/2",
    "8", "20", "50")]


def max_abs(*arrays):
    return max(float(np.max(np.abs(a))) for a in arrays)


def pair_roots(reference, candidates, ambiguity_ratio=0.5):
    """Match each reference root to its nearest candidate, injectively.

    Raises ValueError instead of guessing when the matching is ambiguous:
    the second-nearest candidate is farther than the nearest by less than
    ``ambiguity_ratio`` times the nearest distance.
    """
    remaining = list(candidates)
    out = []
    for r in reference:
        remaining.sort(key=lambda c: abs(c - r))
        if len(remaining) >= 2:
            d0 = abs(remaining[0] - r)
            d1 = abs(remaining[1] - r)
            if d0 > 0 and (d1 - d0) < ambiguity_ratio * d0:
                raise ValueError(
                    f"ambiguous root pairing near {r}: two candidates at "
                    f"distance {d0:.3e} and {d1:.3e}")
        out.append(remaining.pop(0))
    return out


class TestLocus:
    def test_lump_at_y0(self):
        cfg = cm.PoleConfig((1j * SQRT3, -1j * SQRT3), (0j, 0j))
        r1, r2 = cm.locus_residual(cfg)
        assert max_abs(r1, r2) < 1e-14

    def test_lump_at_y1(self):
        beta = 3j / SQRT6
        cfg = cm.PoleConfig((1j * SQRT6, -1j * SQRT6), (beta, -beta))
        r1, r2 = cm.locus_residual(cfg)
        assert max_abs(r1, r2) < 1e-14

    def test_single_pole_residual(self):
        # empty pair sums: second identity reduces to beta^2 + 3
        cfg = cm.PoleConfig((0j,), (2j,))
        r1, r2 = cm.locus_residual(cfg)
        assert max_abs(r1) == 0.0
        assert r2[0] == pytest.approx((2j) ** 2 + 3)
        on = cm.PoleConfig((0j,), (1j * SQRT3,))
        _, r2 = cm.locus_residual(on)
        assert abs(r2[0]) < 1e-14

    def test_coincident_poles_rejected(self):
        with pytest.raises(cm.CoincidentPolesError, match="below threshold 1.0e-08"):
            cm.PoleConfig((1j, 1j + 1e-12), (0j, 0j))


class TestPairSums:
    def test_each_sum_is_nan_only_past_its_own_power(self):
        # poles +-1e80, gap 2e80: d^3 = 8e240 fits a float, d^4 = 1.6e321 does not
        cfg = cm.PoleConfig((1e80 + 0j, -1e80 + 0j), (0j, 0j))
        s3 = cm._pair_sums(cfg, 3, lambda j, k: 8.0)
        assert s3 == pytest.approx([1e-240, -1e-240], rel=1e-12, abs=0)
        s4 = cm._pair_sums(cfg, 4, lambda j, k: 1.0)
        assert all(cmath.isnan(v) for v in s4)
        # locus and the second tangent identity use powers up to 3: finite;
        # the first tangent identity has a fourth power: nan at every pole
        r1, r2 = cm.locus_residual(cfg)
        assert all(cmath.isfinite(v) for v in r1 + r2)
        t1, t2 = cm.tangent_residual(cfg, cm.TangentVector((1j, 0j), (1 + 0j, 1 + 0j)))
        assert all(cmath.isnan(v) for v in t1)
        assert t2 == pytest.approx([-4.5e-240j, -4.5e-240j], rel=1e-12, abs=0)

    def test_powers_and_signs(self):
        # asymmetric configuration: an off-by-one power or a flipped
        # difference changes every sum
        cfg = cm.PoleConfig((0j, 1 + 0j, 2j), (0j, 0j, 0j))
        got = cm._pair_sums(cfg, 3, lambda j, k: j + 2 * k)
        want = [sum((j + 2 * k) / (cfg.eta[j] - cfg.eta[k]) ** 3
                    for k in range(3) if k != j) for j in range(3)]
        assert got == pytest.approx(want, rel=1e-15)


class TestTangent:
    def _lump_cfg(self):
        beta = 3j / SQRT6
        return cm.PoleConfig((1j * SQRT6, -1j * SQRT6), (beta, -beta))

    def test_zero_vector(self):
        cfg = self._lump_cfg()
        t1, t2 = cm.tangent_residual(cfg, cm.TangentVector((0j, 0j), (0j, 0j)))
        assert max_abs(t1, t2) == 0.0

    def test_translation_direction(self):
        # constant a, zero b: a_j - a_k vanishes identically
        cfg = self._lump_cfg()
        t1, t2 = cm.tangent_residual(
            cfg, cm.TangentVector((1 + 2j, 1 + 2j), (0j, 0j)))
        assert max_abs(t1, t2) == 0.0

    def test_flow_is_tangent(self):
        cfg = self._lump_cfg()
        t1, t2 = cm.tangent_residual(cfg, cm.cm_rhs(cfg))
        assert max_abs(t1, t2) < 1e-13

    def test_length_mismatch(self):
        cfg = self._lump_cfg()
        with pytest.raises(ValueError):
            cm.tangent_residual(cfg, cm.TangentVector((0j,), (0j,)))


class TestCmRhs:
    def test_acceleration_matches_analytic(self):
        # eta(y) = +-i sqrt(3y^2+3): eta'' at y=0 is +-i sqrt(3)
        cfg = cm.PoleConfig((1j * SQRT3, -1j * SQRT3), (0j, 0j))
        flow = cm.cm_rhs(cfg)
        assert flow.a == cfg.beta
        assert flow.b[0] == pytest.approx(1j * SQRT3)
        assert flow.b[1] == pytest.approx(-1j * SQRT3)

    def test_single_pole_empty_sum(self):
        flow = cm.cm_rhs(cm.PoleConfig((1j,), (0j,)))
        assert flow.b == (0j,)

    def test_antisymmetric_for_symmetric_pair(self):
        w, v = 2.0 + 1.5j, 0.3 - 0.2j
        flow = cm.cm_rhs(cm.PoleConfig((w, -w), (v, -v)))
        assert flow.b[0] == pytest.approx(-flow.b[1])


class TestPolesFromTau:
    def test_lump_y0(self):
        cfg = cm.poles_from_tau(CAT["lump2-bnew"], Fraction(0))
        eta = sorted(cfg.eta, key=lambda z: z.imag)
        assert eta[0] == pytest.approx(-1j * SQRT3, abs=1e-10)
        assert eta[1] == pytest.approx(1j * SQRT3, abs=1e-10)
        assert max(abs(b) for b in cfg.beta) < 1e-12

    def test_lump_y1(self):
        cfg = cm.poles_from_tau(CAT["lump2-bnew"], Fraction(1))
        eta = sorted(cfg.eta, key=lambda z: z.imag)
        assert eta[1] == pytest.approx(1j * SQRT6, abs=1e-10)
        paired_beta = dict(zip([e.imag > 0 for e in cfg.eta], cfg.beta))
        assert paired_beta[True] == pytest.approx(3j / SQRT6, abs=1e-10)

    def test_pelin6_root_symmetry(self):
        cfg = cm.poles_from_tau(CAT["pelin6-bnew"], Fraction(0))
        assert cfg.n == 6
        eta = np.array(cfg.eta)
        # real tau: roots closed under conjugation; even tau: under negation
        for op in (np.conj, lambda z: -z):
            for e in eta:
                assert np.min(np.abs(eta - op(e))) < 1e-10

    @pytest.mark.parametrize("y", [0.1, 1.0 / 3.0, -2.5, 7e-13])
    def test_float_height_taken_exactly(self, y):
        # a float counts at its exact binary value, not a nearby rational
        for rid in ("lump2-bnew", "pelin6-bnew"):
            a = cm.poles_from_tau(CAT[rid], y)
            b = cm.poles_from_tau(CAT[rid], Fraction(y))
            assert a.eta == b.eta
            assert a.beta == b.beta

    def test_wrong_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            cm.poles_from_tau(CAT["lump2"], Fraction(0))

    def test_double_root_rejected(self):
        # tau(x, 0) = x^2: the companion roots are exact, and tau_x is 0 there
        rec = TauRecord.plain("double", poly_xy({(2, 0): 1, (0, 2): 1}),
                              Fraction(3, 2), BNEW)
        with pytest.raises(cm.CoincidentPolesError, match="tau_x vanishes"):
            cm.poles_from_tau(rec, Fraction(0))

    @pytest.mark.parametrize("rid", ["lump2-bnew", "pelin6-bnew",
                                     "pelin12-corrected-bnew"])
    @pytest.mark.parametrize("y", [Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(2)] + LOCUS_HEIGHTS)
    def test_catalog_configs_on_locus(self, rid, y):
        cfg = cm.poles_from_tau(CAT[rid], y)
        r1, r2 = cm.locus_residual(cfg)
        assert max_abs(r1, r2) <= 1e-9
        t1, t2 = cm.tangent_residual(cfg, cm.cm_rhs(cfg))
        assert max_abs(t1, t2) <= 1e-9

    def test_finite_difference_beta(self):
        # implicit-differentiation beta matches the symmetric difference of
        # paired roots to O(eps^2)
        eps = Fraction(1, 100000)
        for rid in ("lump2-bnew", "pelin6-bnew"):
            base = cm.poles_from_tau(CAT[rid], Fraction(1))
            plus = cm.poles_from_tau(CAT[rid], Fraction(1) + eps)
            minus = cm.poles_from_tau(CAT[rid], Fraction(1) - eps)
            p = pair_roots(base.eta, plus.eta)
            m = pair_roots(base.eta, minus.eta)
            fd = [(a - b) / (2 * float(eps)) for a, b in zip(p, m)]
            err = max(abs(f - b) for f, b in zip(fd, base.beta))
            assert err < 1e-8


class TestAtHeight:
    @pytest.mark.parametrize("rid", ["lump2-bnew", "pelin6-bnew",
                                     "pelin12-corrected-bnew"])
    @pytest.mark.parametrize("x, y", [(Fraction(2, 3), Fraction(-7, 5)),
                                      (Fraction(-5), Fraction(1, 9))])
    def test_catalog_against_oracle(self, rid, x, y):
        tau = CAT[rid].tau()
        p, q = cm._at_height(tau, y)
        assert sum(c * x ** i for i, c in enumerate(p)) == eval_oracle(tau, x, y).re
        assert sum(c * x ** i for i, c in enumerate(q)) == eval_oracle(tau.diff(1), x, y).re

    @given(exact_polys(real_only=True), rationals, rationals)
    def test_random_against_oracle(self, f, x, y):
        p, q = cm._at_height(f, y)
        assert QQi(sum(c * x ** i for i, c in enumerate(p))) == eval_oracle(f, x, y)
        assert QQi(sum(c * x ** i for i, c in enumerate(q))) == eval_oracle(f.diff(1), x, y)

    def test_complex_tau_refused(self):
        with pytest.raises(ValueError, match="real tau"):
            cm._at_height(poly_xy({(2, 0): 1, (0, 1): QQi(Fraction(0), Fraction(1))}),
                          Fraction(1))


class TestRootUtilities:
    def test_roots_of_quadratic(self):
        roots = cm.roots_exact_poly([Fraction(3), Fraction(0), Fraction(1)])
        assert sorted(r.imag for r in roots) == pytest.approx([-SQRT3, SQRT3])

    def test_trailing_zero_coefficients_dropped(self):
        # -2 + x + 0 x^2 is linear, with the one root 2
        roots = cm.roots_exact_poly([Fraction(-2), Fraction(1), Fraction(0)])
        assert roots.tolist() == [2]

    def test_monic_overflow_raises_without_warning(self):
        # 1e-300 x^2 + 1e300: the monic constant term 1e600 is past float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cm.RootFindingError, match="does not fit a float"):
                cm.roots_exact_poly([10**300, 0, Fraction(1, 10**300)])

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            cm.roots_exact_poly([Fraction(1)])

    def test_high_degree_accuracy(self):
        # x^12 - 1: all twelfth roots of unity
        coeffs = [Fraction(-1)] + [Fraction(0)] * 11 + [Fraction(1)]
        roots = cm.roots_exact_poly(coeffs)
        assert len(roots) == 12
        assert max(abs(abs(r) - 1.0) for r in roots) < 1e-12

    def test_ambiguous_pairing_detected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            pair_roots([0j], [1.0 + 0j, -1.0 + 0j])

    def test_pairing_injective(self):
        ref = [0j, 1j]
        out = pair_roots(ref, [1.001j, 0.001j])
        assert out == [0.001j, 1.001j]


def locus_oracle(rec_id, y, rescale=False):
    """Worst residual of the two locus identities at height y, at 50 digits.

    Independent of cm: p = tau(., y) and q = tau_y(., y) come from the
    record's terms in Fraction arithmetic (after y -> sqrt(3) y when
    ``rescale``), the poles from mpmath.polyroots and beta = -q/p' there.
    """
    y = Fraction(y)
    terms = CAT[rec_id].tau().terms
    p = [Fraction(0)] * (max(i for i, _ in terms) + 1)
    q = list(p)
    for (i, j), c in terms.items():
        a = c.re * 3 ** (j // 2) if rescale else c.re
        p[i] += a * y ** j
        if j:
            q[i] += j * a * y ** (j - 1)
    with mpmath.workdps(50):
        def high_first(cs):
            return [mpmath.mpf(c.numerator) / c.denominator for c in reversed(cs)]

        eta = mpmath.polyroots(high_first(p), maxsteps=200, extraprec=200)
        dp = high_first([i * c for i, c in enumerate(p)][1:])
        beta = [-mpmath.polyval(high_first(q), e) / mpmath.polyval(dp, e)
                for e in eta]
        worst = mpmath.mpf(0)
        for j, (ej, bj) in enumerate(zip(eta, beta)):
            others = [(ek, bk) for k, (ek, bk) in enumerate(zip(eta, beta)) if k != j]
            first = sum((bj + bk) / (ej - ek) ** 3 for ek, bk in others)
            second = bj ** 2 + sum(36 / (ej - ek) ** 2 for ek, _ in others) + 3
            worst = max(worst, abs(first), abs(second))
        return float(worst)


class TestLocusOracle:
    """The y = 200 row that cm-check refuses (float residual 4.84e-9 against
    its 1e-9 bound) is a true solution; the printed degree-12 tau is not."""

    @pytest.mark.parametrize("y", [200, 1000])
    def test_corrected_degree12_is_on_the_locus(self, y):
        assert locus_oracle("pelin12-corrected-bnew", y) < 1e-30

    def test_printed_degree12_is_off_the_locus(self):
        # its miss, about 4e-12, is far below the float residual that
        # refuses the true solution at this height
        assert locus_oracle("pelin12", 200, rescale=True) > 1e-15
