import math
from fractions import Fraction

import numpy as np
import pytest

from lumps import cm
from lumps.catalog import catalog

CAT = catalog()
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def max_abs(*arrays):
    return max(float(np.max(np.abs(a))) for a in arrays)


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
        cfg = cm.PoleConfig((1j, 1j + 1e-12), (0j, 0j))
        with pytest.raises(cm.CoincidentPolesError):
            cm.locus_residual(cfg)


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

    @pytest.mark.parametrize("rid", ["lump2-bnew", "pelin6-bnew",
                                     "pelin12-corrected-bnew"])
    @pytest.mark.parametrize("y", [Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(2)])
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
            p = cm.pair_roots(base.eta, plus.eta)
            m = cm.pair_roots(base.eta, minus.eta)
            fd = [(a - b) / (2 * float(eps)) for a, b in zip(p, m)]
            err = max(abs(f - b) for f, b in zip(fd, base.beta))
            assert err < 1e-8


class TestRootUtilities:
    def test_roots_of_quadratic(self):
        roots = cm.roots_exact_poly([Fraction(3), Fraction(0), Fraction(1)])
        assert sorted(r.imag for r in roots) == pytest.approx([-SQRT3, SQRT3])

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
        with pytest.raises(cm.RootFindingError):
            cm.pair_roots([0j], [1.0 + 0j, -1.0 + 0j])

    def test_pairing_injective(self):
        ref = [0j, 1j]
        out = cm.pair_roots(ref, [1.001j, 0.001j])
        assert out == [0.001j, 1.001j]
