import hashlib
import math
from fractions import Fraction

import pytest

from lumps import catalog as cat
from lumps.hirota import PRESETS, STANDARD, YANG
from lumps.polyring import ExactPoly, QQi, poly_xy, r_squared
from oracles import energy_oracle

CAT = cat.catalog()

SOLUTION_IDS = ("lump2", "pelin6", "pelin12-corrected",
                "lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew")


class TestVerification:
    @pytest.mark.parametrize("rid", SOLUTION_IDS)
    def test_exact_zero_residuals(self, rid):
        result = cat.verify_tau(CAT[rid])
        assert result.is_solution
        assert result.residual.is_zero()

    @pytest.mark.parametrize("ab", [(0, 0), (1, 0), (0, 1), (2, -3)])
    def test_yang_family(self, ab):
        a, b = ab
        result = cat.verify_tau(CAT["yang6"], {"a": Fraction(a), "b": Fraction(b)})
        assert result.is_solution

    def test_yang_family_fails_printed_sign(self):
        # the documented erratum: the +3 Dy^2 form from the printed equation
        # does not annihilate the printed polynomials
        result = cat.verify_tau(CAT["yang6"], {"a": Fraction(0), "b": Fraction(0)},
                                form=YANG)
        assert not result.is_solution
        assert result.residual.num_terms() > 0

    def test_pelin12_as_printed_fails_with_support(self):
        result = cat.verify_tau(CAT["pelin12"])
        assert not result.is_solution
        assert result.residual.num_terms() == 27
        listed = result.residual_terms(10)
        assert len(listed) == 10
        # highest-degree offending monomial first
        assert listed[0][:2] == [12, 0]

    def test_pelin12_printed_xy_form_matches_zz_form(self):
        # the two printed renderings of the degree-12 entry agree exactly
        # under the basis conversion (the second "...z^4/3" term of the
        # degree-4 slice read as zbar^4, as the xy rendering confirms; the
        # degree-2 slice is printed as two x^2 pieces whose sum matches)
        from lumps.polyring import r_squared
        F = Fraction
        xy_printed = (
            r_squared() ** 6
            + (r_squared() ** 3 * poly_xy({(4, 0): 49, (2, 2): 198,
                                           (0, 4): 29})).scale(2)
            + poly_xy({(8, 0): 147, (6, 2): 3724, (4, 4): 7490,
                       (2, 6): 7084, (0, 8): 867}).scale(5)
            + poly_xy({(6, 0): 539, (4, 2): 4725, (2, 4): -315,
                       (0, 6): 5707}).scale(F(140, 3))
            + poly_xy({(2, 0): 391314, (4, 0): -12705, (2, 2): 4158,
                       (0, 4): 40143}).scale(F(1225, 9))
            + poly_xy({(2, 0): 736890, (0, 0): 717409}).scale(F(1225, 9)))
        assert CAT["pelin12"].tau() == xy_printed

    def test_pelin12_erratum_is_single_coefficient(self):
        # corrected - printed = (-35277550/3 - 38390275) on z^2 + zbar^2,
        # i.e. the documented one-coefficient transcription erratum
        diff = CAT["pelin12-corrected"].tau() - CAT["pelin12"].tau()
        dz = diff.to_zzbar()
        delta = Fraction(-35277550, 3) - 38390275
        assert dz.terms == {(2, 0): QQi(delta), (0, 2): QQi(delta)}

    def test_unbound_parameter_error(self):
        with pytest.raises(cat.ParameterBindingError, match="unbound parameter 'b'"):
            cat.verify_tau(CAT["yang6"], {"a": Fraction(1)})

    def test_unknown_parameter_error(self):
        with pytest.raises(cat.ParameterBindingError, match="no parameter"):
            cat.verify_tau(CAT["yang6"], {"a": Fraction(1), "c": Fraction(0)})

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            cat.get_record("nope")


class TestRecordInvariants:
    @pytest.mark.parametrize("rid,n", [("lump2", 1), ("pelin6", 3),
                                       ("pelin12-corrected", 6)])
    def test_even_degree_and_leading_part(self, rid, n):
        tau = CAT[rid].tau()
        assert tau.total_degree() == 2 * n
        # top homogeneous slice is exactly (x^2+y^2)^n
        top = ExactPoly({k: c for k, c in tau.terms.items()
                         if k[0] + k[1] == 2 * n}, tau.basis)
        assert top == r_squared() ** n

    def test_bnew_leading_part(self):
        # after y -> sqrt(3) y the leading slice is (x^2 + 3 y^2)^n
        tau = CAT["lump2-bnew"].tau()
        assert tau == poly_xy({(2, 0): 1, (0, 2): 3, (0, 0): 3})


class TestUFromTau:
    def test_lump2(self):
        u = cat.u_from_tau(CAT["lump2"])
        assert u.numerator == poly_xy({(0, 2): 4, (2, 0): -4, (0, 0): 12})
        tau = CAT["lump2"].tau()
        assert u.denominator == tau * tau

    def test_constant_tau(self):
        rec = cat.TauRecord("const", (((), ExactPoly.constant(5)),),
                            Fraction(2), STANDARD, ())
        u = cat.u_from_tau(rec)
        assert u.numerator.is_zero()

    def test_degree_bookkeeping(self):
        for rid in ("lump2", "pelin6", "pelin12-corrected"):
            u = cat.u_from_tau(CAT[rid])
            assert u.numerator.total_degree() == \
                u.denominator.total_degree() - 2

    def test_zero_tau_rejected(self):
        rec = cat.TauRecord("zero", (((), ExactPoly.zero()),),
                            Fraction(2), STANDARD, ())
        with pytest.raises(ValueError):
            cat.u_from_tau(rec)


class TestDecay:
    def test_lump2_bound_approaches_four(self):
        u = cat.u_from_tau(CAT["lump2"])
        report = cat.decay_check(u, [10.0, 100.0, 1000.0])
        assert not report.skipped
        # |u| r^2 -> 4 along the y-axis; bounds stay near that constant
        assert all(b <= 4.001 for b in report.bounds)
        assert abs(report.bounds[-1] - 4.0) < 1e-3
        # non-increasing structural trend is not required, but boundedness is
        assert max(report.bounds) - min(report.bounds) < 0.2

    def test_zero_u(self):
        u = cat.RationalFunction(ExactPoly.zero(), ExactPoly.constant(1))
        report = cat.decay_check(u, [10.0])
        assert report.bounds == (0.0,)

    def test_pelin6_finite(self):
        u = cat.u_from_tau(CAT["pelin6"])
        report = cat.decay_check(u, [5.0, 50.0, 500.0])
        assert all(math.isfinite(b) for b in report.bounds)


class TestEnergy:
    def test_zero_energy_for_flat_record(self):
        rec = cat.TauRecord("flat", (((), ExactPoly.constant(1)),),
                            Fraction(3, 2), PRESETS["bnew"], ())
        assert cat.energy(rec, half_width=5.0, step=0.25) == 0.0

    def test_regression_constant_lump(self):
        # frozen regression value at this window; the R = 200 value
        # 1.36086124 is pinned in the acceptance suite
        H2 = cat.energy(CAT["lump2-bnew"], half_width=60.0, step=0.1)
        assert H2 == pytest.approx(1.3660288, abs=1e-5)

    def test_ratio_near_three(self):
        H2 = cat.energy(CAT["lump2-bnew"], half_width=60.0, step=0.1)
        H6 = cat.energy(CAT["pelin6-bnew"], half_width=60.0, step=0.1)
        assert H6 / H2 == pytest.approx(3.0, abs=0.1)

    def test_wrong_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            cat.energy(CAT["lump2"])

    @pytest.mark.parametrize(
        "rid", ["lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew"])
    def test_matches_unfolded_oracle(self, rid):
        H = cat.energy(CAT[rid], half_width=60.0, step=0.1)
        assert H == pytest.approx(
            energy_oracle(CAT[rid].tau(), 60.0, 0.1), rel=1e-12, abs=0)

    def test_vanishing_tau_raises(self):
        # x^2 - y^2 is zero on the diagonal nodes of the midpoint grid
        rec = cat.TauRecord("cone", (((), poly_xy({(2, 0): 1, (0, 2): -1})),),
                            Fraction(3, 2), PRESETS["bnew"], ())
        with pytest.raises(ArithmeticError, match="tau vanishes"):
            cat.energy(rec, half_width=5.0, step=0.25)


class TestRescaling:
    def test_q2_matches_reference_lump(self):
        # the (3/2) dxx log(x^2 + 3y^2 + 3) ground state: the -bnew variant
        # of the classical lump reproduces it exactly
        assert CAT["lump2-bnew"].tau() == poly_xy(
            {(2, 0): 1, (0, 2): 3, (0, 0): 3})
        assert CAT["lump2-bnew"].scale_c == Fraction(3, 2)

    def test_rescale_requires_even(self):
        with pytest.raises(ValueError):
            cat._sqrt3_y_rescale(poly_xy({(0, 1): 1}))


class TestCatalogDigests:
    # SHA-256 of each component's sorted "i j re im" lines: the printed
    # records (and the errata they carry) cannot drift silently
    DIGESTS = {
        ("lump2", "1"): "aef8d2180b1afc210c6c18fcb2c67418bd45a56b435dd16751f9accf4eeeacdf",
        ("lump2-bnew", "1"): "d757e2cd409489c2048cd775907c6aa176451ae5d58c9c803a33a5f626214cf7",
        ("pelin12", "1"): "88f7a33aac721a16b893663fc9d862a57d1e9e846be2c848907ae64445b56ef8",
        ("pelin12-corrected", "1"): "06371f0b4ee847612f679f2435a9ca6b50f25148059abe62827658aa994f072b",
        ("pelin12-corrected-bnew", "1"): "e2176e93d3196da37b97b12eaa2b49973cbac46a8684a6790db10963ba0347bf",
        ("pelin6", "1"): "aeb4fad3b20b65b26f6dc74a5004bbc2fcbcc540652b85c49b247d9bea986fde",
        ("pelin6-bnew", "1"): "a983a8318adc9d9b04a08ee9b8f48275f4f95a0b15cb586a33ccb370644f10f3",
        ("yang6", "1"): "1b2a8c6bd504c005226d89675aa59dfbb10af31de38cd0424d90e75657f6748e",
        ("yang6", "a"): "3e6898c1bf4cec697b242675a6a3abb80bf21763c474c2cc82e9181190ff2d66",
        ("yang6", "b"): "bc7886c3d4d01b0b6b29bd2bd035073b397ca4de1e9e5349b89cd48d33fd4bab",
        ("yang6", "a^2"): "9f2f86d596f09a87813fc12a69ee9ae8cd9c9b781bd0b23ad60fd841838ff671",
        ("yang6", "b^2"): "9f2f86d596f09a87813fc12a69ee9ae8cd9c9b781bd0b23ad60fd841838ff671",
    }
    # (scale c, form, parameters) of each record
    SCALINGS = {
        "lump2": ("2", "standard", ()),
        "lump2-bnew": ("3/2", "bnew", ()),
        "pelin12": ("2", "standard", ()),
        "pelin12-corrected": ("2", "standard", ()),
        "pelin12-corrected-bnew": ("3/2", "bnew", ()),
        "pelin6": ("12", "standard", ()),
        "pelin6-bnew": ("3/2", "bnew", ()),
        "yang6": ("2", "yang-elliptic", ("a", "b")),
    }

    @staticmethod
    def canonical(poly):
        assert poly.basis.value == "xy"
        return "\n".join(f"{i} {j} {c.re} {c.im}"
                         for (i, j), c in sorted(poly.terms.items()))

    def test_component_digests(self):
        seen = {}
        for rid, rec in CAT.items():
            for monomial, poly in rec.components:
                key = "*".join(name if exp == 1 else f"{name}^{exp}"
                               for name, exp in monomial) or "1"
                seen[(rid, key)] = hashlib.sha256(
                    self.canonical(poly).encode()).hexdigest()
        assert seen == self.DIGESTS

    def test_scalings(self):
        assert {rid: (str(rec.scale_c), rec.form.name, rec.params)
                for rid, rec in CAT.items()} == self.SCALINGS

    def test_canonical_text(self):
        assert self.canonical(CAT["lump2"].tau()) == \
            "0 0 3 0\n0 2 1 0\n2 0 1 0"
