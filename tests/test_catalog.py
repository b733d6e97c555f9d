import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from conftest import fresh_python
from lumps import catalog as cat
from lumps.hirota import PRESETS, YANG
from lumps.polyring import ExactPoly, QQi, poly_xy, r_squared
from oracles import energy_oracle

CAT = cat.catalog()

SOLUTION_IDS = ("lump2", "pelin6", "pelin12-corrected",
                "lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew")


class TestVerification:
    @pytest.mark.parametrize("rid", SOLUTION_IDS)
    def test_exact_zero_residuals(self, rid):
        assert cat.verify_tau(CAT[rid]).is_zero()

    @pytest.mark.parametrize("ab", [(0, 0), (1, 0), (0, 1), (2, -3)])
    def test_yang_family(self, ab):
        a, b = ab
        residual = cat.verify_tau(CAT["yang6"], {"a": Fraction(a), "b": Fraction(b)})
        assert residual.is_zero()

    def test_yang_family_fails_printed_sign(self):
        # the documented erratum: the +3 Dy^2 form from the printed equation
        # does not annihilate the printed polynomials
        residual = cat.verify_tau(CAT["yang6"], {"a": Fraction(0), "b": Fraction(0)},
                                  form=YANG)
        assert not residual.is_zero()
        assert residual.num_terms() > 0

    def test_pelin12_as_printed_fails_with_support(self):
        residual = cat.verify_tau(CAT["pelin12"])
        assert not residual.is_zero()
        assert residual.num_terms() == 27
        # the highest-degree offending monomial
        assert max(residual.numerators()[1], key=lambda k: (k[0] + k[1], k[0])) == (12, 0)

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

    def test_tau_of_a_parametrized_record_refused(self):
        with pytest.raises(cat.ParameterBindingError, match="bind them first"):
            CAT["yang6"].tau()

    @pytest.mark.parametrize("rid", sorted(set(CAT) - {"yang6"}))
    def test_tau_is_bound_once(self, rid):
        # the same polynomial as binding afresh, in the same term order
        rec = CAT[rid]
        tau, fresh = rec.tau(), rec.bind({})
        assert rec.tau() is tau
        assert tau == fresh and list(tau.terms) == list(fresh.terms)


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


class TestEnergy:
    def test_zero_energy_for_flat_record(self):
        rec = cat.TauRecord.plain("flat", ExactPoly.constant(1), Fraction(3, 2),
                                  PRESETS["bnew"])
        assert cat.energy(rec, half_width=5.0, step=0.25) == 0.0

    def test_regression_constant_lump(self):
        # frozen regression value at this window; the R = 200 value
        # 1.36086124 is pinned in the acceptance suite
        H2 = cat.energy(CAT["lump2-bnew"], half_width=60.0, step=0.1)
        assert H2 == pytest.approx(1.3660288, abs=1e-5)

    @pytest.mark.parametrize("rid, target, tol", [
        ("pelin6-bnew", 3, 0.1),               # k = 2
        ("pelin12-corrected-bnew", 6, 0.3),    # k = 3, within 5 %
    ])
    def test_ratio_near_half_triangular(self, rid, target, tol):
        # H_k/H_1 = k(k+1)/2 on a coarse window
        H2 = cat.energy(CAT["lump2-bnew"], half_width=60.0, step=0.1)
        H = cat.energy(CAT[rid], half_width=60.0, step=0.1)
        assert H / H2 == pytest.approx(target, abs=tol)

    def test_wrong_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            cat.energy(CAT["lump2"])

    def test_odd_record_rejected(self):
        odd = poly_xy({(2, 0): 1, (0, 2): 3, (1, 0): 1, (0, 0): 3})
        rec = cat.TauRecord.plain("odd", odd, Fraction(3, 2), PRESETS["bnew"])
        with pytest.raises(ValueError, match="even in x and y"):
            cat.energy(rec, half_width=5.0, step=0.25)

    @pytest.mark.parametrize(
        "rid", ["lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew"])
    def test_matches_unfolded_oracle(self, rid):
        H = cat.energy(CAT[rid], half_width=60.0, step=0.1)
        assert H == pytest.approx(
            energy_oracle(CAT[rid].tau(), 60.0, 0.1), rel=1e-12, abs=0)

    def test_rectangular_table_matches_oracle(self):
        # x-degree 4, y-degree 2: every catalog -bnew record has the same
        # degree in x and y, so a transposed power table would go unseen
        tau = poly_xy({(4, 0): 1, (2, 0): 6, (0, 2): 3, (0, 0): 9})
        rec = cat.TauRecord.plain("rect", tau, Fraction(3, 2), PRESETS["bnew"])
        assert cat.energy(rec, half_width=20.0, step=0.1) == pytest.approx(
            energy_oracle(tau, 20.0, 0.1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("rid, value", [
        ("lump2-bnew", 1.3608612445442383),
        ("pelin6-bnew", 4.085653044838058),
        ("pelin12-corrected-bnew", 8.180508949391344),
    ])
    def test_values_at_default_window(self, rid, value):
        # the default window R = 200, h = 0.05: a rewrite of the row
        # evaluation may move these values by rounding only
        assert cat.energy(CAT[rid]) == pytest.approx(value, rel=1e-13, abs=0)

    def test_vanishing_tau_raises(self):
        # x^2 - y^2 is zero on the diagonal nodes of the midpoint grid
        rec = cat.TauRecord.plain("cone", poly_xy({(2, 0): 1, (0, 2): -1}),
                                  Fraction(3, 2), PRESETS["bnew"])
        with pytest.raises(ArithmeticError, match="tau vanishes"):
            cat.energy(rec, half_width=5.0, step=0.25)

    @pytest.mark.parametrize("rid, value", [
        ("lump2-bnew", -1.1206726003422744e-12),
        ("pelin6-bnew", -1.0086053403078247e-11),
        ("pelin12-corrected-bnew", -4.034421361229981e-11),
    ])
    def test_values_far_out(self, rid, value):
        # R = 1e8, h = 1e7: the numerators of degree up to 3d - 3 stay in
        # float range here; the values are those of the former ratio-form
        # integrand, which combined the derivatives of tau at each node
        assert cat.energy(CAT[rid], half_width=1e8, step=1e7) == pytest.approx(
            value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("half_width", [0.95, 1.0])
    def test_window_off_the_grid_raises(self, half_width):
        # R / 0.6 is not whole: the grid would integrate [-1.2, 1.2]^2 for
        # either R and report a window it did not integrate
        with pytest.raises(ValueError, match="not a whole number"):
            cat.energy(CAT["lump2-bnew"], half_width=half_width, step=0.6)

    @pytest.mark.parametrize("window", [(1e10, 1e9), (1e30, 1e29)])
    def test_window_past_float_range_raises(self, window):
        # N3 of a degree-12 tau has degree 33: it overflows from |x| ~ 2e9,
        # and at 1e30 so do the power tables themselves; either way the
        # result is the ArithmeticError, not a RuntimeWarning
        with pytest.raises(ArithmeticError, match="tau vanishes"):
            cat.energy(CAT["pelin12-corrected-bnew"], *window)


EVEN_IDS = [rid for rid, rec in CAT.items() if not rec.params
            and all(i % 2 == 0 and j % 2 == 0 for (i, j) in rec.tau().terms)]


class TestEnergyNumerators:
    """The exact numerators of the energy integrand."""

    def test_even_records(self):
        assert EVEN_IDS == ["lump2", "pelin6", "pelin12", "pelin12-corrected",
                            "lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew"]

    @pytest.mark.parametrize("rid", EVEN_IDS)
    def test_hirota_forms_equal_product_forms(self, rid):
        tau = CAT[rid].tau()
        t_x, t_y = tau.diff(0), tau.diff(1)
        t_xx, t_xy = t_x.diff(0), t_x.diff(1)
        n2, n3, nv = cat._energy_numerators(tau)
        assert n2 == tau * t_xx - t_x * t_x
        assert nv == tau * t_xy - t_x * t_y
        assert n3 == (tau * tau * t_xx.diff(0)
                      - (tau * t_x * t_xx).scale(3) + (t_x * t_x * t_x).scale(2))

    @pytest.mark.parametrize("rid", ["lump2-bnew", "pelin6-bnew"])
    def test_quotients_are_log_derivatives(self, rid):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")

        def expr(p):
            return sum(sympy.Rational(c.re.numerator, c.re.denominator)
                       * x ** i * y ** j for (i, j), c in p.terms.items())

        tau = CAT[rid].tau()
        n2, n3, nv = (expr(p) for p in cat._energy_numerators(tau))
        t, log_t = expr(tau), sympy.log(expr(tau))
        assert sympy.cancel(n2 / t ** 2 - sympy.diff(log_t, x, 2)) == 0
        assert sympy.cancel(n3 / t ** 3 - sympy.diff(log_t, x, 3)) == 0
        assert sympy.cancel(nv / t ** 2 - sympy.diff(log_t, x, y)) == 0


#: (x^2 + 1)(y^2 - 4.375^2): zero on grid row 17 (y = 4.375) of the R = 5,
#: h = 0.25 quadrant, which lies in the last band for 2 or 3 workers
BAND_CONE = poly_xy({(2, 2): 1, (2, 0): Fraction(-1225, 64), (0, 2): 1,
                     (0, 0): Fraction(-1225, 64)})


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEnergyBands:
    """Row bands in forked workers and column tiles inside a row."""

    @pytest.mark.parametrize("rid", ["lump2-bnew", "pelin6-bnew",
                                     "pelin12-corrected-bnew"])
    def test_split_invariance(self, rid, monkeypatch):
        # m = 20 rows in 1, 2 or 3 bands, 20 columns in tiles of 7, 7 and 6
        monkeypatch.setattr(cat, "ENERGY_TILE", 7)
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(cat, "_workers", lambda rows, w=workers: w)
            values.append(cat.energy(CAT[rid], half_width=5.0, step=0.25))
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(
            energy_oracle(CAT[rid].tau(), 5.0, 0.25), rel=1e-12, abs=0)
        _no_children_left()

    def test_same_bits_for_any_worker_count(self, monkeypatch):
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(cat, "_workers", lambda rows, w=workers: w)
            values.append(cat.energy(CAT["pelin12-corrected-bnew"], 60.0, 0.1))
        assert values[0] == values[1] == values[2]
        _no_children_left()

    def test_partial_last_block(self, monkeypatch):
        # m = 21 rows: five blocks of four rows and a last block of one
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(cat, "_workers", lambda rows, w=workers: w)
            values.append(cat.energy(CAT["pelin12-corrected-bnew"], 5.25, 0.25))
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(
            energy_oracle(CAT["pelin12-corrected-bnew"].tau(), 5.25, 0.25),
            rel=1e-12, abs=0)
        _no_children_left()

    def test_bands_are_cut_on_blocks(self, monkeypatch):
        # with fork refused the caller computes every band itself, so each
        # band is seen here: 6 blocks in 3 bands, not 21 rows in 3 bands
        bands, rows = [], cat._energy_rows

        def recorded(tables, xs, lo, hi, out):
            bands.append((lo, hi))
            rows(tables, xs, lo, hi, out)

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(cat, "_energy_rows", recorded)
        monkeypatch.setattr(cat.os, "fork", no_fork)
        monkeypatch.setattr(cat, "_workers", lambda rows: 3)
        cat.energy(CAT["lump2-bnew"], 5.25, 0.25)
        assert sorted(bands) == [(0, 8), (8, 16), (16, 21)]

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_other_block_sizes(self, block_rows, monkeypatch):
        # 21 rows in blocks of 1 or 3, in two bands and column tiles of 7
        monkeypatch.setattr(cat, "ENERGY_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(cat, "ENERGY_TILE", 7)
        monkeypatch.setattr(cat, "_workers", lambda rows: 2)
        assert cat.energy(CAT["pelin6-bnew"], 5.25, 0.25) == pytest.approx(
            energy_oracle(CAT["pelin6-bnew"].tau(), 5.25, 0.25), rel=1e-12, abs=0)
        _no_children_left()

    def test_no_product_wider_than_a_tile(self, monkeypatch):
        # the shipped cap: a wider product lets OpenBLAS start threads of its
        # own, which oversubscribe the CPUs that the row bands already use
        assert cat.ENERGY_TILE == 4096
        # R = 5, h = 0.05: 100 columns, in a tile of 64 and one of 36
        monkeypatch.setattr(cat, "ENERGY_TILE", 64)
        expected = energy_oracle(CAT["lump2-bnew"].tau(), 5.0, 0.05)
        widths, matmul = [], np.matmul

        def recorded(*args, **kwargs):
            product = matmul(*args, **kwargs)
            widths.append(product.shape[-1])
            return product

        monkeypatch.setattr(cat, "_workers", lambda rows: 1)
        monkeypatch.setattr(np, "matmul", recorded)
        value = cat.energy(CAT["lump2-bnew"], 5.0, 0.05)
        assert max(widths) == cat.ENERGY_TILE
        assert 100 - cat.ENERGY_TILE in widths
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_worker_count(self):
        # one band per CPU, but no band below ENERGY_MIN_BAND_ROWS rows
        assert cat._workers(1) == 1
        assert cat._workers(2 * cat.ENERGY_MIN_BAND_ROWS - 1) == 1
        assert cat._workers(10**6) == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_vanishing_tau_in_a_worker_band_raises(self, workers, monkeypatch):
        monkeypatch.setattr(cat, "_workers", lambda rows: workers)
        rec = cat.TauRecord.plain("band-cone", BAND_CONE, Fraction(3, 2),
                                  PRESETS["bnew"])
        with pytest.raises(ArithmeticError, match="tau vanishes"):
            cat.energy(rec, half_width=5.0, step=0.25)
        _no_children_left()

    @pytest.mark.parametrize("first_rows", [(math.inf, -math.inf), (1e308, 1e308)])
    def test_nonfinite_row_total_raises_arithmetic_error(self, first_rows,
                                                         monkeypatch):
        # fsum raises ValueError on inf - inf, which the CLI would report as
        # a usage error, and OverflowError when finite rows overflow; both
        # must end as the ArithmeticError of a sum that is not finite
        rows = cat._energy_rows

        def large_first_rows(table, xs, lo, hi, out):
            rows(table, xs, lo, hi, out)
            out[lo] = first_rows[lo > 0]

        monkeypatch.setattr(cat, "_energy_rows", large_first_rows)
        monkeypatch.setattr(cat, "_workers", lambda rows: 2)
        with pytest.raises(ArithmeticError, match="tau vanishes"):
            cat.energy(CAT["lump2-bnew"], half_width=5.0, step=0.25)
        _no_children_left()

    def test_failed_worker_band_is_recomputed(self, monkeypatch):
        expected = cat.energy(CAT["pelin6-bnew"], half_width=5.0, step=0.25)
        caller, rows = os.getpid(), cat._energy_rows

        def fails_in_workers(*args):
            if os.getpid() != caller:
                raise RuntimeError("worker fails")
            return rows(*args)

        monkeypatch.setattr(cat, "_energy_rows", fails_in_workers)
        monkeypatch.setattr(cat, "_workers", lambda rows: 3)
        assert cat.energy(CAT["pelin6-bnew"], half_width=5.0, step=0.25) == expected
        _no_children_left()

    def test_band_without_a_worker_is_computed_by_the_caller(self, monkeypatch):
        expected = cat.energy(CAT["pelin6-bnew"], half_width=5.0, step=0.25)

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(cat.os, "fork", no_fork)
        monkeypatch.setattr(cat, "_workers", lambda rows: 3)
        assert cat.energy(CAT["pelin6-bnew"], half_width=5.0, step=0.25) == expected

    def test_workers_are_reaped_when_the_caller_band_raises(self, monkeypatch):
        caller, rows = os.getpid(), cat._energy_rows

        def fails_in_caller(*args):
            if os.getpid() == caller:
                raise RuntimeError("caller fails")
            return rows(*args)

        monkeypatch.setattr(cat, "_energy_rows", fails_in_caller)
        monkeypatch.setattr(cat, "_workers", lambda rows: 3)
        with pytest.raises(RuntimeError, match="caller fails"):
            cat.energy(CAT["pelin6-bnew"], half_width=5.0, step=0.25)
        _no_children_left()

    def test_workers_exit_without_flushing_or_atexit(self):
        # stdout is a pipe, so the first line sits in the buffer across the
        # fork; a worker that flushed it or ran atexit would repeat it
        code = (
            "import atexit, os, sys\n"
            "from lumps import catalog as cat\n"
            "cat._workers = lambda rows: 3\n"
            "atexit.register(print, 'atexit ran')\n"
            "sys.stdout.write('before the fork\\n')\n"
            "rows = cat._energy_rows\n"
            "def fails(*args):\n"
            "    if os.getpid() != caller:\n"
            "        raise RuntimeError('worker fails')\n"
            "    return rows(*args)\n"
            "caller = os.getpid()\n"
            "print(cat.energy(cat.catalog()['lump2-bnew'], 5.0, 0.25))\n"
            "cat._energy_rows = fails\n"
            "print(cat.energy(cat.catalog()['lump2-bnew'], 5.0, 0.25))\n")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "before the fork" and lines[-1] == "atexit ran"
        assert len(lines) == 4 and lines[1] == lines[2]


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


class TestTermOrder:
    """tau, its (z, zbar) form, its residual under its own form and the three
    energy numerators of every record (yang6 at a = 1/2, b = -3), as exact
    values in stored term order.  The digests pin both the exact values and
    their deterministic order; no float result reads that order (``energy``
    fills its tables by index and the pole evaluation sums exact integers)."""

    DIGESTS = {
        "lump2": "9b2ab658f953229b48f46043633268d73f3d61f3fa16530935d04d09b3d8cae0",
        "pelin6": "c3f3dd2252787e7127e990ab284fb4e420d763a546c8babec158ad788f9c2f48",
        "yang6": "e8a0581d8d9c824859de3eec65d0d94e616e1a15a5e7a8b74d50118402d4eb7a",
        "pelin12": "ff9e8641b934657bf25c2945a23a74a4180e3a273fb08d94652e27b2f6bb4a6c",
        "pelin12-corrected": "19240cf5012e957664d55a0e40c31556d2bae05514a4364983555d71746240e7",
        "lump2-bnew": "8b72cfa0ab6b9f713679a2c5fc098b4e8d59b723016466c7dba032b24c076639",
        "pelin6-bnew": "42733ec8eedc5841c86a63d2526a5f816764ffa0a9bd7bbd19c09a3a308b603c",
        "pelin12-corrected-bnew": "1486dd1227606c8a540ff825aede0c5afcf1d6c57d523dd556b2c2fc285f48a6",
    }

    def test_term_order_digests(self):
        def text(poly):
            return "\n".join(f"{i} {j} {c.re} {c.im}" for (i, j), c in poly.terms.items())

        seen = {}
        for rid, rec in CAT.items():
            tau = rec.bind({"a": Fraction(1, 2), "b": Fraction(-3)}) if rec.params else rec.tau()
            polys = [tau, tau.to_zzbar(), rec.form.residual(tau), *cat._energy_numerators(tau)]
            seen[rid] = hashlib.sha256(
                "\n\n".join(text(p) for p in polys).encode()).hexdigest()
        assert seen == self.DIGESTS
