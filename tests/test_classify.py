import csv
import hashlib
import json
from fractions import Fraction

import pytest

from lumps import classify as cl
from lumps.cli import main
from lumps.hirota import hirota_monomial_zz
from oracles import _axis, chain_oracle

GAMMA_15 = {
    1: Fraction(3219950475, 374),
    2: Fraction(-800391375, 416),
    3: Fraction(24045525, 4),
    4: Fraction(34505100, 187),
    5: Fraction(-74025, 52),
    6: Fraction(55335, 2),
    7: Fraction(-5460, 17),
}


class TestStructureConstants:
    def test_no_structure_constant_is_stored(self):
        # every p_ij and d_ij value is read once per chain step, so a memo
        # would only grow; p_ij's decorator is kept for its call count alone
        misses = cl.p_ij.cache_info().misses
        cl.scan(30)
        info = cl.p_ij.cache_info()
        assert info.currsize == 0 and info.maxsize == 0
        assert info.misses > misses
        assert not hasattr(cl.d_ij, "cache_info")

    def test_d_instances(self):
        assert cl.d_ij(0, 1) == 12
        assert cl.d_ij(0, 2) == -48
        assert all(cl.d_ij(i, i) == 0 for i in range(6))

    def test_p_sections(self):
        # diagonal, sub-diagonal and second-sub-diagonal closed forms
        for n in (3, 6, 11):
            for j in range(0, 4):
                assert cl.p_ij(n, j, j) == 192 * (3 * j - n + 1) * (3 * j - n)
                assert cl.p_ij(n, j - 1, j) == \
                    -192 * (3 * j - n + 7) * (3 * j - n)
                assert cl.p_ij(n, j - 2, j) == \
                    192 * (3 * j - n + 30) * (3 * j - n + 1)

    def test_p_at_origin(self):
        assert cl.p_ij(2, 0, 0) == 384
        for n in range(1, 12):
            assert cl.p_ij(n, 0, 0) == 192 * n * (n - 1)

    def test_p_is_the_lowest_zbar_power_of_dx4(self):
        # p(n, i, j) = 16 (-1)^{i+j} A(4, n-3i, n-3j), A the oracle's own
        # falling-factorial axis sum
        for n in range(60):
            for i in range(-5, 20):
                for j in range(-5, 20):
                    assert cl.p_ij(n, i, j) == \
                        16 * (-1) ** (i + j) * _axis(4, n - 3 * i, n - 3 * j), (n, i, j)

    def test_int_at_negative_index_sum(self):
        # (-1) ** k is a float at k < 0; the structure constants stay ints
        assert cl.p_ij(5, -1, 0) == 1920 and type(cl.p_ij(5, -1, 0)) is int
        assert cl.d_ij(-1, 0) == 12 and type(cl.d_ij(-1, 0)) is int
        for i in range(-6, 3):
            for j in range(-6, 3):
                assert type(cl.p_ij(7, i, j)) is int, (i, j)
                assert type(cl.d_ij(i, j)) is int, (i, j)
        assert cl.d_ij(-2, 1) == -12 * 9 * (-1) ** 1

    def test_p_symmetry(self):
        for n in (5, 8, 13):
            for i in range(5):
                for j in range(5):
                    assert cl.p_ij(n, i, j) == cl.p_ij(n, j, i)


class TestDefinitionalRoute:
    # the closed forms must agree with the full pipeline
    # g -> Hirota -> exact quotient -> square substitution

    @pytest.mark.parametrize("n", [6, 10, 15])
    def test_d_agreement(self, n):
        for i in range(0, 6):
            for j in range(0, 6):
                if n - 3 * i < 0 or n - 3 * j < 0:
                    continue
                if 2 * n - 3 * i - 3 * j - 1 < 0:
                    continue
                assert cl.d_ij_definitional(n, i, j) == cl.d_ij(i, j), (n, i, j)

    @pytest.mark.parametrize("n", [6, 10, 15])
    def test_p_agreement(self, n):
        for i in range(0, 6):
            for j in range(0, 6):
                if n - 3 * i < 0 or n - 3 * j < 0:
                    continue
                if 2 * n - 3 * i - 3 * j - 4 < 0:
                    continue
                assert cl.p_ij_definitional(n, i, j) == cl.p_ij(n, i, j), (n, i, j)

    def test_examples(self):
        assert cl.d_ij_definitional(6, 0, 1) == 12
        assert cl.p_ij_definitional(6, 0, 0) == 5760
        assert cl.d_ij_definitional(10, 1, 2) == cl.d_ij(1, 2)
        assert cl.p_ij_definitional(10, 1, 2) == cl.p_ij(10, 1, 2)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            cl.g_poly(3, 2)
        with pytest.raises(ValueError):
            cl.d_ij_definitional(3, 1, 1)  # 2n-3i-3j-1 = -1


class TestASeq:
    def test_a0_and_a1(self):
        for n in (4, 6, 10, 17):
            a = cl.a_seq(n, 1)
            assert a[0] == 1
            # ordered pair convention: the unknown appears twice
            assert a[1] == Fraction(cl.p_ij(n, 0, 0), 2 * cl.d_ij(0, 1))
            assert a[1] == 8 * n * (n - 1)

    def test_against_printed_degree12_solution(self):
        # decomposing the degree-12 tau slices as a_j r^{2(n-3j)} x^{2j} y^{2j}
        # + r^{2(n-3j)+2} Gamma gives a_1 = 240 and a_2 = -11520 at n = 6
        a = cl.a_seq(6, 2)
        assert a[1] == 240
        assert a[2] == -11520

    def test_unordered_convention_differs(self):
        # the single-counting reading, on the independent oracle, gives
        # 16 n (n-1) where the library's ordered chain gives 8 n (n-1)
        assert chain_oracle(6, ordered=False)["a"][1] == 16 * 6 * 5
        assert cl.a_seq(6, 1)[1] == 8 * 6 * 5

    def test_unordered_breaks_triangular_law(self):
        # the reason the chains count ordered pairs: the unordered reading
        # fails the law already at n = 6
        assert cl.j_obstruction(6) == 0
        assert chain_oracle(6, ordered=False)["J"] != 0


class TestJRoute:
    def test_small_values(self):
        assert cl.j_obstruction(1) == 0
        assert cl.j_obstruction(2) != 0
        assert cl.j_obstruction(3) == 0
        assert cl.j_obstruction(6) == 0
        assert cl.j_obstruction(10) == 0

    def test_zero_set_to_60(self):
        zeros = [n for n in range(1, 61) if cl.j_obstruction(n) == 0]
        assert zeros == [n for n in range(1, 61) if cl.is_triangular(n)]


class TestIsTriangular:
    def test_small(self):
        assert [n for n in range(0, 29) if cl.is_triangular(n)] == \
            [0, 1, 3, 6, 10, 15, 21, 28]
        assert not cl.is_triangular(-1)

    @pytest.mark.parametrize("k", [10**30, 10**200])
    def test_huge(self, k):
        # beyond float precision (10**30) and float range (10**200)
        t = k * (k + 1) // 2
        assert cl.is_triangular(t)
        assert not cl.is_triangular(t - 1)
        assert not cl.is_triangular(t + 1)


class TestSigmaRoute:
    def test_sigma1_closed_form(self):
        for n in range(2, 51):
            assert cl.sigma_seq(n, 1)[1] == Fraction(n - n * n, 2)

    def test_sigma0(self):
        assert cl.sigma_seq(9)[0] == 1

    def test_degree12_slices(self):
        # lowest zbar-degree coefficients of the printed degree-12 solution
        sig = cl.sigma_seq(6)
        assert sig[1] == -15
        assert sig[2] == -45
        assert sig[3] == 0  # the obstruction at j0 = 3 vanishes: n = 6 exists

    def test_obstruction_values(self):
        assert cl.sigma_obstruction(3) == 0
        assert cl.sigma_obstruction(4) != 0

    def test_route_agreement_to_60(self):
        for n in range(1, 61):
            assert (cl.j_obstruction(n) == 0) == (cl.sigma_obstruction(n) == 0)


class TestGauge:
    """The J and sigma routes are one recursion in two bases: x^2 y^2 =
    -(z^2 - zbar^2)^2 / 16 carries a_m to (-16)^m sigma_m, and the terminal
    mismatches differ by a fixed factor.  So their agreement checks the code;
    ``chain_oracle`` is the independent check of the mathematics."""

    def test_a_is_sigma_in_the_other_basis_to_60(self):
        for n in range(1, 61):
            a, sigma = cl.a_seq(n), cl.sigma_seq(n)
            assert a == [(-16) ** m * s for m, s in enumerate(sigma[:len(a)])], n

    def test_j_is_a_multiple_of_sigma_to_120(self):
        for n in range(1, 121):
            c = n // 3 + 1
            assert cl.j_obstruction(n) == 24 * c ** 2 * 16 ** c * cl.sigma_obstruction(n), n


class TestGammaRoute:
    def test_beta0(self):
        assert cl.beta_seq(15, 3)[0] == 1

    def test_gamma15_table(self):
        got = cl.gamma_table(15)
        assert got == GAMMA_15

    def test_gamma_string_forms(self):
        got = cl.gamma_table(15)
        assert str(got[1]) == "3219950475/374"
        assert str(got[7]) == "-5460/17"

    def test_q_range_validation(self):
        with pytest.raises(ValueError):
            cl.beta_seq(15, 0)
        with pytest.raises(ValueError):
            cl.beta_seq(15, 8)

    def test_certificates(self):
        cert = cl.uniqueness_certificate(15)
        assert cert.all_nonzero
        assert len(cert.gammas) == 7
        # vacuous at n = 1
        cert1 = cl.uniqueness_certificate(1)
        assert cert1.all_nonzero and cert1.gammas == {}
        assert cl.uniqueness_certificate(3).all_nonzero
        assert cl.uniqueness_certificate(6).all_nonzero

    @pytest.mark.parametrize("n", [0, -4])
    def test_no_certificate_below_one(self, n):
        # an empty gamma table would certify vacuously
        with pytest.raises(ValueError, match="n >= 1"):
            cl.uniqueness_certificate(n)


class TestChainOracle:
    # the integer chains against the step-by-step Fraction recursions of the
    # docstrings, run by an oracle with its own structure constants

    # the chains count ordered pairs; the unordered oracle reading is pinned
    # in TestASeq
    @pytest.mark.parametrize("ordered", [True], ids=["ordered"])
    def test_a_j_sigma_to_60(self, ordered):
        for n in range(1, 61):
            ref = chain_oracle(n, ordered=ordered)
            a, sig = cl.a_seq(n), cl.sigma_seq(n)
            J = cl.j_obstruction(n)
            assert a == ref["a"], n
            assert J == ref["J"], n
            assert sig == ref["sigma"], n
            assert all(type(v) is Fraction for v in a + sig + [J])

    def test_gamma_tables_to_45(self):
        for n in (n for n in range(1, 46) if cl.is_triangular(n)):
            got = cl.gamma_table(n)
            assert got == chain_oracle(n, gammas=True)["gamma"], n
            assert all(type(v) is Fraction for v in got.values())

    def test_beta_chains_to_30(self):
        # every q at every n, non-triangular n included, where sigma and beta
        # carry denominators: the whole chain, not only its terminal gamma
        for n in range(1, 31):
            ref = chain_oracle(n, gammas=True)
            sigma = cl.sigma_seq(n)
            for q in range(1, n // 2 + 1):
                got = cl.beta_seq(n, q, sigma)
                assert got == ref["beta"][q], (n, q)
                assert cl.beta_seq(n, q) == got, (n, q)
                assert all(type(v) is Fraction for v in got)


class TestExactnessPins:
    # SHA-256 digests of the benchmark's chain outputs: a faster chain must
    # leave every value, and so each digest, unchanged

    def test_scan_csv_digest(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        assert main(["scan-jn", "--max-n", "120", "--routes", "J,sigma",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "17f2c9bdf123a592a1e908a2132ed807a91bc4e398ce5fa4646d9ab239475f58")

    def test_certify_gamma_digest(self, capsys):
        lines = []
        for n in (n for n in range(1, 106) if cl.is_triangular(n)):
            assert main(["certify", "--n", str(n)]) == 0
            gammas = json.loads(capsys.readouterr().out)["results"]["gammas"]
            lines += [f"{n} {q} {v}" for q, v in gammas.items()]
        assert len(lines) == 276
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3beb74701c272596b7af0be41d66fdf7f480b33dc00ccc82233c20c74bbb55bd")


class TestInlinedEigenfactors:
    # the sigma (q2 = 0) and beta (q2 = 2q) steps use _dz_dzbar in place of
    # hirota_monomial_zz(..., 1, 1): pair eigenfactors at (k, m), step
    # eigenvalues at (0, j)
    def test_matches_hirota_at_chain_arguments(self):
        for n in (0, 1, 7, 15, 40):
            for q2 in (0, 2, 4, 14):
                for k in range(0, 9):
                    for m in range(0, 9):
                        assert cl._dz_dzbar(q2, k, m) == hirota_monomial_zz(
                            n + k, n - 3 * k, n + m, n - q2 - 3 * m, 1, 1)

    def test_step_eigenvalues(self):
        for j in range(1, 20):
            assert 8 * cl._dz_dzbar(0, 0, j) == -24 * j * j
            for q in range(1, 8):
                assert 4 * cl._dz_dzbar(2 * q, 0, j) == -4 * j * (2 * q + 3 * j)


class TestHierarchy:
    def test_balance_examples(self):
        assert cl.hierarchy_degree(2, -3).balanced
        assert cl.hierarchy_degree(0, 0).balanced
        assert not cl.hierarchy_degree(0, -1).balanced
        assert cl.hierarchy_degree(4, -9).balanced

    def test_solve_degree(self):
        for k in range(0, 11):
            m = cl.solve_degree(k)
            assert m == Fraction(-3, 2) * k * (k + 1)
            assert cl.hierarchy_degree(2 * k, m).balanced

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="j must be >= 0"):
            cl.hierarchy_degree(-1, 0)

    def test_formulas(self):
        hb = cl.hierarchy_degree(3, Fraction(1, 2))
        assert hb.b == -(3 + 1) * (3 * 5 + 2 * Fraction(1, 2))
        assert hb.B == Fraction(3 + 1, 8) * (10 * 3 * 5 + 32 * Fraction(1, 2))


class TestScan:
    def test_rows_and_agreement(self):
        rows = cl.scan(21, routes=("J", "sigma", "gamma"))
        assert len(rows) == 21
        assert not any(r.error for r in rows)
        zeros = [r.n for r in rows if r.is_zero]
        assert zeros == [1, 3, 6, 10, 15, 21]
        for r in rows:
            if r.triangular:
                assert r.gamma_all_nonzero is True
            else:
                assert r.gamma_all_nonzero is None

    def test_csv_columns(self, tmp_path):
        rows = cl.scan(10, routes=("J",))
        path = tmp_path / "table.csv"
        cl.write_scan_csv(rows, str(path))
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["n", "J_n", "sigma_obstruction", "is_zero",
                              "is_triangular", "gamma_all_nonzero"]
            body = list(reader)
        assert len(body) == 10
        assert body[0][0] == "1" and body[0][3] == "true"
        assert body[1][3] == "false"
        # exact rationals serialized as integer/fraction strings, never floats
        assert all("." not in row[1] for row in body)

    def test_bad_route(self):
        with pytest.raises(ValueError):
            cl.scan(5, routes=("nope",))
