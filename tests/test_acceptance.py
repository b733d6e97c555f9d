"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with plain pytest; the lines are written to the unbuffered original
stdout so they appear under any capture mode.  Every tolerance is pinned
here, not deferred: exact checks compare Fractions, numeric checks use the
stated bounds (1e-9 locus, 5% energy ratio, 1% energy stability).

Criteria 4 and 5 carry documented errata (a transverse-sign misprint for
the degree-6 family, one transcribed coefficient in the degree-12 entry,
and a transposed pair in the printed phase table).  Those tests assert the
exact discrepancy structure: anything beyond the documented erratum fails.
"""

import csv
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from lumps import catalog as cat
from lumps import classify as cl
from lumps import cm, lax
from lumps.cli import main as cli_main
from lumps.hirota import YANG, hirota_d

from conftest import random_poly
from oracles import hirota_oracle

CAT = cat.catalog()

#: collected pass/fail lines, flushed by the pytest_terminal_summary hook
#: in conftest.py so they survive fd-level capture
SUMMARY_LINES = []


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    SUMMARY_LINES.append(line)
    print(line, flush=True)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out.strip() else None


def test_criterion_1_triangular_law(tmp_path, capsys):
    """J and sigma zero sets over n <= 300 are exactly the triangulars."""
    t0 = time.time()
    out = tmp_path / "scan300.csv"
    code, rep = run_cli(capsys, "scan-jn", "--max-n", "300",
                        "--routes", "J,sigma", "--out", str(out))
    elapsed = time.time() - t0
    triangulars = [k * (k + 1) // 2 for k in range(1, 25)
                   if k * (k + 1) // 2 <= 300]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    j_zeros = [int(r["n"]) for r in rows if Fraction(r["J_n"]) == 0]
    s_zeros = [int(r["n"]) for r in rows
               if Fraction(r["sigma_obstruction"]) == 0]
    ok = (code == 0 and rep["results"]["zero_set_is_triangular"] is True
          and j_zeros == triangulars and s_zeros == triangulars
          and elapsed < 600)
    report(1, ok, f"J and sigma zero sets over n<=300 both equal the "
                  f"24 triangulars ({elapsed:.1f}s, exact arithmetic)")
    assert ok


def test_criterion_2_gamma_table_n15(capsys):
    """certify --n 15 reproduces the seven printed fractions, string-equal."""
    printed = {
        "1": "3219950475/374",
        "2": "-800391375/416",
        "3": "24045525/4",
        "4": "34505100/187",
        "5": "-74025/52",
        "6": "55335/2",
        "7": "-5460/17",
    }
    code, rep = run_cli(capsys, "certify", "--n", "15")
    got = rep["results"]["gammas"]
    # canonicalize both sides through Fraction and compare the strings
    canon = {q: str(Fraction(v)) for q, v in printed.items()}
    ok = code == 0 and got == canon
    report(2, ok, "all seven gamma fractions at n=15 match the printed "
                  "values exactly (string-equal after canonicalization)")
    assert ok


def test_criterion_3_uniqueness_certificates():
    """Every gamma_q is nonzero for triangular n <= 105 (k <= 14)."""
    t0 = time.time()
    checked = []
    all_ok = True
    for k in range(1, 15):
        n = k * (k + 1) // 2
        cert = cl.uniqueness_certificate(n)
        expected_count = n // 2
        all_ok = all_ok and cert.all_nonzero and \
            len(cert.gammas) == expected_count
        checked.append(n)
    elapsed = time.time() - t0
    ok = all_ok and checked[-1] == 105 and elapsed < 600
    report(3, ok, f"uniqueness certificates hold (all gamma_q != 0, exact) "
                  f"for triangular n in {checked} ({elapsed:.1f}s)")
    assert ok


def test_criterion_4_tau_verification():
    """Catalog residuals: exact zeros, plus the two documented errata."""
    lump2 = cat.verify_tau(CAT["lump2"])
    pelin6 = cat.verify_tau(CAT["pelin6"])
    ok = lump2.is_zero() and pelin6.is_zero()

    # degree-6 family: exactly zero under its own (elliptic-sign) form at
    # the four bindings; the printed 'yang' sign is a documented
    # erratum and must produce a nonzero residual with listed monomials
    bindings = [(0, 0), (1, 0), (0, 1), (2, -3)]
    yang_erratum_support = set()
    for a, b in bindings:
        vals = {"a": Fraction(a), "b": Fraction(b)}
        own = cat.verify_tau(CAT["yang6"], vals)
        printed_sign = cat.verify_tau(CAT["yang6"], vals, form=YANG)
        ok = ok and own.is_zero() and not printed_sign.is_zero()
        yang_erratum_support.add(printed_sign.num_terms())

    # degree-12 entry as printed: nonzero residual with its 27 offending
    # monomials; the single-coefficient correction gives the exact zero
    printed12 = cat.verify_tau(CAT["pelin12"])
    corrected12 = cat.verify_tau(CAT["pelin12-corrected"])
    minimal_support = (CAT["pelin12-corrected"].tau()
                       - CAT["pelin12"].tau()).to_zzbar()
    ok = ok and not printed12.is_zero() and corrected12.is_zero()
    ok = ok and printed12.num_terms() == 27
    ok = ok and minimal_support.num_terms() == 2  # z^2 + zbar^2 only

    report(4, ok,
           "LUMP2/PELIN6 exactly zero under standard; YANG6 exactly zero at "
           "4 bindings under its own sign with the printed '+3Dy^2' sign "
           "filed as an erratum; PELIN12-as-printed fails with 27 offending "
           "monomials reported and a one-coefficient erratum "
           "(z^2+zbar^2: 38390275 -> -35277550/3) restores the exact zero")
    assert ok


def test_criterion_5_phase_table():
    """Twelve phase entries, exact sqrt6-rational comparison."""
    comparison = lax.compare_phase_tables()
    mismatches = tuple((c["point"], c["j"])
                       for c in comparison if not c["match"])
    matches = sum(1 for c in comparison if c["match"])
    # the two mismatches are exactly the documented transposition, which is
    # unrealizable under sigma = i(3 lambda^2 - 4) for any branch choice
    comp = {(e.point, e.j): e for e in lax.computed_phase_table()}
    prnt = {(e.point, e.j): e for e in lax.printed_phase_table()}
    (p1, j1), (p2, j2) = lax.PRINT_ERRATA
    transposed = (prnt[(p1, j1)].y_coeff == comp[(p2, j2)].y_coeff
                  and prnt[(p2, j2)].y_coeff == comp[(p1, j1)].y_coeff
                  and not lax.phase_consistency(prnt[(p1, j1)])
                  and not lax.phase_consistency(prnt[(p2, j2)]))
    ok = (len(comparison) == 12 and matches == 10
          and mismatches == lax.PRINT_ERRATA and transposed)
    report(5, ok,
           "10/12 phase entries match the printed table exactly (sqrt6-"
           "rational comparison); the 2 mismatches are the documented "
           "erratum (y-parts of Lambda_2/Lambda_3 at k1- transposed in "
           "print, violating the sigma-lambda tie)")
    assert ok


def test_criterion_6_cm_locus():
    """LUMP2 in the (3/2)-normalization: locus, flow tangency, analytic poles."""
    rec = CAT["lump2-bnew"]
    ok = True
    worst_locus = 0.0
    worst_tangent = 0.0
    worst_eta = 0.0
    for y in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        cfg = cm.poles_from_tau(rec, y)
        l1, l2 = cm.locus_residual(cfg)
        t1, t2 = cm.tangent_residual(cfg, cm.cm_rhs(cfg))
        worst_locus = max(worst_locus,
                          max(abs(v) for v in list(l1) + list(l2)))
        worst_tangent = max(worst_tangent,
                            max(abs(v) for v in list(t1) + list(t2)))
        analytic = math.sqrt(3 * float(y) ** 2 + 3)
        for eta in cfg.eta:
            worst_eta = max(worst_eta, abs(abs(eta.imag) - analytic))
            worst_eta = max(worst_eta, abs(eta.real))
    ok = worst_locus <= 1e-9 and worst_tangent <= 1e-9 and worst_eta <= 1e-10
    report(6, ok,
           f"lump poles at y in {{0,1/2,1,2}}: max locus residual "
           f"{worst_locus:.2e} <= 1e-9, flow tangent residual "
           f"{worst_tangent:.2e} <= 1e-9, eta vs +-i*sqrt(3y^2+3) within "
           f"{worst_eta:.2e} <= 1e-10")
    assert ok


def test_criterion_7_energy_quantization():
    """H(q6)/H(q2) = 3 within 5%, stable under R->400, h->0.025 within 1%."""
    t0 = time.time()
    h2 = cat.energy(CAT["lump2-bnew"], half_width=200.0, step=0.05)
    h6 = cat.energy(CAT["pelin6-bnew"], half_width=200.0, step=0.05)
    ratio = h6 / h2
    # frozen regression constant for the ground-state energy at this window
    regression_ok = abs(h2 - 1.36086124) < 1e-4
    h2_fine = cat.energy(CAT["lump2-bnew"], half_width=400.0, step=0.025)
    h6_fine = cat.energy(CAT["pelin6-bnew"], half_width=400.0, step=0.025)
    stable = (abs(h2_fine - h2) / abs(h2) < 0.01
              and abs(h6_fine - h6) / abs(h6) < 0.01)
    elapsed = time.time() - t0
    ok = abs(ratio - 3.0) <= 0.05 * 3.0 and stable and regression_ok
    report(7, ok,
           f"H(q6)/H(q2) = {ratio:.5f} (|ratio-3| <= 0.15) at R=200, h=0.05; "
           f"stable to {100*abs(h2_fine-h2)/abs(h2):.3f}% / "
           f"{100*abs(h6_fine-h6)/abs(h6):.3f}% under R=400, h=0.025 "
           f"({elapsed:.0f}s)")
    assert ok


def test_criterion_8_property_suites():
    """Oracle agreement, d/p agreement, round-trips, sigma_1 law, degree solver."""
    rng = random.Random(987654)

    hirota_ok = True
    for _ in range(200):
        f = random_poly(rng, max_degree=4, max_terms=4, real_only=False)
        g = random_poly(rng, max_degree=4, max_terms=4, real_only=False)
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - a)
        hirota_ok = hirota_ok and \
            hirota_d(a, b, f, g) == hirota_oracle(a, b, f, g)

    dp_ok = True
    for n in (6, 10, 15):
        for i in range(6):
            for j in range(6):
                if n - 3 * i < 0 or n - 3 * j < 0:
                    continue
                if 2 * n - 3 * i - 3 * j - 1 >= 0:
                    dp_ok = dp_ok and \
                        cl.d_ij_definitional(n, i, j) == cl.d_ij(i, j)
                if 2 * n - 3 * i - 3 * j - 4 >= 0:
                    dp_ok = dp_ok and \
                        cl.p_ij_definitional(n, i, j) == cl.p_ij(n, i, j)

    roundtrip_ok = True
    for _ in range(500):
        p = random_poly(rng, max_degree=6, max_terms=6, real_only=False)
        roundtrip_ok = roundtrip_ok and p.to_zzbar().to_xy() == p

    sigma_ok = all(cl.sigma_seq(n, 1)[1] == Fraction(n - n * n, 2)
                   for n in range(1, 51))

    degree_ok = all(cl.solve_degree(k) == Fraction(-3, 2) * k * (k + 1)
                    and cl.hierarchy_degree(2 * k, cl.solve_degree(k)).balanced
                    for k in range(11))

    ok = hirota_ok and dp_ok and roundtrip_ok and sigma_ok and degree_ok
    report(8, ok,
           f"Hirota oracle x200 {'ok' if hirota_ok else 'FAIL'}; "
           f"d/p definitional vs closed-form {'ok' if dp_ok else 'FAIL'}; "
           f"basis round-trip x500 {'ok' if roundtrip_ok else 'FAIL'}; "
           f"sigma_1 = (n-n^2)/2 for n<=50 {'ok' if sigma_ok else 'FAIL'}; "
           f"degree solver k<=10 {'ok' if degree_ok else 'FAIL'} (all exact)")
    assert ok
