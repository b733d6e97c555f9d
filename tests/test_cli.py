import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

from conftest import fresh_python
from lumps import catalog, classify, cli, lax
from lumps.cli import RunReport, main
from lumps.polyring import poly_xy, poly_zz


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def no_bnew_record(spec):
    """stderr of cm-check or energy given an id with no (3/2) record."""
    known = sorted(r for r in catalog.catalog() if r.endswith("-bnew"))
    return (f"error: no (3/2) record for tau id {spec!r}; known: {known} "
            "(the -bnew suffix may be left off)\n")


class TestVerify:
    def test_lump2(self, capsys):
        code, report, _ = run(capsys, "verify", "--tau", "lump2",
                              "--form", "standard")
        assert code == 0
        assert report["results"]["is_solution"] is True
        assert report["results"]["residual_term_count"] == 0
        assert report["exact"] is True

    def test_yang_bindings(self, capsys):
        code, report, _ = run(capsys, "verify", "--tau", "yang6",
                              "--param", "a=2", "--param", "b=-3")
        assert code == 0
        assert report["results"]["params"] == {"a": "2", "b": "-3"}

    def test_nonsolution_exits_one(self, capsys):
        code, report, _ = run(capsys, "verify", "--tau", "pelin12")
        assert code == 1
        assert report["results"]["is_solution"] is False
        assert report["results"]["residual_term_count"] == 27
        listed = report["results"]["residual_terms"]
        assert len(listed) == 10
        # the highest-degree offending monomial first, then descending
        # graded order: total degree, then the x power
        assert listed[0][:2] == [12, 0]
        keys = [(i + j, i) for i, j, _ in listed]
        assert keys == sorted(keys, reverse=True)

    def test_unknown_id_exits_two(self, capsys):
        known = sorted(catalog.catalog())
        code, report, err = run(capsys, "verify", "--tau", "nope")
        assert code == 2
        assert report is None
        assert err == f"error: unknown tau id 'nope'; known: {known}\n"
        for command in ("energy", "cm-check"):
            code, report, err = run(capsys, command, "--tau", "nope")
            assert code == 2
            assert report is None
            assert err == no_bnew_record("nope")

    def test_unbound_param_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "yang6",
                           "--param", "a=1")
        assert code == 2
        assert "unbound parameter" in err

    def test_bad_param_value_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "yang6",
                           "--param", "a=oops", "--param", "b=0")
        assert code == 2

    def test_param_without_value_exits_two(self, capsys):
        code, report, err = run(capsys, "verify", "--tau", "yang6",
                                "--param", "a", "--param", "b=0")
        assert code == 2
        assert report is None
        assert "--param expects name=value, got 'a'" in err

    def test_repeated_param_exits_two(self, capsys):
        code, report, err = run(capsys, "verify", "--tau", "yang6", "--param", "a=1",
                                "--param", "a=2", "--param", "b=0")
        assert code == 2
        assert report is None
        assert "--param a is given more than once" in err

    def test_custom_form_is_removed(self, capsys):
        # --form takes the JSON triples itself
        for form in ([], ["--form", "yang"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--tau", "lump2", *form,
                      "--custom-form", '[["1",4,0],["-1",2,0],["-1",0,2]]'])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert "unrecognized arguments: --custom-form" in out.err

    @pytest.mark.parametrize("form", ["nope", "", "even-section"])
    def test_unknown_preset_names_the_presets(self, capsys, form):
        # even-section, the negated standard form, is no longer a preset
        code, report, err = run(capsys, "verify", "--tau", "lump2", "--form", form)
        assert code == 2
        assert report is None
        assert err.startswith("error: malformed --form: neither a preset ['bnew', "
                              "'standard', 'yang', 'yang-elliptic']")

    @pytest.mark.parametrize("tau", ["pelin6", "pelin12"])
    def test_negated_standard_as_json(self, capsys, tau):
        # the same verdict and term count as standard, every term negated
        negated = '[["-1",4,0],["1",2,0],["1",0,2]]'
        code, report, _ = run(capsys, "verify", "--tau", tau, "--form", negated)
        want_code, want, _ = run(capsys, "verify", "--tau", tau, "--form", "standard")
        got, want = report["results"], want["results"]
        assert (code, got["is_solution"]) == (want_code, want["is_solution"])
        assert got["residual_term_count"] == want["residual_term_count"]
        assert [t[:2] for t in got["residual_terms"]] == \
            [t[:2] for t in want["residual_terms"]]
        assert [Fraction(t[2]) for t in got["residual_terms"]] == \
            [-Fraction(t[2]) for t in want["residual_terms"]]

    @pytest.mark.parametrize("argv, preset", [
        (["--tau", "pelin6"], "standard"),
        (["--tau", "yang6", "--param", "a=2", "--param", "b=-3"], "yang"),
    ], ids=["pelin6", "yang6"])
    def test_json_form_matches_its_preset(self, capsys, argv, preset):
        # the presets' triples as JSON give the preset's exit and residual
        triples = json.dumps([[str(w), a, b] for w, a, b in cli.PRESETS[preset].terms])
        code, report, _ = run(capsys, "verify", *argv, "--form", triples)
        want_code, want, _ = run(capsys, "verify", *argv, "--form", preset)
        assert (code, report["results"]["form"]) == (want_code, "custom")
        assert report["inputs"]["form"] == triples
        del report["results"]["form"], want["results"]["form"]
        assert report["results"] == want["results"]

    def test_polynomial_file_input(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3}).dumps())
        code, report, _ = run(capsys, "verify", "--tau", str(path),
                              "--form", "standard")
        assert code == 0
        assert report["results"]["is_solution"] is True

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--tau", str(path))
        assert code == 2
        assert "malformed" in err

    def test_zzbar_file_input(self, capsys, tmp_path):
        # z zbar + 3 is lump2 written in the (z, zbar) basis
        path = tmp_path / "tau.json"
        path.write_text(poly_zz({(1, 1): 1, (0, 0): 3}).dumps())
        code, report, _ = run(capsys, "verify", "--tau", str(path))
        assert code == 0
        assert report["results"]["is_solution"] is True

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"basis": "xy", "terms": 5}',
        '{"basis": "xy", "terms": [[1e400, 0, "1"]]}',
        # each of these once verified as some other polynomial: a truncated
        # exponent, the last of two entries, false read as 0, an ignored key
        '{"basis": "xy", "terms": [[2.5, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}',
        '{"basis": "xy", "terms": [[2, 0, "1"], [2, 0, "5"], [0, 2, "1"], [0, 0, "3"]]}',
        '{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], [false, false, "3"]]}',
        '{"basis": "xy", "terms": [[2, 0, {"re": "1", "imag": "5"}], [0, 2, "1"], [0, 0, "3"]]}',
        # repeated JSON keys, of which json.loads would keep the last
        '{"basis": "xy", "terms": [[0, 0, "1"]], "terms": [[2, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}',
        '{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], [0, 0, {"re": "1", "re": "3"}]]}',
        # a zero denominator once escaped as a ZeroDivisionError traceback
        '{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], [0, 0, "1/0"]]}',
        '{"basis": "xy", "terms": [[2, 0, {"re": "1", "im": "1/0"}], [0, 2, "1"]]}',
    ])
    def test_malformed_structure_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, report, err = run(capsys, "verify", "--tau", str(path))
        assert code == 2
        assert report is None
        assert "malformed polynomial file" in err

    def test_unreadable_path_exits_two(self, capsys, tmp_path):
        binary = tmp_path / "tau.bin"
        binary.write_bytes(bytes(range(256)))
        for spec in (str(tmp_path), str(binary), "a" * 300, os.devnull):
            code, report, err = run(capsys, "verify", "--tau", spec)
            assert code == 2
            assert report is None
            assert "cannot read polynomial file" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_path_exits_two(self, tmp_path):
        # a fresh interpreter with a timeout: opening a FIFO that has no
        # writer blocks, which in-process would hang the suite
        fifo = tmp_path / "tau.json"
        os.mkfifo(fifo)
        for argv, message in (
                (["verify", "--tau", str(fifo)],
                 f"error: cannot read polynomial file {fifo}: not a regular file\n"),
                (["energy", "--tau", "lump2-bnew", "--ratio-to", str(fifo)],
                 no_bnew_record(str(fifo)))):
            proc = fresh_python("-m", "lumps.cli", *argv, timeout=30)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == message

    def test_catalog_id_wins_over_working_directory(self, capsys, tmp_path,
                                                     monkeypatch):
        # x^2 + y^2 + 1 is not a solution, so reading the file would fail
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pelin6").mkdir()
        not_lump = poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 1})
        (tmp_path / "lump2").write_text(not_lump.dumps())
        for tau in ("pelin6", "lump2"):
            code, report, _ = run(capsys, "verify", "--tau", tau)
            assert code == 0
            assert report["results"]["id"] == tau
            assert report["results"]["is_solution"] is True
        code, report, _ = run(capsys, "verify", "--tau", "./lump2")
        assert code == 1
        assert report["results"]["is_solution"] is False

    def test_custom_form(self, capsys):
        custom = json.dumps([["1", 4, 0], ["-3", 2, 0], ["-3", 0, 2]])
        code, report, _ = run(capsys, "verify", "--tau", "yang6",
                              "--param", "a=0", "--param", "b=0",
                              "--form", custom)
        assert code == 0

    def test_huge_custom_order(self, capsys):
        # D1^(10^6) annihilates every pair of a degree-6 tau at once
        code, report, _ = run(capsys, "verify", "--tau", "pelin6",
                              "--form", '[["1",1000000,0]]')
        assert code == 0
        assert report["results"]["residual_term_count"] == 0
        assert report["results"]["residual_terms"] == []

    @pytest.mark.parametrize("custom", [
        # the first three once read as the standard form's 4 (exit 0 on pelin6)
        '[["1",4.5,0],["-1",2,0],["-1",0,2]]',
        '[["1","4",0],["-1",2,0],["-1",0,2]]',
        '[["1",4,0],["-1",2,0],["-1",0,2],["1",true,true]]',
        "[[1,-2,0]]",
    ])
    def test_order_not_a_nonnegative_integer_exits_two(self, capsys, custom):
        code, report, err = run(capsys, "verify", "--tau", "pelin6",
                                "--form", custom)
        assert code == 2
        assert report is None
        assert "malformed --form" in err and "integers >= 0" in err

    @pytest.mark.parametrize("custom", ["[]", "{}", '["140"]', '{"140": 1}'])
    def test_empty_or_shapeless_custom_form_exits_two(self, capsys, custom):
        # an empty form is solved by every tau
        code, report, err = run(capsys, "verify", "--tau", "pelin12",
                                "--form", custom)
        assert code == 2
        assert report is None
        assert "non-empty list of [weight, a, b] triples" in err


class TestScan:
    def test_law_to_30(self, capsys, tmp_path):
        out = tmp_path / "табле.csv"
        code, report, _ = run(capsys, "scan-jn", "--max-n", "30",
                              "--routes", "J,sigma", "--out", str(out))
        assert code == 0
        res = report["results"]
        assert res["zero_set"] == [1, 3, 6, 10, 15, 21, 28]
        assert res["zero_set_is_triangular"] is True
        assert res["uncertified"] == []  # gamma did not run
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert len(rows) == 31

    def test_gamma_route(self, capsys):
        code, report, _ = run(capsys, "scan-jn", "--max-n", "10",
                              "--routes", "J,gamma")
        assert code == 0
        assert report["results"]["uncertified"] == []
        keys = list(report["results"])
        assert keys[keys.index("errors") + 1] == "uncertified"

    @pytest.mark.parametrize("routes", ["gamma", "J,gamma"])
    def test_failed_certificate_fails_the_scan(self, capsys, monkeypatch, routes):
        real = classify.uniqueness_certificate

        def failing_at_6(n):
            cert = real(n)
            return dataclasses.replace(cert, all_nonzero=False) if n == 6 else cert

        monkeypatch.setattr(classify, "uniqueness_certificate", failing_at_6)
        code, report, _ = run(capsys, "scan-jn", "--max-n", "10",
                              "--routes", routes)
        assert code == 1
        assert report["results"]["uncertified"] == [6]
        assert report["results"]["errors"] == []
        # no obstruction route ran on "gamma" alone, so there is no zero set
        assert report["results"]["zero_set"] == (
            None if routes == "gamma" else [1, 3, 6, 10])

    @pytest.mark.parametrize("name, error", [
        ("sigma_obstruction",
         "route disagreement at n=6: J=0, sigma_obstruction=1"),
        ("j_obstruction", "no exact value at n=6"),
    ])
    def test_row_error_fails_the_scan(self, capsys, monkeypatch, name, error):
        # sigma turns nonzero at n = 6, where J vanishes; J raises there
        real = getattr(classify, name)

        def patched(n):
            if n != 6:
                return real(n)
            if name == "sigma_obstruction":
                return Fraction(1)
            raise ArithmeticError("no exact value at n=6")

        monkeypatch.setattr(classify, name, patched)
        code, report, _ = run(capsys, "scan-jn", "--max-n", "6")
        assert code == 1
        assert report["results"]["errors"] == [error]

    def test_bad_route_exits_two(self, capsys):
        code, _, err = run(capsys, "scan-jn", "--max-n", "5",
                           "--routes", "bogus")
        assert code == 2

    @pytest.mark.parametrize("routes", ["", ",", " , "])
    def test_no_route_exits_two(self, capsys, routes):
        code, report, err = run(capsys, "scan-jn", "--max-n", "5",
                                f"--routes={routes}")
        assert code == 2
        assert report is None
        assert "at least one route" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code, report, err = run(capsys, "scan-jn", "--max-n", "5",
                                    "--out", str(out))
            assert code == 2
            assert report is None
            assert "cannot write --out" in err

    @pytest.mark.parametrize("option", [["--jobs", "2"],
                                        ["--pair-convention", "unordered"]])
    def test_removed_options_exit_two(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["scan-jn", "--max-n", "5", *option])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCertify:
    def test_n15(self, capsys):
        code, report, _ = run(capsys, "certify", "--n", "15")
        assert code == 0
        gammas = report["results"]["gammas"]
        assert gammas["1"] == "3219950475/374"
        assert gammas["7"] == "-5460/17"
        assert report["results"]["all_nonzero"] is True
        assert report["results"]["unique_even"] is True

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_usage_error(self, capsys, n):
        code, report, err = run(capsys, "certify", "--n", n)
        assert code == 2
        assert report is None
        assert "--n must be >= 1" in err
        assert "Traceback" not in err

    def test_n1_vacuous(self, capsys):
        code, report, _ = run(capsys, "certify", "--n", "1")
        assert code == 0
        assert report["results"]["gammas"] == {}


class TestCmCheck:
    def test_lump2(self, capsys):
        code, report, _ = run(capsys, "cm-check", "--tau", "lump2",
                              "--y", "0,1/2,1,2")
        assert code == 0
        rows = report["results"]["rows"]
        assert report["results"]["id"] == "lump2-bnew"
        assert [r["y"] for r in rows] == ["0", "1/2", "1", "2"]
        assert [r["n_poles"] for r in rows] == [2, 2, 2, 2]
        assert all(r["max_locus_residual"] <= 1e-9 for r in rows)
        assert all(r["max_tangent_residual_of_flow"] <= 1e-9 for r in rows)
        assert report["exact"] is False

    @pytest.mark.parametrize("ys", ["abc", "1,x", "1/0"])
    def test_bad_height_is_usage_error(self, capsys, ys):
        code, report, err = run(capsys, "cm-check", "--tau", "lump2",
                                "--y", ys)
        assert code == 2
        assert report is None
        assert "--y expects a comma list of rationals" in err

    @pytest.mark.parametrize("ys", ["", ",", " , ,"])
    def test_no_height_is_usage_error(self, capsys, ys):
        code, report, err = run(capsys, "cm-check", "--tau", "lump2",
                                f"--y={ys}")
        assert code == 2
        assert report is None
        assert "--y expects at least one height" in err

    @pytest.mark.parametrize("tau, y", [("lump2", "1e400"),
                                        ("pelin12-corrected", "1e30")])
    def test_height_beyond_float_fails_the_row(self, capsys, tau, y):
        # a pole-polynomial coefficient overflows float: the row reports it
        code = main(["cm-check", "--tau", tau, "--y", y])
        out = capsys.readouterr()
        assert code in (1, 2)
        assert "Traceback" not in out.err

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        report = json.loads(out.out, parse_constant=refuse)
        row, = report["results"]["rows"]
        assert row["error"] == "a polynomial coefficient does not fit a float"
        assert report["results"]["within_tolerance"] is False

    @pytest.mark.parametrize("y", ["1e100", "1e150"])
    def test_non_finite_residual_fails_the_row(self, capsys, y):
        # coefficients fit a float but the residual sums overflow to nan/inf
        code = main(["cm-check", "--tau", "lump2", "--y", y])
        out = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in out.err

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        report = json.loads(out.out, parse_constant=refuse)
        row, = report["results"]["rows"]
        assert row["error"].startswith("residual is not finite")
        assert report["results"]["within_tolerance"] is False

    @pytest.mark.parametrize("y", ["1e100", "1e150"])
    def test_overflowing_height_leaves_stderr_empty(self, y):
        # a fresh interpreter, so numpy warnings reach stderr unfiltered
        proc = fresh_python("-m", "lumps.cli", "cm-check", "--tau", "lump2",
                            "--y", y)
        assert proc.returncode == 1
        assert proc.stderr == ""

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        row, = json.loads(proc.stdout, parse_constant=refuse)["results"]["rows"]
        assert row["error"].startswith("residual is not finite")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "1e-9"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        # the bound is cm.RESIDUAL_TOL: no --tol, not even a loose one, parses
        with pytest.raises(SystemExit) as exc:
            main(["cm-check", "--tau", "lump2", f"--tol={tol}"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --tol" in out.err

    def test_bound_is_reported(self, capsys):
        code, report, _ = run(capsys, "cm-check", "--tau", "lump2", "--y", "1")
        assert code == 0
        assert report["results"]["tol"] == cli.cm.RESIDUAL_TOL == 1e-9
        assert report["results"]["id"] == "lump2-bnew"
        assert [row["y"] for row in report["results"]["rows"]] == ["1"]

    def test_nan_after_finite_residuals_fails_the_row(self, capsys, monkeypatch):
        # max() over [0.0, nan] returns 0.0: every value is tested instead
        monkeypatch.setattr(cli.cm, "locus_residual",
                            lambda cfg: ([0j, 0j], [0j, complex(math.nan, 0.0)]))
        code, report, _ = run(capsys, "cm-check", "--tau", "lump2", "--y", "1")
        assert code == 1
        row, = report["results"]["rows"]
        assert row["error"].startswith("residual is not finite (locus nan")
        assert report["results"]["within_tolerance"] is False

    def test_missed_root_residual_fails_the_row(self, capsys, monkeypatch):
        real = numpy.roots
        monkeypatch.setattr(numpy, "roots", lambda c: real(c) + 1e-3)
        code, report, _ = run(capsys, "cm-check", "--tau", "lump2", "--y", "1")
        assert code == 1
        row, = report["results"]["rows"]
        assert row["error"].startswith(
            "companion roots miss the scaled residual bound 1e-10")
        assert report["results"]["within_tolerance"] is False

    def test_explicit_bnew_id(self, capsys):
        code, report, _ = run(capsys, "cm-check", "--tau", "pelin6-bnew",
                              "--y", "0")
        assert code == 0
        assert report["results"]["rows"][0]["n_poles"] == 6

    @pytest.mark.parametrize("tau", ["yang6", "pelin12", "lump2-bnew-bnew"])
    def test_id_without_bnew_record_exits_two(self, capsys, tau):
        code, report, err = run(capsys, "cm-check", "--tau", tau)
        assert code == 2
        assert report is None
        assert err == no_bnew_record(tau)


class TestLax:
    def test_table(self, capsys):
        code, report, _ = run(capsys, "lax-table")
        assert code == 0
        res = report["results"]
        assert len(res["entries"]) == 12
        assert res["mismatches_are_documented_errata"] is True
        assert res["mismatched_entries"] == [["k1-", 2], ["k1-", 3]]

    def test_probe(self, capsys):
        code, report, _ = run(capsys, "lax-probe", "--point", "k1+")
        assert code == 0
        assert report["results"]["cauchy_decreasing"] is True

    @pytest.mark.parametrize("x", [["--x", "1.0"], ["--x=1e5"], ["--x=nan"]],
                             ids=["1.0", "1e5", "nan"])
    def test_probe_has_no_x_option(self, capsys, x):
        # the exact verdict holds for every real x, so there is none to choose
        with pytest.raises(SystemExit) as exc:
            main(["lax-probe", "--point", "k1+", *x])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_probe_bad_point(self, capsys):
        code, _, err = run(capsys, "lax-probe", "--point", "k9+")
        assert code == 2

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_probe_default_x(self, capsys, point):
        code, report, _ = run(capsys, "lax-probe", "--point", point)
        assert code == 0
        assert report["results"]["x"] == 1.0
        res = report["results"]
        for key in ("phi12_gaps", "phi22_gaps"):
            gaps = res[key]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_probe_exact_verdict(self, capsys, point):
        code, report, _ = run(capsys, "lax-probe", "--point", point)
        assert code == 0
        assert report["exact"] is True
        res = report["results"]
        assert res["exact_removable"] is True
        assert res["numerators"] == ([{}, {}] if point.startswith("k1") else None)

    def test_probe_exit_follows_the_exact_verdict(self, capsys, monkeypatch):
        # a nonzero Phi_22 numerator fails the command, though the float
        # gaps still decrease
        monkeypatch.setattr(lax, "residue_identity", lambda point: [
            {}, {Fraction(-1, 3): (Fraction(0), Fraction(-4, 3))}])
        code, report, _ = run(capsys, "lax-probe", "--point", "k1+")
        assert code == 1
        res = report["results"]
        assert res["exact_removable"] is False
        assert res["numerators"] == [{}, {"-1/3": ["0", "-4/3"]}]
        assert res["cauchy_decreasing"] is True


class TestEnergyAndDegree:
    def test_energy_ratio(self, capsys):
        code, report, _ = run(capsys, "energy", "--tau", "pelin6-bnew",
                              "--half-width", "40", "--step", "0.2",
                              "--ratio-to", "lump2-bnew")
        assert code == 0
        assert abs(report["results"]["ratio"] - 3.0) < 0.2

    def test_energy_unknown_ratio_to_exits_before_quadrature(self, capsys,
                                                             monkeypatch):
        calls = []
        real = cli.cat.energy
        monkeypatch.setattr(cli.cat, "energy",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        code, report, err = run(capsys, "energy", "--tau", "pelin6-bnew",
                                "--ratio-to", "nope")
        assert code == 2
        assert report is None
        assert err == no_bnew_record("nope")
        assert calls == []

    def test_energy_plain_id_implies_bnew(self, capsys):
        plain, suffixed = (
            run(capsys, "energy", "--tau", tau, "--ratio-to", other,
                "--half-width", "20", "--step", "0.5")[1]["results"]
            for tau, other in (("pelin6", "lump2"), ("pelin6-bnew", "lump2-bnew")))
        assert plain["id"] == "pelin6-bnew"
        for key in ("H", "H_reference", "ratio"):
            assert plain[key] == suffixed[key], key

    @pytest.mark.parametrize("tau", ["yang6", "FILE.json"])
    def test_energy_id_without_bnew_record_exits_two(self, capsys, tmp_path,
                                                     monkeypatch, tau):
        # a file of that name is never read: the error names the accepted ids
        monkeypatch.chdir(tmp_path)
        (tmp_path / "FILE.json").write_text(poly_xy({(2, 0): 1, (0, 2): 1}).dumps())
        code, report, err = run(capsys, "energy", "--tau", tau)
        assert code == 2
        assert report is None
        assert err == no_bnew_record(tau)
        assert "'lump2-bnew', 'pelin12-corrected-bnew', 'pelin6-bnew'" in err

    def test_energy_catalog_id_wins_over_working_directory(self, capsys, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pelin6-bnew").mkdir()
        (tmp_path / "lump2-bnew").write_text(poly_xy({(2, 0): 1, (0, 2): 1}).dumps())
        code, report, _ = run(capsys, "energy", "--tau", "pelin6-bnew",
                              "--half-width", "40", "--step", "0.2",
                              "--ratio-to", "lump2-bnew")
        assert code == 0
        assert abs(report["results"]["ratio"] - 3.0) < 0.2
        # a path is not an id, even when it names a file
        code, report, err = run(capsys, "energy", "--tau", "./lump2-bnew")
        assert code == 2
        assert report is None
        assert err == no_bnew_record("./lump2-bnew")

    @pytest.mark.parametrize("window, message", [
        (["--step", "0"], "step must be finite and > 0"),
        (["--step=-0.1"], "step must be finite and > 0"),
        (["--half-width=-5"], "half_width must be finite and > 0"),
        (["--half-width", "nan"], "half_width must be finite and > 0"),
        (["--step", "inf"], "step must be finite and > 0"),
        (["--half-width", "1", "--step", "3"], "no grid cell"),
        (["--half-width", "1e9", "--step", "0.1"], "exceeds 1000000 grid cells"),
        (["--half-width", "1", "--step", "0.6"], "not a whole number of grid cells"),
    ])
    def test_energy_bad_window_is_usage_error(self, capsys, window, message):
        code, report, err = run(capsys, "energy", "--tau", "lump2-bnew",
                                *window)
        assert code == 2
        assert report is None
        assert message in err

    def test_energy_nonfinite_sum_fails_with_reason(self, capsys, monkeypatch):
        def vanishing(rec, half_width, step):
            raise ArithmeticError("tau vanishes on the quadrature grid")

        monkeypatch.setattr(cli.cat, "energy", vanishing)
        code, report, _ = run(capsys, "energy", "--tau", "lump2-bnew")
        assert code == 1
        assert report["results"]["error"] == "tau vanishes on the quadrature grid"
        assert "H" not in report["results"]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_energy_vanishing_in_a_worker_band_exits_one(self, capsys, monkeypatch,
                                                          workers):
        # (x^2 + 1)(y^2 - 4.375^2) vanishes only on grid row 17 of 20, inside
        # the last band; the report names the cause and no worker is left
        tau = poly_xy({(2, 2): 1, (2, 0): Fraction(-1225, 64), (0, 2): 1,
                       (0, 0): Fraction(-1225, 64)})
        rec = cli.cat.TauRecord.plain("band-cone-bnew", tau, Fraction(3, 2),
                                      cli.cat.BNEW)
        monkeypatch.setitem(cli.cat.catalog(), "band-cone-bnew", rec)
        monkeypatch.setattr(cli.cat, "_workers", lambda rows: workers)
        code, report, _ = run(capsys, "energy", "--tau", "band-cone-bnew",
                              "--half-width", "5", "--step", "0.25")
        assert code == 1
        assert "tau vanishes" in report["results"]["error"]
        assert "H" not in report["results"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("window", [("1e30", "1e29"), ("1e10", "1e9")])
    def test_energy_past_float_range_exits_one_silently(self, window):
        # a fresh interpreter, so numpy warnings reach stderr unfiltered:
        # at 1e30 the power tables overflow, at 1e10 the degree-33 numerator
        proc = fresh_python("-m", "lumps.cli", "energy", "--tau",
                            "pelin12-corrected-bnew", "--half-width", window[0],
                            "--step", window[1])
        assert proc.returncode == 1
        assert proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert "tau vanishes (or overflows)" in results["error"]
        assert "H" not in results

    def test_degree_negative_k_is_usage_error(self, capsys):
        code, report, err = run(capsys, "degree", "--k=-2")
        assert code == 2
        assert report is None
        assert "--k must be >= 0" in err

    def test_degree(self, capsys):
        code, report, _ = run(capsys, "degree", "--k", "3")
        assert code == 0
        assert report["results"]["m"] == "-18"
        assert report["results"]["balanced"] is True
        assert report["results"]["tau_degree"] == 12

    def test_rationals_never_floats(self, capsys):
        _, report, _ = run(capsys, "certify", "--n", "6")
        for v in report["results"]["gammas"].values():
            assert isinstance(v, str)


class TestReport:
    def test_emit_refuses_nonfinite(self):
        report = RunReport("energy", {}, {"H": float("nan")}, 0.0, False)
        with pytest.raises(ValueError):
            report.emit(io.StringIO())

    @pytest.mark.parametrize("value", [{1, 3}, object(), Path("tau.json")],
                             ids=["set", "object", "path"])
    def test_emit_refuses_unlisted_types(self, value):
        # no value is printed as its repr
        report = RunReport("verify", {}, {"value": value}, 0.0, True)
        with pytest.raises(TypeError):
            report.emit(io.StringIO())

    def test_import_loads_no_process_pool(self):
        # a fresh interpreter: importing the CLI stays free of multiprocessing,
        # and of sympy and mpmath, which the tests keep as independent oracles
        code = ("import sys, lumps.cli; print(sorted(m for m in sys.modules if m in "
                "('multiprocessing', 'concurrent.futures', 'sympy', 'mpmath')))")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_state_leaks_between_calls(self, capsys):
        # one interpreter, one parser: a bound call, then an argparse usage
        # error, then a call without bindings reports what a fresh run does
        code, report, _ = run(capsys, "verify", "--tau", "yang6",
                              "--param", "a=1", "--param", "b=2")
        assert code == 0 and report["results"]["params"] == {"a": "1", "b": "2"}
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tau", "lump2", "--no-such-option"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, report, _ = run(capsys, "verify", "--tau", "lump2")
        assert code == 0 and report["results"]["params"] == {}
        proc = fresh_python(
            "-c", "import sys; from lumps.cli import main; sys.exit(main(sys.argv[1:]))",
            "verify", "--tau", "lump2")
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        del report["timing_seconds"], fresh["timing_seconds"]
        assert report == fresh

    def test_resolved_ids_are_results_not_inputs(self, capsys):
        # inputs keep the ids as typed; results name the records they resolve to
        code, report, _ = run(capsys, "cm-check", "--tau", "lump2", "--y", "1")
        assert code == 0
        assert report["inputs"] == {"tau": "lump2", "y": "1"}
        assert report["results"]["id"] == "lump2-bnew"
        code, report, _ = run(capsys, "energy", "--tau", "pelin6", "--ratio-to", "lump2",
                              "--half-width", "20", "--step", "0.5")
        assert code == 0
        assert report["inputs"] == {"tau": "pelin6", "half_width": 20.0, "step": 0.5,
                                    "ratio_to": "lump2"}
        assert (report["results"]["id"], report["results"]["reference_id"]) == (
            "pelin6-bnew", "lump2-bnew")
        code, report, _ = run(capsys, "energy", "--tau", "lump2",
                              "--half-width", "20", "--step", "0.5")
        assert code == 0
        assert report["results"]["reference_id"] is None

    def test_timing_is_monotonic_clock(self, capsys, monkeypatch):
        def wall_clock():
            raise AssertionError("timing must not read the wall clock")

        monkeypatch.setattr(time, "time", wall_clock)
        code, report, _ = run(capsys, "degree", "--k", "2")
        assert code == 0
        assert report["timing_seconds"] >= 0

    #: the options each run below parses, as every report echoes them
    PARSED = {
        "verify": {"tau": "yang6", "form": None, "param": ["a=1", "b=1/2"]},
        "scan-jn": {"max_n": 30, "routes": "J,sigma", "out": None},
        "certify": {"n": 15},
        "cm-check": {"tau": "lump2", "y": "0,1/2,1,2"},
        "lax-table": {},
        "lax-probe": {"point": "k1+"},
        "energy": {"tau": "lump2-bnew", "half_width": 60.0, "step": 0.1,
                   "ratio_to": None},
        "degree": {"k": 3},
    }

    @pytest.mark.parametrize("argv, exact", [
        (["verify", "--tau", "yang6", "--param", "a=1", "--param", "b=1/2"], True),
        (["scan-jn", "--max-n", "30"], True),
        (["certify", "--n", "15"], True),
        (["cm-check", "--tau", "lump2"], False),
        (["lax-table"], True),
        (["lax-probe", "--point", "k1+"], True),
        (["energy", "--tau", "lump2-bnew", "--half-width", "60", "--step", "0.1"], False),
        (["degree", "--k", "3"], True),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_every_subcommand_reports_once(self, argv, exact):
        # a fresh interpreter per subcommand: exit 0, one JSON document with
        # the report keys in order, the parsed options as inputs, the
        # command's own exact flag, quiet stderr
        proc = fresh_python(
            "-c", "import sys; from lumps.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert list(report) == ["command", "inputs", "results", "timing_seconds", "exact"]
        assert report["command"] == argv[0]
        assert report["inputs"] == self.PARSED[argv[0]]
        assert report["exact"] is exact
        assert proc.stderr == ""


def rational_site(site, value, tmp_path):
    """argv that hands value to one of the four places where outside text
    becomes a rational, and the wording of that place's usage error."""
    if site == "file":
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(
            {"basis": "xy", "terms": [[2, 0, value], [0, 2, "1"], [0, 0, "3"]]}))
        return ["verify", "--tau", str(path)], "malformed polynomial file"
    return {
        "param": (["verify", "--tau", "yang6", "--param", f"a={value}",
                   "--param", "b=0"], "--param a: bad rational"),
        "y": (["cm-check", "--tau", "lump2", "--y", f"1,{value}"],
              "--y expects a comma list of rationals"),
        "weight": (["verify", "--tau", "pelin6", "--form",
                    json.dumps([[value, 4, 0]])], "malformed --form"),
    }[site]


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class TestOutsideRationals:
    @pytest.mark.parametrize("value", ["1e100000", "1e4301", "1e-10000000",
                                       "1e10000000"])
    @pytest.mark.parametrize("site", ["param", "y", "weight", "file"])
    def test_exponent_past_4300_exits_two(self, capsys, tmp_path, site, value):
        # Fraction would build 10**e first: seconds at 1e10000000, and a value
        # whose digits no report could print
        argv, wording = rational_site(site, value, tmp_path)
        start = time.perf_counter()
        code, report, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert report is None
        assert wording in err and "decimal exponent above 4300" in err

    @pytest.mark.parametrize("site", ["param", "y", "weight", "file"])
    def test_exponent_4300_is_accepted_and_printed(self, capsys, tmp_path, site):
        argv, _ = rational_site(site, "1e4300", tmp_path)
        code = main(argv)
        report = strict_json(capsys.readouterr().out)
        assert code in (0, 1)
        ten = "1" + "0" * 4300
        if site == "param":
            assert report["results"]["params"]["a"] == ten
        if site == "y":
            assert [row["y"] for row in report["results"]["rows"]] == ["1", ten]

    def test_report_prints_values_past_the_digit_limit(self, capsys, tmp_path):
        # an accepted 8,600-digit coefficient: its residual once escaped as a
        # ValueError traceback from int-to-str conversion
        argv, _ = rational_site("file", "7" * 4300 + "e4300", tmp_path)
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = digit_limit()
        code = main(argv)
        out = capsys.readouterr()
        assert code == 1
        assert digit_limit() == limit
        report = strict_json(out.out)
        _, _, leading = report["results"]["residual_terms"][0]
        assert len(leading.lstrip("-")) > 4300

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-string limit before Python 3.10.7")
    def test_parsing_keeps_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text('{"basis": "xy", "terms": [[2, 0, %s]]}' % ("1" * 4301))
        code, report, err = run(capsys, "verify", "--tau", str(path))
        assert code == 2
        assert report is None
        assert "malformed polynomial file" in err


def readme_lumps_lines(heading):
    """The argv of every `lumps` line in README's first code block under
    heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(f"## {heading}", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("lumps ")]


class TestReadme:
    def run_lines(self, capsys, monkeypatch, tmp_path, lines):
        # exit 0 and one report each, with the placeholder path replaced by a
        # written lump2 interchange file
        assert lines
        poly = tmp_path / "poly.json"
        poly.write_text(poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3}).dumps())
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = [str(poly) if a == "/path/to/poly.json" else a for a in line]
            code, report, _ = run(capsys, *argv)
            assert code == 0, line
            assert report["command"] == argv[0]

    def test_command_line_block_runs(self, capsys, monkeypatch, tmp_path):
        self.run_lines(capsys, monkeypatch, tmp_path,
                       readme_lumps_lines("Command line"))

    def test_form_paragraph_names_the_presets(self):
        # the `verify --form` paragraph lists exactly the presets of hirota
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("`verify --form` takes a preset", 1)[1]
        names = re.findall(r"`([^`]+)`", paragraph.split("or a JSON form", 1)[0])
        assert sorted(names) == sorted(cli.PRESETS)

    def test_experiment_block_runs(self, capsys, monkeypatch, tmp_path):
        # a line that repeats a "Command line" invocation is run by the test
        # above, so only the others run here
        shown = readme_lumps_lines("Command line")
        lines = readme_lumps_lines("Experiments")
        self.run_lines(capsys, monkeypatch, tmp_path,
                       [line for line in lines if line not in shown])
