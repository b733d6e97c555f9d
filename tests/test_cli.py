import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lumps import cli
from lumps.cli import RunReport, main
from lumps.polyring import poly_xy


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


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
        assert report["inputs"]["params"] == {"a": "2", "b": "-3"}

    def test_nonsolution_exits_one(self, capsys):
        code, report, _ = run(capsys, "verify", "--tau", "pelin12")
        assert code == 1
        assert report["results"]["is_solution"] is False
        assert len(report["results"]["residual_terms"]) == 10

    def test_unknown_id_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "nope")
        assert code == 2
        assert "unknown tau id" in err

    def test_unbound_param_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "yang6",
                           "--param", "a=1")
        assert code == 2
        assert "unbound parameter" in err

    def test_bad_param_value_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "yang6",
                           "--param", "a=oops", "--param", "b=0")
        assert code == 2

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

    def test_custom_form(self, capsys):
        custom = json.dumps([["1", 4, 0], ["-3", 2, 0], ["-3", 0, 2]])
        code, report, _ = run(capsys, "verify", "--tau", "yang6",
                              "--param", "a=0", "--param", "b=0",
                              "--custom-form", custom)
        assert code == 0


class TestScan:
    def test_law_to_30(self, capsys, tmp_path):
        out = tmp_path / "табле.csv"
        code, report, _ = run(capsys, "scan-jn", "--max-n", "30",
                              "--routes", "J,sigma", "--out", str(out))
        assert code == 0
        res = report["results"]
        assert res["zero_set"] == [1, 3, 6, 10, 15, 21, 28]
        assert res["zero_set_is_triangular"] is True
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert len(rows) == 31

    def test_gamma_route(self, capsys):
        code, report, _ = run(capsys, "scan-jn", "--max-n", "10",
                              "--routes", "J,gamma")
        assert code == 0

    def test_bad_route_exits_two(self, capsys):
        code, _, err = run(capsys, "scan-jn", "--max-n", "5",
                           "--routes", "bogus")
        assert code == 2


class TestCertify:
    def test_n15(self, capsys):
        code, report, _ = run(capsys, "certify", "--n", "15")
        assert code == 0
        gammas = report["results"]["gammas"]
        assert gammas["1"] == "3219950475/374"
        assert gammas["7"] == "-5460/17"
        assert report["results"]["all_nonzero"] is True

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "lumps.cli", "cm-check", "--tau", "lump2",
             "--y", y], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ""

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        row, = json.loads(proc.stdout, parse_constant=refuse)["results"]["rows"]
        assert row["error"].startswith("residual is not finite")

    def test_explicit_bnew_id(self, capsys):
        code, report, _ = run(capsys, "cm-check", "--tau", "pelin6-bnew",
                              "--y", "0")
        assert code == 0
        assert report["results"]["rows"][0]["n_poles"] == 6


class TestLax:
    def test_table(self, capsys):
        code, report, _ = run(capsys, "lax-table")
        assert code == 0
        res = report["results"]
        assert len(res["entries"]) == 12
        assert res["mismatches_are_documented_errata"] is True
        assert res["mismatched_entries"] == [["k1-", 2], ["k1-", 3]]

    def test_probe(self, capsys):
        code, report, _ = run(capsys, "lax-probe", "--point", "k1+",
                              "--x", "1.0")
        assert code == 0
        assert report["results"]["cauchy_decreasing"] is True

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_probe_nonfinite_x_is_usage_error(self, capsys, x):
        code, report, err = run(capsys, "lax-probe", "--point", "k1+",
                                f"--x={x}")
        assert code == 2
        assert report is None
        assert "--x must be finite" in err

    def test_probe_bad_point(self, capsys):
        code, _, err = run(capsys, "lax-probe", "--point", "k9+")
        assert code == 2

    @pytest.mark.parametrize("x", ["1e5", "-1e5", "1e300"])
    def test_probe_overflowing_x_is_usage_error(self, capsys, x):
        code, report, err = run(capsys, "lax-probe", "--point", "k1+",
                                f"--x={x}")
        assert code == 2
        assert report is None
        assert "overflows the probe" in err

    @pytest.mark.parametrize("point", ["k1+", "k1-", "k2+", "k2-"])
    def test_probe_default_x(self, capsys, point):
        code, report, _ = run(capsys, "lax-probe", "--point", point)
        assert code == 0
        assert report["inputs"]["x"] == 1.0


class TestEnergyAndDegree:
    def test_energy_ratio(self, capsys):
        code, report, _ = run(capsys, "energy", "--tau", "pelin6-bnew",
                              "--half-width", "40", "--step", "0.2",
                              "--ratio-to", "lump2-bnew")
        assert code == 0
        assert abs(report["results"]["ratio"] - 3.0) < 0.2

    def test_energy_wrong_record_exits_two(self, capsys):
        code, _, err = run(capsys, "energy", "--tau", "lump2")
        assert code == 2
        assert "normalization" in err

    @pytest.mark.parametrize("window, message", [
        (["--step", "0"], "step must be finite and > 0"),
        (["--step=-0.1"], "step must be finite and > 0"),
        (["--half-width=-5"], "half_width must be finite and > 0"),
        (["--half-width", "nan"], "half_width must be finite and > 0"),
        (["--step", "inf"], "step must be finite and > 0"),
        (["--half-width", "1", "--step", "3"], "no grid cell"),
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

    def test_timing_is_monotonic_clock(self, capsys, monkeypatch):
        def wall_clock():
            raise AssertionError("timing must not read the wall clock")

        monkeypatch.setattr(time, "time", wall_clock)
        code, report, _ = run(capsys, "degree", "--k", "2")
        assert code == 0
        assert report["timing_seconds"] >= 0
