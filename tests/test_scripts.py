"""The experiment scripts under scripts/, run in-process with stdout pinned."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str):
    """(exit code of main(), stdout lines) of scripts/<name>.py run with args."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.setattr(sys, "argv", [f"{name}.py", *args])
        code = module.main()
    return code, out.getvalue().splitlines()


def test_reconstruct_degree12():
    """The printed residual, the n = 6 gammas, the one fix and its match."""
    code, lines = run_script("reconstruct_degree12")
    assert code == 0
    assert lines == [
        "printed degree-12 polynomial: residual has 27 monomials under "
        "Dx^4 - Dx^2 - Dy^2",
        "n = 6 gamma certificate: {1: Fraction(99, 8), 2: Fraction(60, 7), "
        "3: Fraction(-10, 1)} (all nonzero: True)",
        "single-coefficient fix: z^2 zbar^0 (+ mirror): 38390275 -> "
        "-35277550/3   (shift -150448375/3)",
        "matches the shipped pelin12-corrected record: True",
    ]


def test_run_scan(tmp_path):
    out = tmp_path / "scan.csv"
    code, lines = run_script("run_scan", "--max-n", "30", "--out", str(out))
    assert code == 0
    assert lines[-1] == "zero sets equal the triangulars on both routes: True"
    assert out.read_text().startswith("n,")


def test_uniqueness_certificates():
    code, lines = run_script("uniqueness_certificates", "--max-k", "5")
    assert code == 0
    assert lines[-1] == "unique even solution certified for all k <= 5: True"


def test_energy_quantization():
    code, lines = run_script("energy_quantization", "--half-width", "60",
                             "--step", "0.1")
    assert code == 0
    assert lines[-1] == "all ratios within 5% of k(k+1)/2: True"
