"""The experiment scripts under scripts/, run in-process with stdout pinned."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str):
    """(exit code of main(), stdout lines) of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
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
