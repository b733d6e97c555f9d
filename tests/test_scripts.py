"""The degree-12 erratum exhibit, scripts/reconstruct_degree12.py, run
in-process with stdout pinned, and its polarization screen."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lumps import catalog as cat
from lumps.hirota import STANDARD, BilinearForm
from lumps.polyring import ExactPoly, poly_zz

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name: str, *args: str):
    """(exit code of main(), stdout lines) of scripts/<name>.py run with args."""
    module = load_script(name)
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


def test_reconstruct_degree12_compares_the_whole_record(monkeypatch):
    """A shipped record right at the fixed slot but off by 1 in its constant
    term does not match the reconstruction."""
    shipped = cat.catalog()["pelin12-corrected"]
    wrong = cat.TauRecord.plain(shipped.id, shipped.tau() + ExactPoly.constant(1),
                                shipped.scale_c, shipped.form, shipped.notes)
    monkeypatch.setitem(cat.catalog(), shipped.id, wrong)
    code, lines = run_script("reconstruct_degree12")
    assert code == 1
    assert lines[-1] == "matches the shipped pelin12-corrected record: False"


def printed_degree12():
    """The printed degree-12 polynomial in (z, zbar) and in (x, y), and its
    residual."""
    printed_zz = poly_zz(cat._pelin12_zz_terms(corrected=False))
    tau0 = printed_zz.to_xy()
    return printed_zz, tau0, STANDARD.residual(tau0)


def test_degree12_polarization_sum_is_the_residual():
    """Every screened root: R0 + eps lin + eps^2 quad is the full residual."""
    printed_zz, tau0, R0 = printed_degree12()
    roots = list(load_script("reconstruct_degree12").slot_roots(printed_zz, tau0, R0))
    assert len(roots) > 1
    for slot, E, lin, quad, eps in roots:
        assert R0 + lin.scale(eps) + quad.scale(eps * eps) == \
            STANDARD.residual(tau0 + E.scale(eps)), (slot, eps)


def test_degree12_full_residuals_counted(monkeypatch):
    """One residual per slot monomial and one for the fix that passes."""
    printed_zz, tau0, R0 = printed_degree12()
    module = load_script("reconstruct_degree12")
    calls = []
    residual = BilinearForm.residual

    def counted(form, tau):
        calls.append(form)
        return residual(form, tau)

    monkeypatch.setattr(BilinearForm, "residual", counted)
    fixes = module.corrected_candidates(printed_zz, tau0, R0)
    assert [slot for slot, _ in fixes] == [(2, 0)]
    assert len(calls) == 20 and all(form is STANDARD for form in calls)
