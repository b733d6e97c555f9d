"""The three benchmark workloads: inputs drawn from a seed, items and verdict gates.

``make_inputs`` runs in ``run.py`` and is the only place the seed is used.
``build_items`` runs in the child interpreter and turns those inputs into a
list of items.  An item is one ``lumps`` invocation (or one library call
where the verdict has no CLI) followed by its verdict gate; a gate raises
``VerdictError`` naming what differs from the pinned value.

Every pinned value below is written out here rather than read from the
library, so that a change to the library cannot move its own target.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

#: obstruction-scan: scan n = 1..SCAN_MAX_N on the J and sigma routes, and
#: certify every triangular n = k(k+1)/2 with k <= CERTIFY_MAX_K
SCAN_MAX_N = 120
CERTIFY_MAX_K = 14

#: the seven gamma values printed for n = 15
PRINTED_GAMMA_15 = {
    "1": "3219950475/374", "2": "-800391375/416", "3": "24045525/4",
    "4": "34505100/187", "5": "-74025/52", "6": "55335/2", "7": "-5460/17",
}

#: exact-verify: parameter-free catalog records and their pinned verdicts
#: under their own forms, as (is_solution, residual term count)
VERIFY_RECORDS = {
    "lump2": (True, 0), "pelin6": (True, 0), "pelin12": (False, 27),
    "pelin12-corrected": (True, 0), "lump2-bnew": (True, 0),
    "pelin6-bnew": (True, 0), "pelin12-corrected-bnew": (True, 0),
}
YANG6_BINDINGS = 2
DEFINITIONAL_N = (6, 10, 15)
DEGREE12_PRINTED = "38390275"
DEGREE12_FIX = "-35277550/3"

#: quadrature: pinned energy at R = 200, h = 0.05 and the pole counts of the
#: three -bnew records (the x-degree of tau)
ENERGY_LUMP2 = 1.36086124
CM_RECORDS = {"lump2": 2, "pelin6": 6, "pelin12-corrected": 12}
CM_HEIGHTS = 4
#: heights are p/q with q <= 8 and |p/q| <= 8; residuals stay ~1e-11 there,
#: far under the 1e-9 tolerance, while they approach it beyond |y| ~ 50
CM_MAX_DENOMINATOR = 8
CM_MAX_HEIGHT = 8
CM_TOL = 1e-9
LAX_POINTS = ("k1+", "k1-", "k2+", "k2-")
LAX_PRINT_ERRATA = [["k1-", 2], ["k1-", 3]]

WORKLOADS = ("obstruction-scan", "exact-verify", "quadrature")


class VerdictError(Exception):
    """An item's output differs from its pinned verdict."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise VerdictError(message)


@dataclass(frozen=True)
class Item:
    name: str
    seeded: bool          # whether the item takes a seed-drawn input
    run: Callable[[], None]


def _rational(rng: random.Random, max_abs: int, max_den: int) -> str:
    q = rng.randint(1, max_den)
    return str(Fraction(rng.randint(-max_abs * q, max_abs * q), q))


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one run; the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "obstruction-scan":
        # the verdicts are pinned for exactly these n, so the seed only
        # orders the certificate calls
        certify = [k * (k + 1) // 2 for k in range(1, CERTIFY_MAX_K + 1)]
        rng.shuffle(certify)
        return {"max_n": SCAN_MAX_N, "certify": certify}
    if workload == "exact-verify":
        return {"yang6_bindings": [[_rational(rng, 9, 6), _rational(rng, 9, 6)]
                                   for _ in range(YANG6_BINDINGS)]}
    if workload == "quadrature":
        return {"heights": {rec: [_rational(rng, CM_MAX_HEIGHT, CM_MAX_DENOMINATOR)
                                  for _ in range(CM_HEIGHTS)]
                            for rec in CM_RECORDS}}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# running lumps in-process


def run_cli(argv: List[str]):
    """(exit code, parsed JSON report) of one ``lumps`` invocation that exits 0 or 1."""
    from lumps import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    if code not in (0, 1) or report is None:
        raise VerdictError(f"exit {code}, stderr {err.getvalue().strip()!r}")
    return code, report


def _triangulars(limit: int) -> List[int]:
    return [k * (k + 1) // 2 for k in range(1, limit + 1) if k * (k + 1) // 2 <= limit]


# ---------------------------------------------------------------------------
# obstruction-scan


def _scan(max_n: int, csv_path: Path) -> None:
    code, rep = run_cli(["scan-jn", "--max-n", str(max_n), "--routes", "J,sigma",
                         "--out", str(csv_path)])
    tri = _triangulars(max_n)
    expect(code == 0, f"exit {code}")
    expect(rep["results"]["errors"] == [], f"errors {rep['results']['errors']}")
    expect(rep["results"]["zero_set"] == tri, f"zero set {rep['results']['zero_set']}")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    j_zeros = [int(r["n"]) for r in rows if Fraction(r["J_n"]) == 0]
    s_zeros = [int(r["n"]) for r in rows if Fraction(r["sigma_obstruction"]) == 0]
    expect(j_zeros == tri, f"J zero set {j_zeros}")
    expect(s_zeros == tri, f"sigma zero set {s_zeros}")


def _certify(n: int) -> None:
    code, rep = run_cli(["certify", "--n", str(n)])
    res = rep["results"]
    expect(code == 0, f"exit {code}")
    expect(res["all_nonzero"] is True and res["unique_even"] is True,
           "certificate does not hold")
    expect(len(res["gammas"]) == n // 2, f"{len(res['gammas'])} gammas, want {n // 2}")
    expect(all(Fraction(v) != 0 for v in res["gammas"].values()), "a gamma is zero")
    if n == 15:
        canon = {q: str(Fraction(v)) for q, v in PRINTED_GAMMA_15.items()}
        expect(res["gammas"] == canon, f"n=15 gammas {res['gammas']}")


def _obstruction_items(inputs: dict, workdir: Path) -> List[Item]:
    csv_path = workdir / "scan.csv"
    items = [Item(f"scan-jn --max-n {inputs['max_n']}", False,
                  lambda: _scan(inputs["max_n"], csv_path))]
    items += [Item(f"certify --n {n}", False, lambda n=n: _certify(n))
              for n in inputs["certify"]]
    return items


# ---------------------------------------------------------------------------
# exact-verify


def _verify(argv: List[str], solution: bool, terms) -> None:
    """Pinned verdict of one ``verify``; ``terms`` None means any nonzero count."""
    code, rep = run_cli(["verify", *argv])
    res = rep["results"]
    expect(code == (0 if solution else 1), f"exit {code}")
    expect(res["is_solution"] is solution, f"is_solution {res['is_solution']}")
    got = res["residual_term_count"]
    expect(got == terms if terms is not None else got > 0, f"residual term count {got}")


def _reconstruct(root: Path) -> None:
    path = root / "scripts" / "reconstruct_degree12.py"
    spec = importlib.util.spec_from_file_location("reconstruct_degree12", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
        code = module.main()
    lines = out.getvalue().splitlines()
    fixes = [ln for ln in lines if ln.startswith("single-coefficient fix:")]
    expect(code == 0, f"exit {code}")
    expect(any("residual has 27 monomials" in ln for ln in lines),
           "printed residual is not 27 monomials")
    expect(len(fixes) == 1, f"{len(fixes)} fixes")
    expect(f": {DEGREE12_PRINTED} -> {DEGREE12_FIX} " in fixes[0], fixes[0])
    expect("matches the shipped pelin12-corrected record: True" in lines,
           "fix does not match the shipped record")


def _definitional(n: int) -> None:
    from lumps import classify as cl
    checked = 0
    for i in range(6):
        for j in range(6):
            if n - 3 * i < 0 or n - 3 * j < 0:
                continue
            if 2 * n - 3 * i - 3 * j - 1 >= 0:
                got = cl.d_ij_definitional(n, i, j)
                expect(got == cl.d_ij(i, j), f"d_{i}{j}: {got}")
                checked += 1
            if 2 * n - 3 * i - 3 * j - 4 >= 0:
                got = cl.p_ij_definitional(n, i, j)
                expect(got == cl.p_ij(n, i, j), f"p_{i}{j}: {got}")
                checked += 1
    expect(checked > 0, "no quotient checked")


def _exact_items(inputs: dict, root: Path) -> List[Item]:
    items = [Item(f"verify --tau {rec}", False,
                  lambda rec=rec, s=solution, t=terms: _verify(["--tau", rec], s, t))
             for rec, (solution, terms) in VERIFY_RECORDS.items()]
    for a, b in inputs["yang6_bindings"]:
        params = ["--tau", "yang6", "--param", f"a={a}", "--param", f"b={b}"]
        items.append(Item(f"verify yang6 a={a} b={b}", True,
                          lambda p=params: _verify(p, True, 0)))
        items.append(Item(f"verify yang6 a={a} b={b} --form yang", True,
                          lambda p=params: _verify(p + ["--form", "yang"], False, None)))
    items.append(Item("reconstruct_degree12", False, lambda: _reconstruct(root)))
    items += [Item(f"definitional n={n}", False, lambda n=n: _definitional(n))
              for n in DEFINITIONAL_N]
    return items


# ---------------------------------------------------------------------------
# quadrature


def _energy() -> None:
    code, rep = run_cli(["energy", "--tau", "pelin6-bnew", "--ratio-to", "lump2-bnew"])
    res = rep["results"]
    expect(code == 0, f"exit {code}")
    expect(res["half_width"] == 200.0 and res["step"] == 0.05,
           f"window R={res['half_width']} h={res['step']}")
    h2, ratio = res["H_reference"], res["ratio"]
    expect(math.isfinite(h2) and abs(h2 - ENERGY_LUMP2) < 1e-4, f"H(lump2-bnew) {h2}")
    expect(math.isfinite(ratio) and abs(ratio - 3.0) <= 0.05 * 3.0, f"ratio {ratio}")


def _cm_check(rec: str, heights: List[str]) -> None:
    code, rep = run_cli(["cm-check", "--tau", rec, "--y=" + ",".join(heights)])
    res = rep["results"]
    expect(len(res["rows"]) == len(heights), f"{len(res['rows'])} rows")
    for row in res["rows"]:
        expect("error" not in row, f"y={row['y']}: {row.get('error')}")
        expect(row["n_poles"] == CM_RECORDS[rec], f"y={row['y']}: {row['n_poles']} poles")
        expect(row["max_locus_residual"] <= CM_TOL,
               f"y={row['y']}: locus residual {row['max_locus_residual']}")
        expect(row["max_tangent_residual_of_flow"] <= CM_TOL,
               f"y={row['y']}: tangent residual {row['max_tangent_residual_of_flow']}")
    expect(code == 0 and res["within_tolerance"] is True, f"exit {code}")


def _lax_table() -> None:
    code, rep = run_cli(["lax-table"])
    got = rep["results"]["mismatched_entries"]
    expect(code == 0, f"exit {code}")
    expect(got == LAX_PRINT_ERRATA, f"mismatched entries {got}")


def _lax_probe(point: str) -> None:
    code, rep = run_cli(["lax-probe", "--point", point])
    res = rep["results"]
    expect(code == 0 and res["cauchy_decreasing"] is True, f"exit {code}")
    for key in ("phi12_gaps", "phi22_gaps"):
        gaps = res[key]
        expect(all(b < a for a, b in zip(gaps, gaps[1:])), f"{key} {gaps}")


def _quadrature_items(inputs: dict) -> List[Item]:
    items = [Item("energy --tau pelin6-bnew --ratio-to lump2-bnew", False, _energy)]
    for rec, heights in inputs["heights"].items():
        items.append(Item(f"cm-check --tau {rec} --y={','.join(heights)}", True,
                          lambda rec=rec, h=heights: _cm_check(rec, h)))
    items.append(Item("lax-table", False, _lax_table))
    items += [Item(f"lax-probe --point {p}", False, lambda p=p: _lax_probe(p))
              for p in LAX_POINTS]
    return items


def build_items(workload: str, inputs: Dict, root: Path, workdir: Path) -> List[Item]:
    if workload == "obstruction-scan":
        return _obstruction_items(inputs, workdir)
    if workload == "exact-verify":
        return _exact_items(inputs, root)
    if workload == "quadrature":
        return _quadrature_items(inputs)
    raise ValueError(f"unknown workload {workload!r}")
