"""Command-line interface: verification, scans, certificates, CM and Lax checks.

One binary, subcommand style.  Every command prints a single JSON report to
stdout (scans additionally write CSV via --out).  Exit codes: 0 for
success/verified, 1 for a verification failure (nonzero residual, failed
certificate, out-of-tolerance residuals), 2 for usage errors (unknown ids,
malformed files, unbound parameters).

Exact rationals are serialized as strings "p/q"; they are never emitted as
floats.  The report's "exact" flag is true precisely when no floating point
touched the results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from . import catalog as cat
from . import classify, cm, lax
from .hirota import PRESETS, custom_form
from .polyring import ExactPoly


class UsageError(Exception):
    """Input problem the caller can fix: bad id, bad file, bad binding."""


def jsonable(value: Any) -> Any:
    """Lossless-ish JSON projection: Fractions as 'p/q', complex as [re, im]."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [jsonable(v) for v in value]
    if is_dataclass(value):
        return jsonable(asdict(value))
    return str(value)


@dataclass
class RunReport:
    command: str
    inputs: Dict[str, Any]
    results: Dict[str, Any]
    timing_seconds: float
    exact: bool

    def emit(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        json.dump(jsonable(asdict(self)), stream, indent=1, allow_nan=False)
        stream.write("\n")


def _resolve_form(name: Optional[str], custom: Optional[str]):
    if custom:
        try:
            triples = json.loads(custom)
            return custom_form(triples)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed --custom-form: {exc}") from exc
    if name is None:
        return None
    try:
        return PRESETS[name]
    except KeyError:
        raise UsageError(
            f"unknown form preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def _parse_params(pairs) -> Dict[str, Fraction]:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"--param {name}: bad rational {value!r}") from exc
    return out


def _load_record(spec: str):
    """A catalog id, or a path to an interchange polynomial file."""
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            poly = ExactPoly.loads(path.read_text())
        except FileNotFoundError:
            raise UsageError(f"polynomial file not found: {spec}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise UsageError(f"malformed polynomial file {spec}: {exc}") from exc
        from .hirota import STANDARD
        return cat.TauRecord(path.stem, (((), poly),), Fraction(2), STANDARD, ())
    try:
        return cat.get_record(spec)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    rec = _load_record(args.tau)
    form = _resolve_form(args.form, args.custom_form)
    bindings = _parse_params(args.param)
    try:
        result = cat.verify_tau(rec, bindings, form)
    except cat.ParameterBindingError as exc:
        raise UsageError(str(exc)) from None
    report = RunReport(
        command="verify",
        inputs={"tau": args.tau, "form": result.form_name,
                "params": bindings},
        results={
            "id": result.record_id,
            "is_solution": result.is_solution,
            "residual_term_count": result.residual.num_terms(),
            "residual_terms": result.residual_terms(10),
            "notes": rec.notes,
        },
        timing_seconds=time.perf_counter() - t0,
        exact=True,
    )
    report.emit()
    return 0 if result.is_solution else 1


def cmd_scan_jn(args) -> int:
    t0 = time.perf_counter()
    routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
    try:
        rows = classify.scan(args.max_n, routes, jobs=args.jobs,
                             convention=args.pair_convention)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        classify.write_scan_csv(rows, args.out)
    errors = [r.error for r in rows if r.error]
    zero_rows = [r.n for r in rows if r.is_zero]
    triangulars = [r.n for r in rows if r.triangular]
    law_holds = (zero_rows == triangulars) if any(
        r in routes for r in ("J", "sigma")) else None
    report = RunReport(
        command="scan-jn",
        inputs={"max_n": args.max_n, "routes": list(routes),
                "jobs": args.jobs, "out": args.out,
                "pair_convention": args.pair_convention},
        results={
            "rows": len(rows),
            "zero_set": zero_rows,
            "triangular_set": triangulars,
            "zero_set_is_triangular": law_holds,
            "errors": errors,
        },
        timing_seconds=time.perf_counter() - t0,
        exact=True,
    )
    report.emit()
    return 0 if not errors and law_holds in (True, None) else 1


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    cert = classify.uniqueness_certificate(args.n)
    report = RunReport(
        command="certify",
        inputs={"n": args.n},
        results={
            "n": cert.n,
            "is_triangular": classify.is_triangular(cert.n),
            "gammas": {str(q): str(v) for q, v in sorted(cert.gammas.items())},
            "all_nonzero": cert.all_nonzero,
            "unique_even": cert.unique_even,
        },
        timing_seconds=time.perf_counter() - t0,
        exact=True,
    )
    report.emit()
    return 0 if cert.all_nonzero else 1


def cmd_cm_check(args) -> int:
    t0 = time.perf_counter()
    rec_id = args.tau
    if not rec_id.endswith("-bnew"):
        rec_id = rec_id + "-bnew"
    try:
        rec = cat.get_record(rec_id)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    try:
        ys = [Fraction(v.strip()) for v in args.y.split(",") if v.strip()]
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"--y expects a comma list of rationals, got {args.y!r}") from None
    if not ys:
        raise UsageError("--y expects at least one height")
    rows = []
    ok = True
    for y in ys:
        try:
            cfg = cm.poles_from_tau(rec, y)
            l1, l2 = cm.locus_residual(cfg)
            flow = cm.cm_rhs(cfg)
            tg1, tg2 = cm.tangent_residual(cfg, flow)
            max_locus = float(max(np.max(np.abs(l1)), np.max(np.abs(l2))))
            max_tangent = float(max(np.max(np.abs(tg1)), np.max(np.abs(tg2))))
            if not (math.isfinite(max_locus) and math.isfinite(max_tangent)):
                rows.append({"y": str(y), "n_poles": cfg.n, "error": (
                    f"residual is not finite (locus {max_locus}, tangent "
                    f"{max_tangent}): the height overflows float arithmetic")})
                ok = False
                continue
            rows.append({"y": str(y), "n_poles": cfg.n,
                         "max_locus_residual": max_locus,
                         "max_tangent_residual_of_flow": max_tangent})
            ok = ok and max_locus <= args.tol and max_tangent <= args.tol
        except (cm.CoincidentPolesError, cm.RootFindingError) as exc:
            rows.append({"y": str(y), "error": str(exc)})
            ok = False
    report = RunReport(
        command="cm-check",
        inputs={"tau": rec_id, "y": [str(y) for y in ys], "tol": args.tol},
        results={"rows": rows, "within_tolerance": ok},
        timing_seconds=time.perf_counter() - t0,
        exact=False,
    )
    report.emit()
    return 0 if ok else 1


def cmd_lax_table(args) -> int:
    t0 = time.perf_counter()
    comparison = lax.compare_phase_tables()
    mismatches = tuple((c["point"], c["j"]) for c in comparison if not c["match"])
    as_documented = mismatches == lax.PRINT_ERRATA
    report = RunReport(
        command="lax-table",
        inputs={},
        results={
            "distinguished_points": {
                name: f"({c})*sqrt6*i" for name, c in lax.DISTINGUISHED.items()},
            "entries": comparison,
            "mismatched_entries": [list(m) for m in mismatches],
            "documented_errata": [list(m) for m in lax.PRINT_ERRATA],
            "mismatches_are_documented_errata": as_documented,
        },
        timing_seconds=time.perf_counter() - t0,
        exact=True,
    )
    report.emit()
    return 0 if as_documented else 1


def cmd_lax_probe(args) -> int:
    t0 = time.perf_counter()
    if args.point not in lax.DISTINGUISHED:
        raise UsageError(
            f"unknown point {args.point!r}; choose from {sorted(lax.DISTINGUISHED)}")
    if not math.isfinite(args.x):
        raise UsageError(f"--x must be finite, got {args.x}")
    log_bound = lax.probe_log_bound(args.point, args.x)
    if log_bound >= math.log(sys.float_info.max):
        raise UsageError(
            f"--x {args.x} overflows the probe at {args.point}: its terms "
            f"reach e^{log_bound:.6g}, past the float maximum "
            f"e^{math.log(sys.float_info.max):.6g}")
    probe = lax.removable_probe(args.point, args.x)
    cauchy = all(b < a for a, b in zip(probe["phi12_gaps"], probe["phi12_gaps"][1:]))
    cauchy = cauchy and all(
        b < a for a, b in zip(probe["phi22_gaps"], probe["phi22_gaps"][1:]))
    report = RunReport(
        command="lax-probe",
        inputs={"point": args.point, "x": args.x},
        results={**probe, "cauchy_decreasing": cauchy},
        timing_seconds=time.perf_counter() - t0,
        exact=False,
    )
    report.emit()
    return 0 if cauchy else 1


def cmd_energy(args) -> int:
    t0 = time.perf_counter()
    rec = _load_record(args.tau)
    results = {"id": rec.id, "half_width": args.half_width, "step": args.step}
    try:
        results["H"] = cat.energy(rec, half_width=args.half_width,
                                  step=args.step)
        if args.ratio_to:
            other = _load_record(args.ratio_to)
            base = cat.energy(other, half_width=args.half_width, step=args.step)
            results["H_reference"] = base
            results["ratio"] = results["H"] / base
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except ArithmeticError as exc:
        results["error"] = str(exc)
    report = RunReport(
        command="energy",
        inputs={"tau": args.tau, "half_width": args.half_width,
                "step": args.step, "ratio_to": args.ratio_to},
        results=results,
        timing_seconds=time.perf_counter() - t0,
        exact=False,
    )
    report.emit()
    return 1 if "error" in results else 0


def cmd_degree(args) -> int:
    t0 = time.perf_counter()
    if args.k < 0:
        raise UsageError(f"--k must be >= 0, got {args.k}")
    m = classify.solve_degree(args.k)
    balance = classify.hierarchy_degree(2 * args.k, m)
    report = RunReport(
        command="degree",
        inputs={"k": args.k},
        results={
            "m": str(m),
            "j": balance.j,
            "b": str(balance.b),
            "B": str(balance.B),
            "balanced": balance.balanced,
            "tau_degree": args.k * (args.k + 1),
        },
        timing_seconds=time.perf_counter() - t0,
        exact=True,
    )
    report.emit()
    return 0 if balance.balanced else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumps",
        description="Exact verification of lump tau polynomials, degree "
                    "obstructions, uniqueness certificates, pole dynamics "
                    "and Lax spectral tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exact bilinear residual of a tau record")
    p.add_argument("--tau", required=True,
                   help="catalog id or interchange polynomial file")
    p.add_argument("--form", default=None,
                   help=f"form preset ({', '.join(sorted(PRESETS))}); "
                        "default: the record's own form")
    p.add_argument("--custom-form", default=None,
                   help='JSON list of [weight, a, b] triples, e.g. '
                        '"[[\\"1\\",4,0],[\\"-1\\",2,0],[\\"-1\\",0,2]]"')
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a free parameter (repeatable)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-jn", help="obstruction scan over n = 1..N")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--routes", default="J,sigma",
                   help="comma list from J,sigma,gamma")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--pair-convention", default="ordered",
                   choices=("ordered", "unordered"),
                   help="A/B flag for the quadratic-sum convention")
    p.set_defaults(func=cmd_scan_jn)

    p = sub.add_parser("certify", help="uniqueness certificate for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("cm-check", help="pole locus and flow-tangency check")
    p.add_argument("--tau", required=True,
                   help="catalog id (the -bnew variant is implied)")
    p.add_argument("--y", default="0,1/2,1,2", help="comma list of rationals")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_cm_check)

    p = sub.add_parser("lax-table", help="the twelve phase entries, exact")
    p.set_defaults(func=cmd_lax_table)

    p = sub.add_parser("lax-probe", help="removable-singularity limit probe")
    p.add_argument("--point", required=True, help="k1+, k1-, k2+ or k2-")
    p.add_argument("--x", type=float, default=1.0)
    p.set_defaults(func=cmd_lax_probe)

    p = sub.add_parser("energy", help="quadrature energy of a (3/2)-record")
    p.add_argument("--tau", required=True)
    p.add_argument("--half-width", type=float, default=200.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--ratio-to", default=None,
                   help="also report H(tau)/H(other)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("degree", help="balanced decay degree for index k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_degree)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
