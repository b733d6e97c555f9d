"""Command-line interface: verification, scans, certificates, CM and Lax checks.

One binary, subcommand style.  Each subcommand does its work and returns
(results, verified), or raises UsageError; whether its results are exact is
stated beside its parser entry.  ``main`` alone times the command, prints the
single JSON report (scans additionally write CSV via --out) and exits: 0 when
verified, 1 on a verification failure (nonzero residual, failed certificate,
out-of-tolerance residuals), 2 on a usage error (unknown ids, malformed files,
unbound parameters; nothing on stdout).  The report's "inputs" are the options
as argparse parsed them; what a command resolves from them is in "results".

Exact rationals are serialized as strings "p/q"; they are never emitted as
floats.  The report's "exact" flag is true when the verdict is decided
exactly; float fields beside an exact verdict (lax-probe's Cauchy gaps) are
confirmation and do not decide it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Dict

from . import catalog as cat
from . import classify, cm, lax
from .hirota import PRESETS, STANDARD, custom_form
from .polyring import Basis, ExactPoly, QQi, grlex, parse_rational


class UsageError(Exception):
    """Input problem the caller can fix: bad id, bad file, bad binding."""


def jsonable(value: Any) -> Any:
    """JSON projection: Fractions as 'p/q', QQi as its interchange form, complex
    as [re, im]; any other value goes as is, and json.dumps refuses a foreign type."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QQi):
        return value.to_json()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class RunReport:
    command: str
    inputs: Dict[str, Any]
    results: Dict[str, Any]
    timing_seconds: float
    exact: bool

    def emit(self, stream=None) -> None:
        """Write one strict-JSON document, exact values in full: CPython's
        int-string digit limit, which parsing keeps, is lifted meanwhile."""
        stream = stream if stream is not None else sys.stdout
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(jsonable(vars(self)), indent=1, allow_nan=False)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        stream.write(text + "\n")


def _resolve_form(spec: str):
    """verify's --form: a preset name, or else JSON [weight, a, b] triples."""
    if spec in PRESETS:
        return PRESETS[spec]
    try:
        return custom_form(json.loads(spec))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed --form: neither a preset {sorted(PRESETS)} "
                         f"nor a JSON form: {exc}") from exc


def _parse_params(pairs) -> Dict[str, Fraction]:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        key = name.strip()
        if key in out:
            raise UsageError(f"--param {key} is given more than once")
        try:
            out[key] = parse_rational(value)
        except ValueError as exc:
            raise UsageError(f"--param {key}: bad rational: {exc}") from exc
    return out


def _load_record(spec: str):
    """verify's --tau: a catalog id, or else a path to an interchange
    polynomial file in either basis; a file named like an id is read as
    ./<id>.  Only a regular file is read: a FIFO would block and a device
    such as /dev/zero never ends."""
    path = Path(spec)
    try:
        is_file = spec not in cat.catalog() and (path.suffix == ".json" or path.exists())
        if is_file and path.exists() and not path.is_file():
            raise OSError("not a regular file")
        text = path.read_text() if is_file else None
    except FileNotFoundError:
        raise UsageError(f"polynomial file not found: {spec}") from None
    except (OSError, ValueError) as exc:  # a directory, a binary file, a bad name
        raise UsageError(f"cannot read polynomial file {spec}: {exc}") from None
    if text is None:
        try:
            return cat.get_record(spec)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    try:
        poly = ExactPoly.loads(text)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"malformed polynomial file {spec}: {exc}") from exc
    if poly.basis is Basis.ZZBAR:
        poly = poly.to_xy()
    return cat.TauRecord.plain(path.stem, poly, 2, STANDARD)


def _bnew_record(spec: str):
    """The (3/2) dxx log tau record of a catalog id, -bnew implied: cm-check's
    --tau and energy's --tau and --ratio-to.  Never a file."""
    recs = cat.catalog()
    rec = recs.get(spec if spec.endswith("-bnew") else spec + "-bnew")
    if rec is None:
        known = sorted(rid for rid in recs if rid.endswith("-bnew"))
        raise UsageError(f"no (3/2) record for tau id {spec!r}; known: {known} "
                         "(the -bnew suffix may be left off)")
    return rec


# ---------------------------------------------------------------------------
# subcommands: each returns (results, verified)


def cmd_verify(args):
    rec = _load_record(args.tau)
    form = rec.form if args.form is None else _resolve_form(args.form)
    bindings = _parse_params(args.param)
    try:
        residual = cat.verify_tau(rec, bindings, form)
    except cat.ParameterBindingError as exc:
        raise UsageError(str(exc)) from None
    leading = sorted(residual.numerators()[1], key=grlex)[:10]
    results = {
        "id": rec.id,
        "form": form.name,
        "params": bindings,
        "is_solution": residual.is_zero(),
        "residual_term_count": residual.num_terms(),
        "residual_terms": [[i, j, residual.coeff(i, j)] for (i, j) in leading],
        "notes": rec.notes,
    }
    return results, residual.is_zero()


def cmd_scan_jn(args):
    routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
    try:
        rows = classify.scan(args.max_n, routes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        try:
            classify.write_scan_csv(rows, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc}") from None
    errors = [r.error for r in rows if r.error]
    uncertified = [r.n for r in rows if r.gamma_all_nonzero is False]
    triangulars = [r.n for r in rows if r.triangular]
    obstructed = "J" in routes or "sigma" in routes
    zero_rows = [r.n for r in rows if r.is_zero] if obstructed else None
    law_holds = zero_rows == triangulars if obstructed else None
    results = {
        "rows": len(rows),
        "zero_set": zero_rows,
        "triangular_set": triangulars,
        "zero_set_is_triangular": law_holds,
        "errors": errors,
        "uncertified": uncertified,
    }
    return results, not (errors or uncertified) and law_holds in (True, None)


def cmd_certify(args):
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    cert = classify.uniqueness_certificate(args.n)
    results = {
        "n": cert.n,
        "is_triangular": classify.is_triangular(cert.n),
        "gammas": dict(sorted(cert.gammas.items())),
        "all_nonzero": cert.all_nonzero,
        "unique_even": cert.all_nonzero,
    }
    return results, cert.all_nonzero


def _worst(values) -> float:
    """Largest |v|, or nan when some |v| is not finite (max() drops a nan
    that is not first)."""
    mags = [abs(v) for v in values]
    return max(mags) if all(map(math.isfinite, mags)) else math.nan


def cmd_cm_check(args):
    rec = _bnew_record(args.tau)
    try:
        ys = [parse_rational(v) for v in args.y.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(
            f"--y expects a comma list of rationals, got {args.y!r}: {exc}") from None
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
            max_locus = _worst(l1 + l2)
            max_tangent = _worst(tg1 + tg2)
            if not (math.isfinite(max_locus) and math.isfinite(max_tangent)):
                rows.append({"y": y, "n_poles": cfg.n, "error": (
                    f"residual is not finite (locus {max_locus}, tangent "
                    f"{max_tangent}): the height overflows float arithmetic")})
                ok = False
                continue
            rows.append({"y": y, "n_poles": cfg.n,
                         "max_locus_residual": max_locus,
                         "max_tangent_residual_of_flow": max_tangent})
            ok = ok and max(max_locus, max_tangent) <= cm.RESIDUAL_TOL
        except (cm.CoincidentPolesError, cm.RootFindingError) as exc:
            rows.append({"y": y, "error": str(exc)})
            ok = False
    return {"id": rec.id, "tol": cm.RESIDUAL_TOL, "rows": rows,
            "within_tolerance": ok}, ok


def cmd_lax_table(args):
    comparison = lax.compare_phase_tables()
    mismatches = tuple((c["point"], c["j"]) for c in comparison if not c["match"])
    as_documented = mismatches == lax.PRINT_ERRATA
    results = {
        "distinguished_points": {
            name: f"({c})*sqrt6*i" for name, c in lax.DISTINGUISHED.items()},
        "entries": comparison,
        "mismatched_entries": [list(m) for m in mismatches],
        "documented_errata": [list(m) for m in lax.PRINT_ERRATA],
        "mismatches_are_documented_errata": as_documented,
    }
    return results, as_documented


def cmd_lax_probe(args):
    if args.point not in lax.DISTINGUISHED:
        raise UsageError(
            f"unknown point {args.point!r}; choose from {sorted(lax.DISTINGUISHED)}")
    probe = lax.removable_probe(args.point)
    return probe, probe["exact_removable"]


def cmd_energy(args):
    rec = _bnew_record(args.tau)
    other = _bnew_record(args.ratio_to) if args.ratio_to else None
    results = {"id": rec.id, "reference_id": other and other.id,
               "half_width": args.half_width, "step": args.step}
    try:
        results["H"] = cat.energy(rec, half_width=args.half_width,
                                  step=args.step)
        if other is not None:
            base = cat.energy(other, half_width=args.half_width, step=args.step)
            results["H_reference"] = base
            results["ratio"] = results["H"] / base
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except ArithmeticError as exc:
        results["error"] = str(exc)
    return results, "error" not in results


def cmd_degree(args):
    if args.k < 0:
        raise UsageError(f"--k must be >= 0, got {args.k}")
    m = classify.solve_degree(args.k)
    balance = classify.hierarchy_degree(2 * args.k, m)
    results = {
        "m": m,
        "j": balance.j,
        "b": balance.b,
        "B": balance.B,
        "balanced": balance.balanced,
        "tau_degree": args.k * (args.k + 1),
    }
    return results, balance.balanced


# ---------------------------------------------------------------------------


@cache  # built on first use, once per process; parse_args leaves it unchanged
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
                   help=f"form preset ({', '.join(sorted(PRESETS))}) or a JSON "
                        'list of [weight, a, b] triples, e.g. '
                        '"[[\\"1\\",4,0],[\\"-1\\",2,0],[\\"-1\\",0,2]]"; '
                        "default: the record's own form")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a free parameter (repeatable)")
    p.set_defaults(func=cmd_verify, exact=True)

    p = sub.add_parser("scan-jn", help="obstruction scan over n = 1..N")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--routes", default="J,sigma",
                   help="comma list from J,sigma,gamma")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_scan_jn, exact=True)

    p = sub.add_parser("certify", help="uniqueness certificate for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_certify, exact=True)

    p = sub.add_parser("cm-check", help="pole locus and flow-tangency check")
    p.add_argument("--tau", required=True,
                   help="catalog id (the -bnew variant is implied)")
    p.add_argument("--y", default="0,1/2,1,2", help="comma list of rationals")
    p.set_defaults(func=cmd_cm_check, exact=False)

    p = sub.add_parser("lax-table", help="the twelve phase entries, exact")
    p.set_defaults(func=cmd_lax_table, exact=True)

    p = sub.add_parser("lax-probe", help="exact removability of a Phi pole")
    p.add_argument("--point", required=True, help="k1+, k1-, k2+ or k2-")
    p.set_defaults(func=cmd_lax_probe, exact=True)

    p = sub.add_parser("energy", help="quadrature energy of a (3/2)-record")
    p.add_argument("--tau", required=True,
                   help="catalog id (the -bnew variant is implied)")
    p.add_argument("--half-width", type=float, default=200.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--ratio-to", default=None,
                   help="also report H(tau)/H(other), a catalog id as --tau")
    p.set_defaults(func=cmd_energy, exact=False)

    p = sub.add_parser("degree", help="balanced decay degree for index k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_degree, exact=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        results, verified = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "exact")}
    RunReport(args.command, inputs, results, time.perf_counter() - t0,
              args.exact).emit()
    return 0 if verified else 1

if __name__ == "__main__":
    sys.exit(main())
