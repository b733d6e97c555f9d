"""One benchmark repetition in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/child.py --out RESULT.json
        [--setup-only] [--workload NAME --inputs JSON]
        [--trace --run-id ID --spans SPANS.csv.gz]

Set-up is what every ``lumps`` invocation pays: importing ``lumps.cli`` and
building the catalog.  The child stamps ``time.perf_counter`` (the system-wide
monotonic clock, so ``run.py`` can subtract its own stamps) when set-up is
done and again after the last item's verdict, and writes those stamps, the
items' verdicts and, when traced, the per-layer metrics to RESULT.json.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import lumps.cli  # noqa: F401  (set-up: the import every CLI call pays)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    from lumps import catalog
    catalog.catalog()
    t_setup = time.perf_counter()

    import lumps
    import numpy
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if src not in Path(lumps.__file__).resolve().parents:
        print(f"lumps was imported from {lumps.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"t_setup": t_setup,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "lumps": lumps.__version__}}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    import workloads
    from lumps import classify
    info = classify.p_ij.cache_info()
    print(f"repetition start: p_ij.cache_info() = {info}", file=sys.stderr)
    if info.hits or info.misses or info.currsize:
        print("p_ij cache is not empty at the start of a repetition", file=sys.stderr)
        return 2
    result["cache_info_start"] = info._asdict()

    out_path = Path(args.out)
    items = workloads.build_items(args.workload, json.loads(args.inputs), root,
                                  out_path.parent)
    verdicts = []
    for item in items:
        if tracer is not None:
            tracer.begin_item(item.name)
        try:
            item.run()
            reason = None
        except workloads.VerdictError as exc:
            reason = str(exc)
        except Exception as exc:  # an item that raises is counted, not fatal
            reason = f"raised {type(exc).__name__}: {exc}"
        verdict = {"name": item.name, "seeded": item.seeded, "ok": reason is None,
                   "reason": reason}
        if tracer is not None:
            verdict["counts"] = tracer.end_item()
        verdicts.append(verdict)
    t_end = time.perf_counter()

    result.update(t_end=t_end, items=verdicts)
    if tracer is not None:
        result["trace"] = tracer.summary(t_setup, t_end)
        tracer.write_spans(args.spans)
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
