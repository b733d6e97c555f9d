#!/usr/bin/env python3
"""Self-test of the benchmark's exact counts.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload it runs three traced repetitions in fresh interpreters:
two with the inputs of ``SEED`` and one with those of ``SEED + 1``.  It checks
that

* every item passes its verdict gate;
* the two runs with the same seed give identical exact counts
  (``tracer.EXACT_COUNTS``), item by item and in total;
* with the other seed, every item that takes no seed-drawn input gives the
  same counts as before, so only the seed-drawn inputs' counts may change;
* each exact count is nonzero on the workload that exercises it, so a
  counter that came unwired shows.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from tracer import EXACT_COUNTS

#: the workload on which each exact count must be nonzero
EXERCISED_BY = {
    "polyring.mul.term_pairs": "exact-verify",
    "hirota.residual.out_terms": "exact-verify",
    "classify.chain.max_bits": "obstruction-scan",
    "classify.p_ij.misses": "obstruction-scan",
    "catalog.energy.points": "quadrature",
    "cm.poles.count": "quadrature",
}
SEED = 1


def traced_counts(workload, inputs, tag, work):
    child = run.Child(["--workload", workload, "--inputs", json.dumps(inputs),
                       "--trace", "--run-id", tag,
                       "--spans", str(work / f"{tag}.spans.csv.gz")],
                      tag, work)
    if not child.ok:
        raise SystemExit(f"{tag}: {child.failure()}")
    items = child.result["items"]
    totals = {name: child.result["trace"][name] for name in EXACT_COUNTS}
    return items, totals


def main() -> int:
    problems = []
    run.RESULTS.mkdir(exist_ok=True)
    work = run.RESULTS / "selftest-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for workload in workloads.WORKLOADS:
            same = workloads.make_inputs(workload, SEED)
            other = workloads.make_inputs(workload, SEED + 1)
            a_items, a_totals = traced_counts(workload, same, f"{workload}-a", work)
            b_items, b_totals = traced_counts(workload, same, f"{workload}-b", work)
            c_items, _ = traced_counts(workload, other, f"{workload}-c", work)

            for item in a_items + b_items + c_items:
                if not item["ok"]:
                    problems.append(f"{workload}: {item['name']} failed: {item['reason']}")
            if a_totals != b_totals:
                problems.append(f"{workload}: same seed, totals differ: {a_totals} vs {b_totals}")
            for a, b in zip(a_items, b_items):
                if a["counts"] != b["counts"]:
                    problems.append(f"{workload}: same seed, {a['name']} counts differ: "
                                    f"{a['counts']} vs {b['counts']}")
            unseeded_a = {i["name"]: i["counts"] for i in a_items if not i["seeded"]}
            unseeded_c = {i["name"]: i["counts"] for i in c_items if not i["seeded"]}
            if unseeded_a != unseeded_c:
                problems.append(f"{workload}: seed {SEED + 1} changed the counts of "
                                f"items that take no seed-drawn input")
            for name, exercised in EXERCISED_BY.items():
                if exercised == workload and not a_totals[name]:
                    problems.append(f"{workload}: {name} is 0")
            print(f"{workload}: " + ", ".join(f"{k} {v}" for k, v in a_totals.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("exact-count self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
