#!/usr/bin/env python3
"""Benchmark runner for lumps: cold-process repetitions of three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload obstruction-scan --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client.  One researcher runs one job,
waits for its verdict, then runs the next; so this runner runs one child
interpreter at a time (``child.py``), and every child imports ``lumps`` from
``src/`` afresh, builds the catalog and starts with cold caches, as each
``lumps`` invocation does.  Subcommands run at their defaults.

A run starts a few set-up probes (children that only import and build the
catalog), then repetitions of the workload, each followed by one more
probe, until ``--seconds`` is used up.  A repetition only starts if the
previous one of its kind says at least half of it fits in the time left, so
a run ends within half a repetition of ``--seconds`` and the sample count
does not flip when the machine's speed drifts near a whole fit; the first of
each kind always runs.
With ``--trace 1`` repetitions alternate between untraced and traced, and
the traced ones give the per-layer metrics (``tracer.py``).

End-to-end metrics (medians over the run's repetitions):

* ``setup_s``: from starting a fresh interpreter to ``import lumps.cli``
  done plus the first ``catalog()`` returned (probes and untraced reps);
* ``wall_s``: from the end of set-up to the last item's checked verdict;
* ``peak_rss_mib``: the child's peak resident memory, from ``wait4``;
* ``pass_frac``: items whose verdict matched its pinned value, over items
  attempted (1 - fail_frac; fail_frac itself is 0 when nothing fails).

Times are ``time.perf_counter`` stamps taken by the benchmark; the reports'
``timing_seconds`` is never read.  Every run writes a result file to
``perfbench/results/`` with the samples, quartiles, failures and provenance
(nproc, Python and numpy versions, git sha, seed, argv).  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics that
``BENCHMARK.json`` lists for the mode (end_to_end, or per_layer when traced),
with the units it gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"

#: set-up-only children started at the beginning of every run; one more
#: follows each repetition, so set-up is sampled across the whole run
SETUP_PROBES = 4
#: a child is killed once it has run this many times as long as the longest
#: finished child of its kind (probe, plain or traced); the first of a kind
#: is never killed
HANG_FACTOR = 10


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Child:
    """One finished child interpreter: exit code, peak RSS and its result file."""

    def __init__(self, extra_args, tag, work, time_limit=None):
        out = work / f"{tag}.json"
        log = work / f"{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        argv = [sys.executable, str(BENCH / "child.py"), "--out", str(out), *extra_args]
        with open(log, "w") as log_fh:
            self.t_spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log_fh,
                                    stderr=subprocess.STDOUT)
            self.killed = False
            status, rusage = self._wait(proc, time_limit)
        self.t_exit = time.perf_counter()
        self.code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.code
        self.rss_mib = rusage.ru_maxrss / 1024.0
        self.log = log.read_text()
        self.result = json.loads(out.read_text()) if self.code == 0 and out.exists() else None

    def _wait(self, proc, time_limit):
        # wait4 rather than Popen.wait: it also returns the child's rusage
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    return status, rusage
                if (time_limit is not None and not self.killed
                        and time.perf_counter() - self.t_spawn > time_limit):
                    proc.kill()
                    self.killed = True
                time.sleep(0.005)
        except BaseException:
            # interrupted while the child runs: do not leave it behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise

    @property
    def ok(self) -> bool:
        return self.result is not None

    def failure(self) -> str:
        tail = " | ".join(self.log.strip().splitlines()[-3:])
        why = "killed at the time limit" if self.killed else f"exit code {self.code}"
        return f"child {why}: {tail}"


def _repetition_args(kind, k, args, inputs):
    run_id = f"{args.workload}-seed{args.seed}-rep{k}"
    extra = ["--workload", args.workload, "--inputs", json.dumps(inputs)]
    if kind == "traced":
        extra += ["--trace", "--run-id", run_id,
                  "--spans", str(RESULTS / f"{run_id}.spans.csv.gz")]
    return extra


def _log_rep(k, kind, child):
    if not child.ok:
        print(f"rep {k} ({kind}): {child.failure()}", file=sys.stderr, flush=True)
        return
    res = child.result
    print(f"rep {k} ({kind}): setup {res['t_setup'] - child.t_spawn:.3f} s, "
          f"wall {res['t_end'] - res['t_setup']:.3f} s, rss {child.rss_mib:.1f} MiB, "
          f"{sum(v['ok'] for v in res['items'])}/{len(res['items'])} items ok, "
          f"p_ij.cache_info() at start {res['cache_info_start']}",
          file=sys.stderr, flush=True)


def measure(args, inputs, work):
    deadline = time.perf_counter() + args.seconds
    item_names = [it.name for it in workloads.build_items(args.workload, inputs, ROOT, work)]
    longest = {}

    def spawn(kind, extra, tag):
        child = Child(extra, tag, work,
                      HANG_FACTOR * longest[kind] if kind in longest else None)
        if child.ok:
            longest[kind] = max(longest.get(kind, 0.0), child.t_exit - child.t_spawn)
        return child

    probes = [spawn("probe", ["--setup-only"], f"probe{i}") for i in range(SETUP_PROBES)]
    kinds = ("plain", "traced") if args.trace else ("plain",)
    reps = []
    last = {}
    while True:
        kind = kinds[len(reps) % len(kinds)]
        if kind in last and time.perf_counter() + last[kind] / 2 > deadline:
            break
        k = len(reps) + 1
        child = spawn(kind, _repetition_args(kind, k, args, inputs), f"rep{k}")
        reps.append((kind, child))
        _log_rep(k, kind, child)
        if not child.ok:
            break
        probes.append(spawn("probe", ["--setup-only"], f"probe{len(probes)}"))
        last[kind] = probes[-1].t_exit - child.t_spawn
    return probes, reps, item_names


def summarize(args, spec, inputs, probes, reps, item_names):
    """The run's result record; metrics named in BENCHMARK.json but not measured fail it."""
    failures = []
    attempted = failed = 0
    for probe in probes:
        if not probe.ok:
            failures.append({"rep": "setup probe", "item": None, "reason": probe.failure()})
    for k, (kind, child) in enumerate(reps, start=1):
        if not child.ok:
            attempted += len(item_names)
            failed += len(item_names)
            failures.append({"rep": k, "item": None, "reason": child.failure()})
            continue
        for v in child.result["items"]:
            attempted += 1
            if not v["ok"]:
                failed += 1
                failures.append({"rep": k, "item": v["name"], "reason": v["reason"]})

    plain = [c for kind, c in reps if kind == "plain" and c.ok]
    traced = [c for kind, c in reps if kind == "traced" and c.ok]
    samples = {
        "setup_s": [c.result["t_setup"] - c.t_spawn for c in probes + plain if c.ok],
        "wall_s": [c.result["t_end"] - c.result["t_setup"] for c in plain],
        "peak_rss_mib": [c.rss_mib for c in plain],
    }
    end_to_end = {}
    for name, values in samples.items():
        if values:
            q1, med, q3 = _quartiles(values)
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    if attempted:
        end_to_end["pass_frac"] = {"median": 1.0 - failed / attempted, "n": attempted}

    per_layer = {}
    if traced:
        for name in traced[0].result["trace"]:
            per_layer[name] = statistics.median(c.result["trace"][name] for c in traced)
        if "wall_s" in end_to_end:
            traced_wall = statistics.median(c.result["t_end"] - c.result["t_setup"]
                                            for c in traced)
            per_layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]["median"]

    values = per_layer if args.trace else {k: v["median"] for k, v in end_to_end.items()}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            failures.append({"rep": None, "item": None,
                             "reason": f"metric {m['name']} was not measured"})

    versions = next((c.result["versions"] for c in probes + plain if c.ok), {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": sys.argv,
        "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "numpy": versions.get("numpy"), "lumps": versions.get("lumps"),
        "git_sha": _git_sha(),
        "inputs": inputs, "correct": not failures and attempted > 0,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else None,
        "failures": failures, "metrics": metrics, "end_to_end": end_to_end,
        "samples": samples, "per_layer": per_layer,
        "repetitions": [{"kind": kind, "exit_code": c.code, "rss_mib": c.rss_mib,
                         **({"items": c.result["items"],
                             "cache_info_start": c.result["cache_info_start"]}
                            if c.ok else {})}
                        for kind, c in reps],
    }


def report(record, spec, path):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    for m in spec["end_to_end"]:
        s = record["end_to_end"].get(m["name"])
        if s is None:
            print(f"  {m['name']:<14} missing")
        elif "q1" in s:
            print(f"  {m['name']:<14} median {s['median']:.4f} {m['unit']}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
        else:
            print(f"  {m['name']:<14} {s['median']:.4f} {m['unit']}  "
                  f"(fail_frac {record['fail_frac']:.4f}: {record['failed']} of "
                  f"{s['n']} items failed)")
    for f in record["failures"]:
        print(f"  FAILED rep {f['rep']} item {f['item']}: {f['reason']}")
    if record["per_layer"]:
        shares = "  ".join(f"{k[6:]} {v:.3f}" for k, v in record["per_layer"].items()
                           if k.startswith("share."))
        print(f"  self-time share of wall_s: {shares}")
        if "trace.overhead_s" in record["per_layer"]:
            print(f"  trace.overhead_s {record['per_layer']['trace.overhead_s']:.4f}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "lumps" / "__init__.py"]
    if args.workload == "exact-verify":
        needed.append(ROOT / "scripts" / "reconstruct_degree12.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a lumps source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM unwind as on Ctrl-C, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    inputs = workloads.make_inputs(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        probes, reps, item_names = measure(args, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = summarize(args, spec, inputs, probes, reps, item_names)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, spec, path)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
