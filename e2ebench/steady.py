"""Steadiness check: repeat a workload over seeds and compare the spread of
each end-to-end metric with its bound in ``BENCHMARK.json``.

    python3 e2ebench/steady.py --workload NAME|all [--runs 10] [--first-seed 1]
        [--save FILE] [--against FILE]

For each metric it prints the median, the quartiles and the spread
``(q3 - q1) / median``; a spread above the bound fails (``setup_s`` is only
reported), one above a third of the bound is flagged.  Every run must
report ``correct`` and the same share of failed operations.  ``--save``
keeps the raw results; ``--against`` compares the medians with a saved set
and fails a metric that got worse by more than its bound.  Exits 1 on any
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict, baseline: dict | None) -> bool:
    ok = True
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1 or not all(r["correct"] for r in results):
        print(f"{workload}: failed shares {sorted(shares)}, "
              f"correct {[r['correct'] for r in results]}  FAIL")
        ok = False
    print(f"{workload}: {len(results)} runs, failed share {sorted(shares)}")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else "wide" if spread <= bound else "FAIL"
        if name == "setup_s" and verdict == "FAIL":
            verdict = "wide (not gated)"
        ok &= not verdict.startswith("FAIL")
        line = (f"  {name:14s} {median:12.6f} {q1:12.6f} {q3:12.6f} "
                f"{spread:8.4f} {bound:6.2f}  {verdict}")
        if baseline is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in baseline)
            change = median / before - 1.0
            drift = "ok" if change <= bound else "WORSE"
            ok &= drift == "ok"
            line += f"  vs saved {before:.6f} ({change:+.2%}) {drift}"
        print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    baseline = {}
    if args.against:
        with open(args.against) as handle:
            baseline = json.load(handle)
    raw, ok = {}, True
    for workload in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        raw[workload] = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        ok &= summarize(workload, raw[workload], bounds, baseline.get(workload))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(raw, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
