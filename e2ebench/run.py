"""End-to-end benchmark of the PrivIM reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs child processes (``child.py``) one at a time until ``S`` seconds have
passed, each of which sets the workload up, runs it and checks its outputs.
With ``--trace 0`` the children run untraced and the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced children alternate and the JSON holds the per-layer
metrics, taken from the traced ones.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: A run never starts another child after this many seconds, so it ends
#: within 180 s however slow the machine is.
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 170.0
#: Children per run at least: set-up is timed once per child.
MIN_CHILDREN = {"full": 3, "smoke": 1}


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics, as
    ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_child(args, index: int, traced: bool, work: str, started: float) -> dict:
    result = os.path.join(work, f"child-{index}.json")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--traced", str(int(traced)), "--work", os.path.join(work, f"child-{index}"),
        "--result", result,
    ]
    if traced:
        command += ["--trace-file", os.path.join(
            HERE, ".work", "traces", f"{args.workload}-seed{args.seed}-child{index}.json")]
    # One BLAS thread: with the prefetch thread a child stays within 2 cores.
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        TMPDIR=work,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    remaining = CHILD_TIMEOUT_S - (time.monotonic() - started)
    spawned = time.time()
    subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=remaining,
                   stdout=sys.stderr)
    with open(result) as handle:
        outcome = json.load(handle)
    outcome["setup_s"] = outcome["ready_wall"] - spawned
    outcome["traced"] = traced
    return outcome


def end_to_end(children: list[dict]) -> dict[str, float]:
    ops = [t for c in children for t in c["ops_ms"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "run_s": statistics.median(r["run_s"] for c in children for r in c["reps"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "op_p50_ms": statistics.median(ops),
        "op_p95_ms": percentile(ops, 95),
    }


def per_layer(children: list[dict], names) -> dict[str, float]:
    traced = [c for c in children if c["traced"]]
    untraced = [c for c in children if not c["traced"]]
    values = {}
    for metric in names:
        samples = [v for c in traced for v in c["layers"].get(metric, ())]
        # A layer the workload never reaches reads 0 (see README).
        values[metric] = statistics.median(samples) if samples else 0.0
    values["trace.overhead_s"] = (
        statistics.median(r["run_s"] for c in traced for r in c["reps"])
        - statistics.median(r["run_s"] for c in untraced for r in c["reps"])
    )
    return values


def count_operations(children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  A repetition (training) or a request
    (serving) is one operation; it fails when any check on it fails, or when
    it disagrees with the run's first repetition on the fixed-seed outputs."""
    attempted = failed = 0
    messages: list[str] = []
    reference = children[0]["reps"][0]["agree"]
    for child in children:
        for rep in child["reps"]:
            failures = list(rep["failures"])
            if rep["agree"] != reference:
                failures.append("differs from the first repetition on a fixed-seed output")
            if "requests" in rep:
                attempted += rep["requests"]
                failed += rep["requests"] if rep["agree"] != reference else rep["failed_requests"]
            else:
                attempted += 1
                failed += bool(failures)
            messages += failures
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(wl.WORKLOADS), default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    end_units, layer_units = metric_units()
    # Bytecode is compiled before any child starts, so set-up times the
    # same imports in every child.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    started = time.monotonic()
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    children: list[dict] = []
    try:
        minimum = MIN_CHILDREN[args.size] * (2 if args.trace else 1)
        while True:
            traced = bool(args.trace) and len(children) % 2 == 1
            children.append(run_child(args, len(children), traced, work, started))
            elapsed = time.monotonic() - started
            if len(children) >= minimum and (
                elapsed >= args.seconds or elapsed >= HARD_STOP_S
            ) and not (args.trace and len(children) % 2):
                break
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: child failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, messages = count_operations(children)
    for message in sorted(set(messages)):
        print(f"check failed: {message}")
    units = layer_units if args.trace else end_units
    values = per_layer(children, layer_units) if args.trace else end_to_end(children)
    if set(values) != set(units):
        print(f"error: computed {sorted(values)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1
    ops = sum(len(c["ops_ms"]) for c in children)
    print(f"workload {args.workload} seed {args.seed}: {len(children)} children, "
          f"{attempted} operations attempted, {failed} failed, {ops} latency samples")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    if args.trace:
        totals: dict[str, float] = {}
        for child in children:
            for name, seconds in child.get("self_seconds", {}).items():
                totals[name] = totals.get(name, 0.0) + seconds
        traced = sum(1 for c in children if c["traced"])
        print(f"self seconds per layer (mean over {traced} traced children):")
        for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
            print(f"  {name:28s} {seconds / traced:12.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
