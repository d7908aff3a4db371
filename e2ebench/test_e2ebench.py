"""The benchmark's own tests: smoke sizes of every workload, and the checks.

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = _run(str(tmp_path), WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


@pytest.mark.parametrize("sigma,steps,batch,pool,cap", [
    (0.9, 200, 8, 900, 4),
    (2.5, 40, 8, 300, 4),
    (0.3, 40, 8, 700, 1111),  # N_g > m: every batch is touched
    (1.7, 60, 16, 64, 20),
])
def test_theorem3_evaluator_agrees_with_the_accountant(sigma, steps, batch, pool, cap):
    from repro.dp.accountant import PrivacyAccountant

    accountant = PrivacyAccountant(sigma, batch, pool, cap)
    accountant.step(steps)
    expected = accountant.epsilon(1e-4)
    assert checks.epsilon(sigma, steps, 1e-4, batch, pool, cap) == pytest.approx(
        expected, rel=1e-9)


def test_sigma_check_rejects_a_sigma_that_is_too_small_or_too_large():
    from repro.dp.accountant import calibrate_sigma

    sigma = calibrate_sigma(4.0, 1e-4, steps=100, batch_size=8, num_subgraphs=500,
                            max_occurrences=4)
    args = dict(steps=100, delta=1e-4, batch=8, pool=500, cap=4)
    achieved = checks.epsilon(sigma, **args)
    assert checks.check_sigma(sigma, achieved, 4.0, **args) == []
    assert checks.check_sigma(0.95 * sigma, checks.epsilon(0.95 * sigma, **args), 4.0, **args)
    assert checks.check_sigma(1.05 * sigma, checks.epsilon(1.05 * sigma, **args), 4.0, **args)


def _pool_of(node_maps, arcs):
    out = []
    for node_map in node_maps:
        local = {node: i for i, node in enumerate(node_map)}
        inside = [(local[s], local[t]) for s, t in arcs if s in local and t in local]
        sources = np.array([s for s, _ in inside], dtype=np.int64)
        targets = np.array([t for _, t in inside], dtype=np.int64)
        out.append((np.array(node_map), sources, targets, np.ones(len(inside))))
    return out


def test_pool_check_catches_a_broken_cap_size_and_arc():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)]
    train = (np.array([s for s, _ in arcs]), np.array([t for _, t in arcs]))
    good = _pool_of([[0, 1], [1, 2, 3]], arcs)
    args = dict(train_arcs=train, num_nodes=4, max_size=3, cap=2, reported_bound=2,
                exact_induction=True)
    assert checks.check_pool(good, reported_max=2, **args) == []
    over_cap = _pool_of([[0, 1], [1, 2], [1, 3]], arcs)
    assert checks.check_pool(over_cap, reported_max=3, **args)
    too_big = _pool_of([[0, 1, 2, 3]], arcs)
    assert checks.check_pool(too_big, reported_max=1, **args)
    foreign = [(np.array([2, 0]), np.array([0]), np.array([1]), np.ones(1))]
    assert checks.check_pool(foreign, reported_max=1, **args)
    missing = [(np.array([0, 1]), np.array([0]), np.array([1]), np.ones(1))]
    assert checks.check_pool(missing, reported_max=1, **args)


def test_shadow_graph_fingerprint_follows_live_mutations():
    from repro.graphs.graph import Graph
    from repro.serving import graph_fingerprint

    graph = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (0, 4)], directed=False)
    shadow = checks.ShadowGraph(6, *graph.edge_arrays(), directed=False)
    assert shadow.fingerprint() == graph_fingerprint(graph)
    for op, (u, v) in [("add", (0, 3)), ("add", (5, 1)), ("remove", (0, 3)),
                       ("add", (0, 3)), ("remove", (1, 2))]:
        if op == "add":
            graph, _ = graph.add_edges([(u, v)]), shadow.add(u, v)
        else:
            graph, _ = graph.remove_edges([(u, v)]), shadow.remove(u, v)
        assert shadow.fingerprint() == graph_fingerprint(graph)
