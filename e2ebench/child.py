"""One benchmark child process: set up a workload, run it, check its outputs.

``run.py`` starts children one at a time::

    python3 e2ebench/child.py --workload NAME --seed N --size full|smoke \\
        --traced 0|1 --work DIR --result FILE

and reads the JSON written to ``FILE``.  The child prints nothing on
success.  Its wall-clock "ready" time, taken when set-up ends, lets the
parent time set-up from the moment it spawned the process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def _spanner(tracer):
    """``span(name)`` context: a tracer span, or nothing when untraced."""
    if tracer is None:
        return lambda name, **attrs: contextlib.nullcontext({"attrs": attrs})

    @contextlib.contextmanager
    def span(name, **attrs):
        record = tracer.open(name, **attrs)
        try:
            yield record
        finally:
            tracer.close(record)

    return span


def _capturing(cls):
    """``cls`` that keeps what its ``_sample`` returned, so the pool the
    model trained on can be checked after ``fit``."""

    class Captured(cls):
        def _sample(self, graph, sink=None):
            self.sampled = super()._sample(graph, sink)
            return self.sampled

    return Captured


def _pool(container):
    """``(node_map, sources, targets, weights)`` copies of every subgraph
    (copies, because a store's records are views into pages it unmaps)."""
    import numpy as np

    return [
        tuple(np.array(a) for a in (sub.node_map, *sub.graph.edge_arrays()))
        for sub in container
    ]


def _config(spec, seed, iterations, store=None):
    from repro.core.pipeline import PrivIMConfig

    return PrivIMConfig(
        epsilon=wl.EPSILON,
        model="grat",
        subgraph_size=wl.SUBGRAPH_SIZE,
        threshold=wl.THRESHOLD,
        theta=wl.THETA,
        num_layers=wl.HOPS,
        batch_size=wl.BATCH_SIZE,
        iterations=iterations,
        num_shards=getattr(spec, "shards", 1),
        shard_workers=1,
        shard_transport="local" if getattr(spec, "shards", 1) > 1 else None,
        subgraph_store=store,
        prefetch_depth=getattr(spec, "prefetch", 0),
        rng=seed,
    )


def _check_fit(result, pool, train_graph, *, naive: bool, iterations: int) -> list[str]:
    import checks

    cap = sum(wl.THETA**i for i in range(wl.HOPS + 1)) if naive else wl.THRESHOLD
    delta = 1.0 / (2.0 * max(train_graph.num_nodes, 2))
    failures = []
    if len(pool) != result.num_subgraphs:
        failures.append(f"pool has {len(pool)} subgraphs, result says {result.num_subgraphs}")
    if result.delta != delta:
        failures.append(f"delta {result.delta} != 1/(2|V_train|) = {delta}")
    failures += checks.check_sigma(
        result.sigma, result.epsilon, wl.EPSILON, steps=iterations, delta=delta,
        batch=min(wl.BATCH_SIZE, len(pool)), pool=len(pool), cap=cap,
    )
    sources, targets, _ = train_graph.edge_arrays()
    failures += checks.check_pool(
        pool, train_arcs=(sources, targets), num_nodes=train_graph.num_nodes,
        max_size=wl.SUBGRAPH_SIZE, cap=cap, reported_bound=result.max_occurrences,
        reported_max=result.empirical_max_occurrence, exact_induction=not naive,
    )
    return failures


# --------------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------------- #
def run_training(spec, args, span) -> dict:
    import repro.core.pipeline as pipeline
    import repro.datasets.registry as datasets
    import repro.experiments.harness as harness
    celf = importlib.import_module("repro.im.celf")  # repro.im.celf is also a function
    import repro.im.spread as spread

    with span("bench.setup"):
        graph = datasets.load_dataset(spec.dataset, scale=spec.scale)
        train_graph, test_graph = harness.split_graph(graph, 0.5, rng=args.seed)
    ready = time.time()

    import checks
    from repro.sampling.store import SubgraphStore

    naive = spec.method == "privim"
    cls = _capturing(pipeline.PrivIM if naive else pipeline.PrivIMStar)
    test_arcs = test_graph.edge_arrays()[:2]
    reps, ops = [], []
    for rep in range(spec.reps):
        store = os.path.join(args.work, f"store-{rep}") if spec.store else None
        model = cls(_config(spec, args.seed, spec.iterations, store))
        started = time.perf_counter()
        with span("bench.rep"):
            result = model.fit(train_graph)
            k = min(wl.SEED_COUNT, test_graph.num_nodes)
            seeds = model.select_seeds(test_graph, k)
            covered = spread.coverage_spread(test_graph, seeds)
            celf_seeds, celf_covered = celf.celf_coverage(test_graph, k)
        run_s = time.perf_counter() - started
        ops += [1000.0 * s for s in result.history.seconds]

        if store:
            with SubgraphStore(store) as opened:
                pool = _pool(opened)
        else:
            pool = _pool(model.sampled[0])
        failures = _check_fit(result, pool, train_graph, naive=naive,
                              iterations=spec.iterations)
        if covered != checks.coverage(test_arcs, seeds):
            failures.append(f"reported spread {covered} != recount")
        if celf_covered != checks.coverage(test_arcs, celf_seeds):
            failures.append(f"reported CELF spread {celf_covered} != recount")
        failures += checks.check_seed_ranking(model.score_nodes(test_graph), seeds, k)
        reps.append({
            "run_s": run_s,
            "failures": failures,
            "agree": [result.sigma, checks.pool_digest(pool), seeds],
        })
        if store:
            shutil.rmtree(store)
            shutil.rmtree(store + ".shards")

    if naive:
        # The sharded, store-backed pool must equal the flat sampler's on
        # the same graph and seed (untimed).
        from repro.sampling.naive import NaiveSamplingConfig
        from repro.sampling.parallel import sample_naive
        from repro.utils.rng import ensure_rng, spawn_rngs

        config = model.config
        flat = sample_naive(
            train_graph,
            NaiveSamplingConfig(
                theta=config.theta, subgraph_size=config.subgraph_size,
                hops=config.num_layers,
                sampling_rate=config.resolved_sampling_rate(train_graph.num_nodes),
                walk_length=config.walk_length,
                restart_probability=config.restart_probability,
            ),
            spawn_rngs(ensure_rng(args.seed), 4)[0],
        )
        flat_digest = checks.pool_digest(_pool(flat.container))
        for record in reps:
            if record["agree"][1] != flat_digest:
                record["failures"].append("sharded store pool != flat sample_naive pool")
    return {"ready_wall": ready, "reps": reps, "ops_ms": ops}


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #
def make_requests(num_nodes, sources, targets, directed, seed, count):
    """The closed-loop request sequence: reads 40% seeds / 40% score /
    20% spread, and every tenth request an edge write.  Adds pick pairs
    absent from the graph; removes take back an earlier add."""
    import numpy as np

    rng = np.random.default_rng([seed, count])
    present = set(zip(sources.tolist(), targets.tolist()))
    spread_sets = [sorted(rng.choice(num_nodes, 10, replace=False).tolist())
                   for _ in range(4)]
    added: list[tuple[int, int]] = []
    requests = []
    for index in range(count):
        if index % 10 == 9:
            if added and rng.random() < 0.5:
                u, v = added.pop(int(rng.integers(len(added))))
                present -= {(u, v)} if directed else {(u, v), (v, u)}
                requests.append(("mutate", {"op": "remove", "edges": [[u, v]]}))
                continue
            while True:
                u, v = (int(x) for x in rng.integers(num_nodes, size=2))
                if u != v and (u, v) not in present:
                    break
            present |= {(u, v)} if directed else {(u, v), (v, u)}
            added.append((u, v))
            requests.append(("mutate", {"op": "add", "edges": [[u, v]]}))
            continue
        draw = rng.random()
        if draw < 0.4:
            requests.append(("seeds", {"k": int(rng.choice([10, 20, 50]))}))
        elif draw < 0.8:
            nodes = rng.choice(num_nodes, 16, replace=False).tolist()
            requests.append(("score", {"nodes": nodes}))
        else:
            requests.append(("spread", {"seeds": spread_sets[int(rng.integers(4))]}))
    return requests


def check_responses(shadow, requests, responses) -> list[list[str]]:
    """Per request: failures against the shadow graph and the request."""
    import math

    import checks

    fingerprint = shadow.fingerprint()
    out = []
    for (op, payload), response in zip(requests, responses):
        failures = []
        if op == "mutate":
            if response["old_fingerprint"] != fingerprint:
                failures.append("write answered for a graph the shadow never had")
            (u, v), = payload["edges"]
            (shadow.add if payload["op"] == "add" else shadow.remove)(u, v)
            fingerprint = shadow.fingerprint()
        if response["graph_fingerprint"] != fingerprint:
            failures.append(f"{op}: fingerprint differs from the shadow graph's")
        if op == "seeds":
            seeds = response["seeds"]
            if len(seeds) != payload["k"] or len(set(seeds)) != len(seeds) or not all(
                0 <= s < shadow.num_nodes for s in seeds
            ):
                failures.append(f"seeds: bad seed set for k={payload['k']}")
        elif op == "score":
            scores = response["scores"]
            if response["nodes"] != payload["nodes"] or len(scores) != len(payload["nodes"]) \
                    or not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
                failures.append("score: bad score list")
        elif op == "spread":
            # Unit weights and one step: every IC simulation covers exactly
            # the seeds and their out-neighbours.
            expected = checks.coverage((shadow.sources, shadow.targets), payload["seeds"])
            if response["spread"] != expected:
                failures.append(f"spread: {response['spread']} != coverage {expected}")
        out.append(failures)
    return out


def run_serving(spec, args, span) -> dict:
    import repro.core.pipeline as pipeline
    import repro.datasets.registry as datasets
    import repro.experiments.harness as harness
    from repro.obs import NULL_OBS
    from repro.serving import InfluenceService, ModelRegistry

    with span("bench.setup"):
        graph = datasets.load_dataset(spec.dataset, scale=spec.scale)
        train_graph, test_graph = harness.split_graph(graph, 0.5, rng=args.seed)
        model = pipeline.PrivIMStar(_config(spec, args.seed, spec.iterations))
        result = model.fit(train_graph)
        registry = ModelRegistry(os.path.join(args.work, "registry"))
        version = registry.publish(
            result.build_artifact(dataset=spec.dataset, scale=spec.scale, seed=args.seed)
        )
        artifact = registry.load("default", version)
        service = InfluenceService(
            artifact, test_graph, model_version=version, obs=NULL_OBS
        )
        warm = service.seeds({"k": 10})
    ready = time.time()

    import numpy as np

    import checks

    sources, targets, weights = test_graph.edge_arrays()
    requests = make_requests(test_graph.num_nodes, sources, targets,
                             test_graph.is_directed, args.seed, spec.requests)
    handlers = {"seeds": service.seeds, "score": service.score,
                "spread": service.spread, "mutate": service.mutate_edges}
    engine = service.engine
    before = engine.stats()
    responses, latencies = [], []
    with span("bench.sequence") as sequence:
        started = time.perf_counter()
        for op, payload in requests:
            with span("serving.request." + op):
                began = time.perf_counter()
                responses.append(handlers[op](payload))
                latencies.append(time.perf_counter() - began)
        run_s = time.perf_counter() - started
    after = engine.stats()
    tiers = ("features", "scores", "results")
    hits = sum(after[t]["hits"] - before[t]["hits"] for t in tiers)
    lookups = hits + sum(after[t]["misses"] - before[t]["misses"] for t in tiers)
    sequence["attrs"].update(
        forward_passes=after["forward_passes"] - before["forward_passes"],
        cache_hit_ratio=hits / lookups,
    )

    shadow = checks.ShadowGraph(test_graph.num_nodes, sources, targets, weights,
                                test_graph.is_directed)
    if not (shadow.weights == 1.0).all():
        raise SystemExit("the served graph must have unit weights")
    per_request = check_responses(shadow, [("seeds", {"k": 10})] + requests,
                                  [warm] + responses)
    # On the final graph (untimed): the seed set ranks above every other node.
    k = min(50, test_graph.num_nodes)
    per_request[-1] += checks.check_seed_ranking(
        np.asarray(service.score({})["scores"]), service.seeds({"k": k})["seeds"], k)
    setup_failures = per_request[0]
    return {
        "ready_wall": ready,
        "reps": [{
            "run_s": run_s,
            "requests": len(requests),
            "failed_requests": sum(1 for f in per_request[1:] if f or setup_failures),
            "failures": sorted({m for f in [setup_failures] + per_request[1:] for m in f}),
            "agree": [result.sigma, responses[-1]["graph_fingerprint"]],
        }],
        "ops_ms": [1000.0 * t for (op, _), t in zip(requests, latencies) if op != "mutate"],
    }


# --------------------------------------------------------------------------- #
# Per-layer numbers from the spans
# --------------------------------------------------------------------------- #
#: Per-root totals: layer metric -> span name whose durations are summed.
ROOT_SECONDS = {
    "datasets.load_s": "datasets.load",
    "sampling.sample_s": "sampling.sample",
    "sharding.partition_s": "sharding.partition",
    "sharding.sample_s": "sharding.sample",
    "store.finalize_s": "store.finalize",
    "dp.calibrate_s": "dp.calibrate",
    "core.train_s": "core.train",
    "core.select_seeds_s": "core.select_seeds",
    "im.coverage_s": "im.coverage",
    "im.celf_s": "im.celf",
    "serving.registry_publish_s": "serving.registry_publish",
    "serving.registry_load_s": "serving.registry_load",
}
#: Per-call medians: layer metric -> span name, in milliseconds.
CALL_MS = {
    "core.step_ms": "core.step",
    "serving.features_ms": "serving.features",
    "im.spread_ms": "im.spread",
    "graphs.mutate_ms": "graphs.mutate",
    "serving.fingerprint_ms": "serving.fingerprint",
    "serving.invalidate_ms": "serving.invalidate",
    "serving.write_ms": "serving.request.mutate",
}


def layer_samples(tracer) -> dict[str, list[float]]:
    """Samples of every per-layer metric this child's spans support."""
    kids = tracer.children()
    samples: dict[str, list[float]] = {}

    def add(metric, value):
        samples.setdefault(metric, []).append(float(value))

    def seconds(span):
        return span["end"] - span["start"]

    for root in tracer.spans:
        if root["name"] not in ("bench.setup", "bench.rep", "bench.sequence"):
            continue
        inside = tracer.descendants(root)
        names = {s["name"] for s in inside}
        for metric, name in ROOT_SECONDS.items():
            if name in names:
                add(metric, sum(seconds(s) for s in inside if s["name"] == name))
        for span in inside:
            attrs = span["attrs"]
            if span["name"] == "core.fit":
                covered = sum(seconds(k) for k in kids.get(span["id"], ()))
                add("core.fit_residual_s", seconds(span) - covered)
            elif span["name"] == "sampling.sample":
                add("sampling.stage1_s", attrs["stage_seconds"]["stage1"])
                add("sampling.stage2_s", attrs["stage_seconds"]["stage2"])
                add("sampling.walks", attrs["walks"])
                add("sampling.accept_ratio", attrs["emitted"] / attrs["walks"])
                add("sampling.subgraphs_per_s", attrs["emitted"] / seconds(span))
            elif span["name"] == "sharding.sample":
                add("sharding.exchange_rounds", attrs["exchange_rounds"])
                add("sharding.frontier_forwards", attrs["frontier_forwards"])
            elif span["name"] == "store.finalize":
                add("store.bytes", attrs["bytes"])
            elif span["name"] == "dp.calibrate":
                add("dp.rdp_calls", attrs.get("rdp_calls", 0))
        if root["name"] == "bench.sequence":
            add("serving.forward_passes", root["attrs"]["forward_passes"])
            add("serving.cache_hit_ratio", root["attrs"]["cache_hit_ratio"])
    for span in tracer.spans:
        for metric, name in CALL_MS.items():
            if span["name"] == name:
                add(metric, 1000.0 * seconds(span))
        if span["name"] == "serving.scores":
            cold = any(k["name"] == "serving.forward" for k in kids.get(span["id"], ()))
            add("serving.scores_cold_ms" if cold else "serving.scores_warm_ms",
                1000.0 * seconds(span))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(wl.WORKLOADS), default="full")
    parser.add_argument("--traced", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    spec = wl.WORKLOADS[args.size][args.workload]
    os.makedirs(args.work, exist_ok=True)

    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    run = run_training if isinstance(spec, wl.Train) else run_serving
    outcome = run(spec, args, _spanner(tracer))
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        outcome["layers"] = layer_samples(tracer)
        outcome["self_seconds"] = tracer.self_seconds()
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.result, "w") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
