"""Spans recorded from outside the program, by wrapping its public functions.

:func:`install` replaces each function or method the workloads call into
with a wrapper that opens a span named after the layer, calls the original
and closes the span; it returns a function that puts the originals back.
Spans are held in memory as ``{id, name, start, end, parent, attrs}`` and
written out once, when the child ends.  The untraced (timed) children never
call :func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; a parent is the innermost open span of the
    same thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "attrs": attrs,
        }
        self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def current(self) -> dict | None:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, args, result)`` may add attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def count(self, attr: str, fn):
        """``fn`` unchanged, but each call adds 1 to ``attr`` of the open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.current()
            if span is not None:
                span["attrs"][attr] = span["attrs"].get(attr, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    def children(self) -> dict[int, list[dict]]:
        kids: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                kids[span["parent"]].append(span)
        return kids

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by its child spans, summed."""
        kids = self.children()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = sum(k["end"] - k["start"] for k in kids.get(span["id"], ()))
            totals[span["name"]] += span["end"] - span["start"] - covered
        return dict(totals)

    def descendants(self, root: dict) -> list[dict]:
        kids = self.children()
        out, todo = [], list(kids.get(root["id"], ()))
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(kids.get(span["id"], ()))
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "self_seconds": self.self_seconds()}, handle)


def _patch(patches: list, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)``, remembering the original.
    A class attribute is read from the class ``__dict__`` so a plain function
    (not a bound method) is wrapped."""
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    patches.append((owner, attr, original))
    setattr(owner, attr, make(original))


def _store_bytes(span: dict, args, store) -> None:
    total = 0
    for entry in os.scandir(store.path):
        total += entry.stat().st_size
    span["attrs"]["bytes"] = total


def _sampling_stats(span: dict, args, run) -> None:
    stats = run.stats
    span["attrs"].update(
        walks=stats.walks_attempted,
        emitted=stats.subgraphs_emitted,
        stage_seconds=dict(stats.stage_seconds),
        exchange_rounds=getattr(stats, "exchange_rounds", 0),
        frontier_forwards=getattr(stats, "frontier_forwards", 0),
    )


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross; returns an uninstaller.

    Module-level names are patched where the caller looks them up (e.g.
    ``repro.core.pipeline.calibrate_sigma``, which the pipeline imported by
    name), methods on their classes.
    """
    import repro.core.pipeline as pipeline
    import repro.core.trainer as trainer
    import repro.datasets.registry as datasets
    import repro.dp.accountant as accountant
    import repro.graphs.graph as graphs
    celf = importlib.import_module("repro.im.celf")  # repro.im.celf is also a function
    import repro.im.spread as spread
    import repro.serving.engine as engine
    import repro.serving.registry as registry
    import repro.serving.service as service
    import repro.sharding as sharding

    base = pipeline._BasePipeline
    wrap = tracer.wrap
    patches: list = []
    for owner, attr, name, after in [
        (datasets, "load_dataset", "datasets.load", None),
        (base, "fit", "core.fit", None),
        (pipeline, "sample_dual_stage", "sampling.sample", _sampling_stats),
        (sharding, "build_shard_set", "sharding.partition", None),
        (sharding, "sample_naive_sharded", "sharding.sample", _sampling_stats),
        (sharding.ShardedStoreSink, "finalize_merged", "store.finalize", _store_bytes),
        (pipeline, "calibrate_sigma", "dp.calibrate", None),
        (trainer.DPGNNTrainer, "train", "core.train", None),
        (trainer.DPGNNTrainer, "train_step", "core.step", None),
        (base, "select_seeds", "core.select_seeds", None),
        (spread, "coverage_spread", "im.coverage", None),
        (celf, "celf_coverage", "im.celf", None),
        (registry.ModelRegistry, "publish", "serving.registry_publish", None),
        (registry.ModelRegistry, "load", "serving.registry_load", None),
        (engine.ScoringEngine, "scores", "serving.scores", None),
        (engine, "degree_features", "serving.features", None),
        (engine, "_score_nodes", "serving.forward", None),
        (engine, "_estimate_spread", "im.spread", None),
        (engine.ScoringEngine, "invalidate", "serving.invalidate", None),
        (service, "graph_fingerprint", "serving.fingerprint", None),
        (graphs.Graph, "add_edges", "graphs.mutate", None),
        (graphs.Graph, "remove_edges", "graphs.mutate", None),
    ]:
        _patch(patches, owner, attr,
               lambda original, name=name, after=after: wrap(name, original, after))
    _patch(patches, accountant, "privim_step_rdp",
           lambda original: tracer.count("rdp_calls", original))

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
