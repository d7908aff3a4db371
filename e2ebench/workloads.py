"""The benchmark's workloads, at full size and at smoke size.

Full sizes are what ``run.py`` measures; smoke sizes run every check in a
few seconds and exist for the benchmark's own tests.  Settings shared by all
workloads are the paper's (Section V-A) and ``repro train``'s defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Subgraph size n, frequency cap M, privacy target and seed-set size k.
SUBGRAPH_SIZE = 30
THRESHOLD = 4
EPSILON = 4.0
SEED_COUNT = 20
#: Naive pipeline: in-degree bound theta and GNN depth r (Lemma 1).
THETA = 10
HOPS = 3
#: DP-SGD batch size B (PrivIMConfig's default, clamped to the pool size).
BATCH_SIZE = 8


@dataclass(frozen=True)
class Train:
    """``repro train``'s call sequence: fit, select seeds, coverage, CELF."""

    dataset: str
    scale: float
    method: str  # "privim-star" (Algorithm 3) or "privim" (Algorithm 1)
    iterations: int
    reps: int  # repetitions per child process
    shards: int = 1
    store: bool = False
    prefetch: int = 0


@dataclass(frozen=True)
class Serve:
    """Train and publish a model in set-up, then a closed-loop request mix."""

    dataset: str
    scale: float
    iterations: int
    requests: int  # requests per child process


WORKLOADS = {
    "full": {
        "facebook-star-t200": Train("facebook", 0.2, "privim-star", 200, reps=2),
        "email-naive-sharded-store": Train(
            "email", 1.0, "privim", 40, reps=3, shards=2, store=True, prefetch=2
        ),
        "serve-facebook-rw": Serve("facebook", 0.2, 40, requests=1000),
    },
    "smoke": {
        "facebook-star-t200": Train("facebook", 0.05, "privim-star", 10, reps=2),
        "email-naive-sharded-store": Train(
            "email", 0.3, "privim", 10, reps=2, shards=2, store=True, prefetch=2
        ),
        "serve-facebook-rw": Serve("facebook", 0.05, 5, requests=100),
    },
}
