"""Output checks that share no code with the program under test.

Every function here recomputes a property of the program's output from
first principles -- the paper's formulas, the raw edge lists, numpy
primitives -- and returns a list of failure messages (empty = passed).
Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Renyi orders of the conversion grid: 1.1 .. 10.9 in steps of 0.1, the
#: integers 11 .. 63, then 128, 256 and 512.
ALPHAS = tuple(
    [1.0 + x / 10.0 for x in range(1, 100)] + [float(a) for a in range(11, 64)]
    + [128.0, 256.0, 512.0]
)


# --------------------------------------------------------------------------- #
# Theorem 3 accountant
# --------------------------------------------------------------------------- #
def _logsumexp(values: list[float]) -> float:
    finite = [v for v in values if v != -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    return top + math.log(sum(math.exp(v - top) for v in finite))


def _log_binomial(i: int, trials: int, p: float) -> float:
    return (
        math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
        + i * math.log(p) + (trials - i) * math.log1p(-p)
    )


def step_rdp(alpha: float, sigma: float, batch: int, pool: int, cap: int) -> float:
    """One iteration's RDP at order ``alpha`` (Theorem 3).

    The number of batch slots a node touches is Binomial(B, N_g/m); the
    shift of the summed gradient is at most ``min(N_g, B)`` clip norms, so
    the tail beyond that is folded onto it.  Noise std is ``sigma * C * N_g``.
    """
    p = min(cap / pool, 1.0)
    top = min(cap, batch)
    if p >= 1.0:
        log_weights = [-math.inf] * top + [0.0]
    else:
        log_weights = [_log_binomial(i, batch, p) for i in range(top)]
        log_weights.append(
            _logsumexp([_log_binomial(i, batch, p) for i in range(top, batch + 1)])
        )
    scale = alpha * (alpha - 1.0) / (2.0 * cap * cap * sigma * sigma)
    terms = [w + scale * i * i for i, w in enumerate(log_weights)]
    return _logsumexp(terms) / (alpha - 1.0)


def epsilon(sigma: float, steps: int, delta: float, batch: int, pool: int, cap: int) -> float:
    """(epsilon, delta) after ``steps`` iterations: RDP composes additively
    over T, then Theorem 1 converts at the best order of the grid."""
    best = math.inf
    for alpha in ALPHAS:
        gamma = steps * step_rdp(alpha, sigma, batch, pool, cap)
        converted = (
            gamma + math.log((alpha - 1.0) / alpha)
            - (math.log(delta) + math.log(alpha)) / (alpha - 1.0)
        )
        best = min(best, converted)
    return max(best, 0.0)


def check_sigma(
    sigma: float,
    achieved: float,
    target: float,
    *,
    steps: int,
    delta: float,
    batch: int,
    pool: int,
    cap: int,
) -> list[str]:
    """The calibrated sigma meets the target and 0.98 sigma does not; the
    program's reported epsilon agrees with this evaluator."""
    failures = []
    at_sigma = epsilon(sigma, steps, delta, batch, pool, cap)
    below = epsilon(0.98 * sigma, steps, delta, batch, pool, cap)
    if not at_sigma <= target * (1.0 + 1e-9):
        failures.append(f"sigma={sigma} gives epsilon {at_sigma} > target {target}")
    if not below > target:
        failures.append(f"0.98*sigma already meets the target (epsilon {below})")
    if not math.isclose(achieved, at_sigma, rel_tol=1e-9, abs_tol=1e-12):
        failures.append(f"reported epsilon {achieved} != recomputed {at_sigma}")
    return failures


# --------------------------------------------------------------------------- #
# Subgraph pool
# --------------------------------------------------------------------------- #
def pool_digest(subgraphs) -> str:
    """SHA-256 over every subgraph's node map and induced arcs, in order.
    ``subgraphs`` yields ``(node_map, sources, targets, weights)``."""
    digest = hashlib.sha256()
    for node_map, sources, targets, weights in subgraphs:
        for array, dtype in (
            (node_map, np.int64), (sources, np.int64), (targets, np.int64),
            (weights, np.float64),
        ):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def check_pool(
    subgraphs,
    *,
    train_arcs: tuple[np.ndarray, np.ndarray],
    num_nodes: int,
    max_size: int,
    cap: int,
    reported_bound: int,
    reported_max: int,
    exact_induction: bool,
) -> list[str]:
    """Occurrence caps, subgraph sizes and induced arcs of a sampled pool.

    ``subgraphs`` is a list of ``(node_map, sources, targets, weights)``
    with local arc endpoints.  ``cap`` is the bound computed from the
    paper (M, or sum of theta^i); ``reported_*`` are the program's.
    """
    failures = []
    if not subgraphs:
        return ["the pool is empty"]
    if reported_bound != cap:
        failures.append(f"program bound N_g={reported_bound}, paper gives {cap}")
    maps = [np.asarray(s[0], dtype=np.int64) for s in subgraphs]
    counts = np.bincount(np.concatenate(maps), minlength=num_nodes)
    if counts.max() > cap:
        failures.append(f"a node occurs {counts.max()} times, above N_g={cap}")
    if counts.max() != reported_max:
        failures.append(f"recount max {counts.max()} != reported {reported_max}")
    sizes = np.array([len(m) for m in maps])
    if sizes.max() > max_size or sizes.min() < 1:
        failures.append(f"subgraph sizes span {sizes.min()}..{sizes.max()}, n={max_size}")
    if any(len(np.unique(m)) != len(m) for m in maps):
        failures.append("a node map repeats a node")

    train_codes = np.sort(train_arcs[0] * num_nodes + train_arcs[1])
    local_sources = np.concatenate([np.asarray(s[1], dtype=np.int64) for s in subgraphs])
    local_targets = np.concatenate([np.asarray(s[2], dtype=np.int64) for s in subgraphs])
    offsets = np.repeat(np.arange(len(maps)), [len(s[1]) for s in subgraphs])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat_maps = np.concatenate(maps)
    codes = (
        flat_maps[starts[offsets] + local_sources] * num_nodes
        + flat_maps[starts[offsets] + local_targets]
    )
    position = np.searchsorted(train_codes, codes)
    present = (position < len(train_codes)) & (
        train_codes[np.minimum(position, len(train_codes) - 1)] == codes
    )
    if not present.all():
        failures.append(f"{int((~present).sum())} induced arcs are not train arcs")
    if exact_induction:
        # Every train arc between two nodes of a subgraph must be present.
        order = np.argsort(train_arcs[0], kind="stable")
        heads = train_arcs[1][order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(train_arcs[0], minlength=num_nodes))])
        member = np.zeros(num_nodes, dtype=bool)
        in_sub = 0
        for node_map in maps:
            member[node_map] = True
            for node in node_map.tolist():
                in_sub += int(member[heads[indptr[node]:indptr[node + 1]]].sum())
            member[node_map] = False
        if in_sub != len(codes):
            failures.append(f"pool holds {len(codes)} arcs, induction gives {in_sub}")
    return failures


# --------------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------------- #
def coverage(arcs: tuple[np.ndarray, np.ndarray], seeds) -> int:
    """|S u N_out(S)| from the arc list."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    reached = arcs[1][np.isin(arcs[0], seeds)]
    return int(len(np.union1d(seeds, reached)))


def check_seed_ranking(scores: np.ndarray, seeds, k: int) -> list[str]:
    """k distinct seeds, each scoring at least as high as every other node."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if len(seeds) != k or len(np.unique(seeds)) != k:
        return [f"expected {k} distinct seeds, got {seeds.tolist()}"]
    rest = np.setdiff1d(np.arange(len(scores)), seeds)
    if len(rest) and scores[seeds].min() < scores[rest].max():
        return [f"seed score {scores[seeds].min()} below left-out {scores[rest].max()}"]
    return []


# --------------------------------------------------------------------------- #
# Serving: shadow graph
# --------------------------------------------------------------------------- #
class ShadowGraph:
    """The benchmark's own copy of the served graph's arc list.

    Arcs are kept in bucket order (grouped by source, insertion order inside
    a bucket): an added arc goes to the end of its source's bucket and a
    removed arc leaves the others in place.  That is the documented order
    the content fingerprint hashes: node count, then sources, targets
    (int64) and weights (float64).
    """

    def __init__(self, num_nodes: int, sources, targets, weights, directed: bool):
        self.num_nodes = int(num_nodes)
        self.directed = bool(directed)
        self.sources = np.asarray(sources, dtype=np.int64).copy()
        self.targets = np.asarray(targets, dtype=np.int64).copy()
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        if np.any(np.diff(self.sources) < 0):
            raise ValueError("arcs must be grouped by source")

    def _arcs_of(self, u: int, v: int) -> list[tuple[int, int]]:
        return [(u, v)] if self.directed or u == v else [(u, v), (v, u)]

    def add(self, u: int, v: int) -> None:
        for s, t in self._arcs_of(u, v):
            at = int(np.searchsorted(self.sources, s, side="right"))
            self.sources = np.insert(self.sources, at, s)
            self.targets = np.insert(self.targets, at, t)
            self.weights = np.insert(self.weights, at, 1.0)

    def remove(self, u: int, v: int) -> None:
        for s, t in self._arcs_of(u, v):
            at = np.flatnonzero((self.sources == s) & (self.targets == t))[0]
            self.sources = np.delete(self.sources, at)
            self.targets = np.delete(self.targets, at)
            self.weights = np.delete(self.weights, at)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.num_nodes.to_bytes(8, "little"))
        digest.update(self.sources.tobytes())
        digest.update(self.targets.tobytes())
        digest.update(self.weights.tobytes())
        return digest.hexdigest()
