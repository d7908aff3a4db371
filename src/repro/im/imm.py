"""IMM — martingale-based RIS with a provable sample-size bound.

The paper's related work singles out Tang–Shi–Xiao's martingale approach
[28] as the state-of-the-art traditional IM method.  Its core result: if
greedy max-cover runs over

``θ ≥ λ* / OPT``  RR sets, with
``λ* = 2n · ((1 − 1/e)·α + β)² · ε⁻²``,
``α = √(ℓ·ln n + ln 2)``,
``β = √((1 − 1/e) · (ln C(n, k) + ℓ·ln n + ln 2))``,

then the returned seed set is a ``(1 − 1/e − ε)``-approximation with
probability ``1 − n^{−ℓ}``.  ``OPT ≥ k`` always holds (any k-set reaches at
least itself), which gives the conservative, simulation-friendly bound
implemented here; the full IMM also estimates OPT adaptively, which this
module exposes as a hook but does not need at reproduction scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.im.ris import ris_im
from repro.utils.rng import ensure_rng


def log_binomial(n: int, k: int) -> float:
    """``ln C(n, k)`` computed stably via log-gamma."""
    if not 0 <= k <= n:
        raise GraphError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def imm_sample_size(
    num_nodes: int,
    k: int,
    *,
    approx_epsilon: float = 0.3,
    ell: float = 1.0,
    opt_lower_bound: float | None = None,
) -> int:
    """The IMM RR-set count ``θ = ⌈λ* / OPT_lb⌉``.

    Args:
        num_nodes: ``n``.
        k: seed budget.
        approx_epsilon: the approximation slack ε (smaller = more samples).
        ell: confidence exponent — failure probability ``n^{−ℓ}``.
        opt_lower_bound: a lower bound on the optimal spread; defaults to
            ``k`` (always valid: seeds cover themselves).

    Returns:
        The required number of RR sets (at least 1).
    """
    if num_nodes < 1:
        raise GraphError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 1 <= k <= num_nodes:
        raise GraphError(f"k must be in [1, {num_nodes}], got {k}")
    if not 0.0 < approx_epsilon < 1.0:
        raise GraphError(f"approx_epsilon must be in (0, 1), got {approx_epsilon}")
    if ell <= 0:
        raise GraphError(f"ell must be positive, got {ell}")
    lower = float(opt_lower_bound) if opt_lower_bound is not None else float(k)
    if lower < 1:
        raise GraphError(f"opt_lower_bound must be >= 1, got {lower}")

    n = float(num_nodes)
    log_n = np.log(max(n, 2.0))
    one_minus_inv_e = 1.0 - 1.0 / np.e
    alpha = np.sqrt(ell * log_n + np.log(2.0))
    beta = np.sqrt(
        one_minus_inv_e * (log_binomial(num_nodes, k) + ell * log_n + np.log(2.0))
    )
    lambda_star = 2.0 * n * (one_minus_inv_e * alpha + beta) ** 2 / approx_epsilon**2
    return max(int(np.ceil(lambda_star / lower)), 1)


def imm_im(
    graph: Graph,
    k: int,
    *,
    approx_epsilon: float = 0.3,
    ell: float = 1.0,
    max_steps: int | None = None,
    max_rr_sets: int = 200_000,
    rng: int | np.random.Generator | None = None,
) -> tuple[list[int], float]:
    """IMM: RIS with the martingale sample-size guarantee.

    A thin composition of :func:`imm_sample_size` and
    :func:`repro.im.ris.ris_im`; ``max_rr_sets`` caps the Monte-Carlo cost
    so pathological parameters cannot stall a run (the cap is reported via
    the returned estimate's accuracy, not silently — the sample count used
    is ``min(θ, max_rr_sets)`` and θ grows like n·log n).

    Returns:
        ``(seeds, estimated_spread)``.
    """
    required = imm_sample_size(
        graph.num_nodes, k, approx_epsilon=approx_epsilon, ell=ell
    )
    count = min(required, max_rr_sets)
    generator = ensure_rng(rng)
    return ris_im(
        graph, k, num_rr_sets=count, max_steps=max_steps, rng=generator
    )
