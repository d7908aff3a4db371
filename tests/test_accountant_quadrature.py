"""Theorem 3 against the exact Rényi divergence of the trainer's mechanism.

An independent oracle: nothing here is imported from ``repro.dp``.  The γ
under test is read from the accountant that :class:`DPGNNTrainer` builds
and steps, and the divergence it must bound is computed from first
principles by 1-D quadrature.

The mechanism is the one ``DPGNNTrainer.train_step`` runs: a batch of ``B``
distinct subgraphs drawn without replacement (``choice(replace=False)``)
from a pool of ``m``, Gaussian noise of std ``σ · C · N_g`` added to the
clipped gradient sum.  A node held by ``N_g`` subgraphs is touched by a
hypergeometric number ``i`` of them, and each touched subgraph moves the sum
by at most ``C``.  In units of the noise std the released sum is therefore,
in the worst case, the mixture ``Σ_i h_i N(i/N_g, σ²)`` on one graph and
``N(0, σ²)`` on its neighbour.  Theorem 3 models the touch count as
binomial instead; Hoeffding (1963, Thm. 4) says the binomial dominates the
hypergeometric for every convex function of ``i``, which is tested on its
own below.  What the oracle does not model is the pool itself changing
between neighbouring graphs (see docs/privacy.md).
"""

import math

import numpy as np
import pytest

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.sampling.container import Subgraph, SubgraphContainer

#: ``(B, m, N_g)``: batch size, pool size, occurrence bound.
CONFIGS = [(2, 4, 2), (3, 5, 2), (4, 6, 3), (2, 10, 1), (4, 8, 4), (3, 12, 2)]
SIGMAS = [0.5, 1.0, 2.0]
ORDERS = [1.5, 2.0, 4.0, 8.0, 16.0, 32.0]


def hypergeometric_pmf(batch: int, pool: int, cap: int) -> np.ndarray:
    """P(i of the ``cap`` subgraphs holding the node are in a batch of
    ``batch`` drawn without replacement from ``pool``), ``i = 0..min``."""
    total = math.comb(pool, batch)
    return np.array([
        math.comb(cap, i) * math.comb(pool - cap, batch - i) / total
        for i in range(min(cap, batch) + 1)
    ])


def binomial_pmf(trials: int, probability: float) -> np.ndarray:
    return np.array([
        math.comb(trials, i) * probability**i * (1.0 - probability) ** (trials - i)
        for i in range(trials + 1)
    ])


def _log_gaussian(x: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    return -((x - mean) ** 2) / (2.0 * sigma**2) - math.log(sigma * math.sqrt(2.0 * math.pi))


def renyi_divergence(log_p: np.ndarray, log_q: np.ndarray, x: np.ndarray,
                     alpha: float) -> float:
    """``D_α(P ‖ Q) = 1/(α−1) log ∫ p^α q^{1−α}`` by the trapezoid rule on
    the uniform grid ``x``, in log space."""
    log_integrand = alpha * log_p + (1.0 - alpha) * log_q
    shift = log_integrand.max()
    values = np.exp(log_integrand - shift)
    integral = (x[1] - x[0]) * (values.sum() - 0.5 * (values[0] + values[-1]))
    return (shift + math.log(integral)) / (alpha - 1.0)


def mixture_divergences(weights: np.ndarray, cap: int, sigma: float,
                        alpha: float) -> tuple[float, float]:
    """``(D_α(mixture ‖ N(0,σ²)), D_α(N(0,σ²) ‖ mixture))`` for the mixture
    ``Σ_i weights[i] N(i/cap, σ²)``.

    Both integrands are Gaussian-tailed: the first peaks at most at
    ``α · max shift``, the second at least at ``−(α−1) · max shift``; the
    grid covers both with 15 σ to spare at a spacing of σ/200.
    """
    shift_max = (len(weights) - 1) / cap
    x = np.arange(-(alpha - 1.0) * shift_max - 15.0 * sigma,
                  alpha * shift_max + 15.0 * sigma, sigma / 200.0)
    components = [
        math.log(weight) + _log_gaussian(x, i / cap, sigma)
        for i, weight in enumerate(weights) if weight > 0.0
    ]
    log_mixture = np.logaddexp.reduce(np.stack(components), axis=0)
    log_null = _log_gaussian(x, 0.0, sigma)
    return (renyi_divergence(log_mixture, log_null, x, alpha),
            renyi_divergence(log_null, log_mixture, x, alpha))


def trainer_gammas(batch: int, pool: int, cap: int, sigma: float) -> list[float]:
    """γ at ``ORDERS`` after one real ``train_step`` on a pool of ``pool``
    three-node subgraphs."""
    subgraphs = [
        Subgraph(Graph(3, [(0, 1), (1, 2)]), np.arange(3 * k, 3 * k + 3))
        for k in range(pool)
    ]
    config = DPTrainingConfig(iterations=1, batch_size=batch, sigma=sigma,
                              max_occurrences=cap)
    model = build_gnn("gcn", hidden_features=4, num_layers=2, rng=0)
    trainer = DPGNNTrainer(model, SubgraphContainer(subgraphs), config, rng=0)
    try:
        trainer.train_step()
        assert trainer.accountant.steps == 1
        return [trainer.accountant.rdp(alpha) for alpha in ORDERS]
    finally:
        trainer.close()


class TestQuadratureOracle:
    """The quadrature itself, against closed forms."""

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_single_gaussian_matches_lemma5(self, sigma, alpha):
        # A point-mass mixture at shift 1: D_α = α / (2σ²) in both orders.
        forward, backward = mixture_divergences(np.array([0.0, 1.0]), 1, sigma, alpha)
        assert forward == pytest.approx(alpha / (2.0 * sigma**2), rel=1e-9)
        assert backward == pytest.approx(alpha / (2.0 * sigma**2), rel=1e-9)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("alpha", [2, 4, 8, 32])
    def test_two_component_mixture_matches_binomial_expansion(self, sigma, alpha):
        # For integer α, E_Q[(h0 + h1 L)^α] with L = N(μ)/N(0) expands
        # binomially, and E_Q[L^k] = exp(k(k−1) μ² / (2σ²)).
        h0, h1, mu = 0.8, 0.2, 1.0
        log_terms = [
            math.log(math.comb(alpha, k)) + (alpha - k) * math.log(h0)
            + k * math.log(h1) + k * (k - 1) * mu**2 / (2.0 * sigma**2)
            for k in range(alpha + 1)
        ]
        exact = np.logaddexp.reduce(log_terms) / (alpha - 1)
        forward, _ = mixture_divergences(np.array([h0, h1]), 1, sigma, alpha)
        assert forward == pytest.approx(exact, rel=1e-9)

    def test_hypergeometric_pmf_sums_to_one(self):
        for batch, pool, cap in CONFIGS:
            assert hypergeometric_pmf(batch, pool, cap).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("batch,pool,cap", CONFIGS)
    def test_without_replacement_touch_count_is_hypergeometric(self, batch, pool, cap):
        # The trainer's batch draw: choice(m, size=B, replace=False), with
        # the node held by subgraphs 0..N_g-1.
        generator = np.random.default_rng(5)
        draws = 20000
        counts = np.bincount(
            [np.count_nonzero(generator.choice(pool, size=batch, replace=False) < cap)
             for _ in range(draws)],
            minlength=min(cap, batch) + 1,
        )
        expected = hypergeometric_pmf(batch, pool, cap)
        assert np.all(np.abs(counts / draws - expected) < 0.02)


class TestHoeffdingDominance:
    @pytest.mark.parametrize("batch,pool,cap", CONFIGS + [(16, 40, 5), (8, 260, 4)])
    @pytest.mark.parametrize("c", [0.01, 0.3, 1.0, 4.0])
    def test_binomial_mixture_dominates_hypergeometric(self, batch, pool, cap, c):
        hyper = hypergeometric_pmf(batch, pool, cap)
        binom = binomial_pmf(batch, cap / pool)
        i_hyper = np.arange(len(hyper))
        i_binom = np.arange(len(binom))
        # Compare log E[exp(c i²)]: exp(c i²) is convex in i.
        lhs = np.logaddexp.reduce(np.log(hyper[hyper > 0]) + c * i_hyper[hyper > 0] ** 2)
        rhs = np.logaddexp.reduce(np.log(binom) + c * i_binom**2)
        assert lhs <= rhs + 1e-12


class TestTheorem3BoundsTheMechanism:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("batch,pool,cap", CONFIGS)
    def test_gamma_bounds_the_divergence_in_both_orders(self, batch, pool, cap, sigma):
        weights = hypergeometric_pmf(batch, pool, cap)
        gammas = trainer_gammas(batch, pool, cap, sigma)
        for alpha, gamma in zip(ORDERS, gammas):
            forward, backward = mixture_divergences(weights, cap, sigma, alpha)
            assert forward <= gamma, (alpha, forward, gamma)
            assert backward <= gamma, (alpha, backward, gamma)
