"""Privacy accounting for PrivIM training (Theorem 3) and σ calibration.

The per-iteration mechanism samples ``B`` subgraphs uniformly from a
container of ``m`` and releases the noised, clipped gradient sum.  A single
node appears in at most ``N_g`` subgraphs, so the number of "touched"
subgraphs in a batch follows ``Binomial(B, N_g / m)`` and the shifted-
Gaussian divergence is mixed over that distribution (Theorem 3):

``γ(α) = 1/(α−1) · log Σ_{i=0..N_g} ρ_i · exp(α(α−1) i² / (2 N_g² σ²))``

with ``ρ_i = C(B, i) (N_g/m)^i (1 − N_g/m)^{B−i}``.  All sums are computed
in log space so large batches and orders stay stable, and the whole order
grid is evaluated in one array operation: ``log ρ`` is shared by every
order, so an ε costs one ``|α| × (min(N_g, B) + 1)`` log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import CalibrationError, PrivacyError
from repro.dp.rdp import DEFAULT_ALPHAS, best_epsilon_grid


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """``log Σ exp`` along the last axis, shifted by each row's maximum."""
    shift = values.max(axis=-1, keepdims=True)
    return np.log(np.exp(values - shift).sum(axis=-1)) + shift[..., 0]


def _log_binomial_pmf(trials: int, probability: float) -> np.ndarray:
    """Log pmf of ``Binomial(trials, probability)`` at ``0..trials``.

    ``p ∈ {0, 1}`` are point masses, handled explicitly: ``0 · log(0)`` terms
    would otherwise be NaN (and warn), poisoning ε when ``N_g / m`` is 1.
    """
    if not 0.0 <= probability <= 1.0:
        raise PrivacyError(f"probability must be in [0, 1], got {probability}")
    if probability in (0.0, 1.0):
        out = np.full(trials + 1, -np.inf)
        out[0 if probability == 0.0 else trials] = 0.0
        return out
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(trials + 1)])
    i = np.arange(trials + 1)
    return (
        log_factorial[trials] - log_factorial - log_factorial[::-1]
        + i * math.log(probability) + (trials - i) * math.log1p(-probability)
    )


def step_rdp_grid(
    alphas,
    sigma: float,
    batch_size: int,
    num_subgraphs: int,
    max_occurrences: int,
) -> np.ndarray:
    """One-iteration RDP of Algorithm 2 at every order of ``alphas`` (Eq. 8).

    Args:
        alphas: Rényi orders (each > 1).
        sigma: noise multiplier (noise std is ``sigma · C · N_g``).
        batch_size: subgraphs per batch ``B``.
        num_subgraphs: container size ``m = |G_sub|``.
        max_occurrences: occurrence bound ``N_g`` (Lemma 1) or ``N_g* = M``.

    Returns:
        ``γ`` per order, such that one iteration is ``(α, γ(α))``-RDP.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 1):
        raise PrivacyError(f"alpha must be > 1, got {alphas[alphas <= 1][0]}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if batch_size < 1 or num_subgraphs < 1:
        raise PrivacyError("batch_size and num_subgraphs must be >= 1")
    if max_occurrences < 1:
        raise PrivacyError(f"max_occurrences must be >= 1, got {max_occurrences}")
    if batch_size > num_subgraphs:
        raise PrivacyError("batch_size cannot exceed the container size")

    # A node cannot touch more batch slots than min(N_g, B).
    top = min(max_occurrences, batch_size)
    scale = 2.0 * max_occurrences**2 * sigma**2
    if max_occurrences >= num_subgraphs:
        # Degenerate: every batch is fully touched; reduces to a pure
        # Gaussian shifted by the worst case i = top.
        return alphas * top**2 / scale

    log_pmf = _log_binomial_pmf(batch_size, max_occurrences / num_subgraphs)
    # The mass of i in (top, B] collapses onto i = top (the shift cannot
    # exceed N_g · C), keeping the bound valid.
    log_rho = np.append(log_pmf[:top], _logsumexp(log_pmf[top:]))
    i = np.arange(top + 1)
    exponents = (alphas * (alphas - 1.0))[:, None] * (i**2)[None, :] / scale
    return _logsumexp(log_rho + exponents) / (alphas - 1.0)


def privim_step_rdp(alpha: float, sigma: float, batch_size: int, num_subgraphs: int,
                    max_occurrences: int) -> float:
    """One-iteration RDP at the single order ``alpha``: one element of
    :func:`step_rdp_grid`."""
    return float(step_rdp_grid((alpha,), sigma, batch_size, num_subgraphs, max_occurrences)[0])


def poisson_subsampled_gaussian_rdp(
    alpha: int,
    sigma: float,
    sampling_rate: float,
) -> float:
    """Classical Poisson-subsampled Gaussian RDP (integer orders).

    The Mironov–Talwar–Zhang bound used by standard DP-SGD accountants:
    ``γ(α) = 1/(α−1) log Σ_{k=0..α} C(α,k)(1−q)^{α−k} q^k exp((k²−k)/(2σ²))``.

    Included as the comparison point for the accountant ablation in
    DESIGN.md — it ignores the occurrence structure Theorem 3 exploits.
    """
    if not isinstance(alpha, (int, np.integer)) or alpha < 2:
        raise PrivacyError(f"alpha must be an integer >= 2, got {alpha}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if not 0.0 < sampling_rate <= 1.0:
        raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")

    # The weights C(α,k)(1−q)^{α−k} q^k are the Binomial(α, q) pmf; at
    # q = 1 it is a point mass at k = α, the plain Gaussian term.
    k = np.arange(alpha + 1)
    exponents = (k**2 - k) / (2.0 * sigma**2)
    return float(_logsumexp(_log_binomial_pmf(int(alpha), sampling_rate) + exponents)
                 / (alpha - 1.0))


@dataclass
class PrivacyAccountant:
    """Tracks cumulative RDP of Algorithm 2 over training iterations.

    Attributes:
        sigma: noise multiplier.
        batch_size: subgraphs per iteration.
        num_subgraphs: container size ``m``.
        max_occurrences: node occurrence bound ``N_g``.
        alphas: Rényi order grid for the final conversion.
    """

    sigma: float
    batch_size: int
    num_subgraphs: int
    max_occurrences: int
    alphas: tuple[float, ...] = DEFAULT_ALPHAS

    def __post_init__(self) -> None:
        self.steps = 0
        # Optional budget ledger; see attach_ledger().
        self.ledger = None

    @cached_property
    def _step_gammas(self) -> np.ndarray:
        """Single-step γ over ``alphas``."""
        return step_rdp_grid(self.alphas, self.sigma, self.batch_size,
                             self.num_subgraphs, self.max_occurrences)

    def attach_ledger(self, ledger) -> "PrivacyAccountant":
        """Emit one event per composition step to ``ledger``.

        ``ledger`` is a :class:`repro.obs.ledger.PrivacyLedger` (any object
        with a ``record_step(accountant)`` method works).  Returns ``self``
        for chaining.
        """
        self.ledger = ledger
        return self

    def step(self, count: int = 1) -> None:
        """Record ``count`` training iterations.

        With a ledger attached, each of the ``count`` composition steps
        emits its own event (running ε, best α) as it is recorded.
        """
        if count < 0:
            raise PrivacyError(f"count must be non-negative, got {count}")
        if self.ledger is None:
            self.steps += count
            return
        for _ in range(count):
            self.steps += 1
            self.ledger.record_step(self)

    def rdp(self, alpha: float) -> float:
        """Cumulative γ at order ``alpha`` after the recorded steps."""
        gamma = step_rdp_grid((alpha,), self.sigma, self.batch_size,
                              self.num_subgraphs, self.max_occurrences)[0]
        return float(gamma * self.steps)

    def rdp_grid(self) -> np.ndarray:
        """Cumulative γ at every order of ``alphas`` after the recorded steps."""
        return self._step_gammas * self.steps

    def epsilon(self, delta: float) -> float:
        """Tightest ε over the order grid for the recorded steps."""
        if self.steps == 0:
            return 0.0
        epsilon, _ = best_epsilon_grid(self.alphas, self.rdp_grid(), delta)
        return max(epsilon, 0.0)


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    steps: int,
    batch_size: int,
    num_subgraphs: int,
    max_occurrences: int,
    *,
    sigma_low: float = 1e-2,
    sigma_high: float = 1e4,
    tolerance: float = 1e-3,
) -> float:
    """Smallest noise multiplier meeting ``(target_epsilon, delta)``.

    Bisection over σ on the monotone map σ → ε(T steps).  Raises
    :class:`CalibrationError` if even ``sigma_high`` cannot reach the
    target.
    """
    if target_epsilon <= 0:
        raise PrivacyError(f"target_epsilon must be positive, got {target_epsilon}")
    if steps < 1:
        raise PrivacyError(f"steps must be >= 1, got {steps}")

    def epsilon_for(sigma: float) -> float:
        accountant = PrivacyAccountant(sigma, batch_size, num_subgraphs, max_occurrences)
        accountant.step(steps)
        return accountant.epsilon(delta)

    low, high = sigma_low, sigma_high
    if epsilon_for(high) > target_epsilon:
        raise CalibrationError(
            f"even sigma={high} gives epsilon > {target_epsilon}; "
            "reduce steps, batch size, or occurrences"
        )
    if epsilon_for(low) <= target_epsilon:
        return low
    while high / low > 1.0 + tolerance:
        middle = np.sqrt(low * high)
        if epsilon_for(middle) > target_epsilon:
            low = middle
        else:
            high = middle
    return float(high)
