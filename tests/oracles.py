"""Differential-testing oracle harness for the training stack.

The repo's correctness story for every execution knob (``grad_mode``,
``grad_workers``, the kernel toggle, checkpoint/resume) is the same
sentence: *the final weights, the per-iteration losses, and the accounted
ε are byte-equal to the serial reference*.  This module turns that
sentence into reusable helpers so each test states only the pair of
configurations it compares:

* :func:`train_outcome` — run Algorithm 2 under an arbitrary
  :class:`DPTrainingConfig` knob set and capture the byte-level outcome;
* :func:`resumed_outcome` — run the first ``split_at`` iterations under
  one configuration, checkpoint, and finish under another;
* :func:`assert_outcomes_identical` — compare two outcomes with a useful
  error message (which component diverged first).

The serial per-subgraph loop (``grad_mode="loop"``, ``grad_workers=1``)
is the permanent oracle; every other configuration is differential-tested
against it.

The accountant has its own scalar oracle here: the one-order-at-a-time
Theorem 3 evaluation on scipy's ``gammaln``/``logsumexp``
(:func:`scalar_step_rdp`), the per-order Theorem 1 grid search on top of
it (:func:`scalar_best_epsilon`, :func:`scalar_epsilon`) and the σ bisection
(:func:`scalar_calibrate_sigma`).  The vectorised accountant in
:mod:`repro.dp.accountant` is differential-tested against them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.dp.rdp import DEFAULT_ALPHAS, rdp_to_dp
from repro.errors import CalibrationError, PrivacyError
from repro.gnn.models import build_gnn

__all__ = [
    "TrainOutcome",
    "make_model",
    "outcome_of",
    "train_outcome",
    "resumed_outcome",
    "assert_outcomes_identical",
    "scalar_log_binomial_pmf",
    "scalar_step_rdp",
    "scalar_best_epsilon",
    "scalar_epsilon",
    "scalar_calibrate_sigma",
]


@dataclasses.dataclass(frozen=True)
class TrainOutcome:
    """Byte-level result of a training run: the bit-identity contract."""

    weights: bytes
    losses: tuple
    epsilon: float | None


def make_model(kind: str = "gcn", *, hidden_features: int = 8, num_layers: int = 2,
               rng: int = 0, **kwargs):
    """A small deterministic model (identical weights for identical args)."""
    return build_gnn(
        kind, hidden_features=hidden_features, num_layers=num_layers, rng=rng,
        **kwargs,
    )


def outcome_of(trainer: DPGNNTrainer) -> TrainOutcome:
    """Capture a finished trainer's byte-level outcome."""
    weights = np.concatenate(
        [parameter.data.reshape(-1) for parameter in trainer.model.parameters()]
    )
    epsilon = trainer.spent_epsilon(1e-4) if trainer.accountant else None
    return TrainOutcome(
        weights=weights.tobytes(),
        losses=tuple(trainer.history.losses),
        epsilon=epsilon,
    )


def _config(**overrides) -> DPTrainingConfig:
    settings = dict(
        iterations=4, batch_size=4, sigma=1.0, clip_bound=1.0,
        max_occurrences=4, grad_workers=1, grad_mode="loop",
    )
    settings.update(overrides)
    return DPTrainingConfig(**settings)


def train_outcome(container, *, model: str = "gcn", rng: int = 7,
                  **config_overrides) -> TrainOutcome:
    """Train from scratch under the given knob overrides; capture the outcome.

    Every call builds an identically-initialised model, so two calls that
    differ only in execution knobs (``grad_mode``, ``grad_workers``,
    kernels) must produce identical :class:`TrainOutcome` values.
    """
    trainer = DPGNNTrainer(
        make_model(model), container, _config(**config_overrides), rng=rng
    )
    try:
        trainer.train()
        return outcome_of(trainer)
    finally:
        trainer.close()


def resumed_outcome(container, *, split_at: int, checkpoint_path: str,
                    model: str = "gcn", rng: int = 7, resume_rng: int = 991,
                    first: dict | None = None, second: dict | None = None,
                    **shared_overrides) -> TrainOutcome:
    """Train to ``split_at`` under ``first``, resume to the end under ``second``.

    The resuming trainer is seeded differently (``resume_rng``) on purpose:
    matching the uninterrupted run proves the checkpoint's restored RNG
    streams — not the constructor seed — drive the continuation.
    """
    iterations = shared_overrides.pop("iterations", 6)
    first_config = _config(
        iterations=split_at, checkpoint_every=split_at,
        checkpoint_path=checkpoint_path, **{**shared_overrides, **(first or {})},
    )
    partial = DPGNNTrainer(make_model(model), container, first_config, rng=rng)
    try:
        partial.train()
    finally:
        partial.close()

    second_config = _config(
        iterations=iterations, checkpoint_every=split_at,
        checkpoint_path=checkpoint_path, **{**shared_overrides, **(second or {})},
    )
    resumed = DPGNNTrainer(
        make_model(model), container, second_config, rng=resume_rng
    )
    try:
        resumed.load_checkpoint(checkpoint_path)
        resumed.train()
        return outcome_of(resumed)
    finally:
        resumed.close()


def assert_outcomes_identical(candidate: TrainOutcome, oracle: TrainOutcome,
                              *, label: str = "candidate") -> None:
    """Byte-compare two outcomes, naming the first diverging component."""
    assert candidate.losses == oracle.losses, (
        f"{label}: per-iteration losses diverged from the oracle "
        f"({candidate.losses} vs {oracle.losses})"
    )
    assert candidate.epsilon == oracle.epsilon, (
        f"{label}: accounted epsilon diverged from the oracle "
        f"({candidate.epsilon} vs {oracle.epsilon})"
    )
    assert candidate.weights == oracle.weights, (
        f"{label}: final weights are not byte-equal to the oracle"
    )


# --------------------------------------------------------------------------- #
# Scalar Theorem 3 accountant
# --------------------------------------------------------------------------- #
def scalar_log_binomial_pmf(count: int, trials: int, probability: float) -> np.ndarray:
    """Log pmf of ``Binomial(trials, probability)`` at ``0..count``."""
    if not 0.0 <= probability <= 1.0:
        raise PrivacyError(f"probability must be in [0, 1], got {probability}")
    if probability == 0.0:
        out = np.full(count + 1, -np.inf)
        out[0] = 0.0
        return out
    if probability == 1.0:
        out = np.full(count + 1, -np.inf)
        if count >= trials:
            out[trials] = 0.0
        return out
    i = np.arange(count + 1)
    log_coeff = gammaln(trials + 1) - gammaln(i + 1) - gammaln(trials - i + 1)
    log_p = i * np.log(probability)
    log_q = (trials - i) * np.log1p(-probability)
    return log_coeff + log_p + log_q


def scalar_step_rdp(alpha: float, sigma: float, batch_size: int,
                    num_subgraphs: int, max_occurrences: int) -> float:
    """One-iteration RDP of Algorithm 2 at one order (Theorem 3, Eq. 8)."""
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if batch_size < 1 or num_subgraphs < 1:
        raise PrivacyError("batch_size and num_subgraphs must be >= 1")
    if max_occurrences < 1:
        raise PrivacyError(f"max_occurrences must be >= 1, got {max_occurrences}")
    if batch_size > num_subgraphs:
        raise PrivacyError("batch_size cannot exceed the container size")

    touch_probability = min(max_occurrences / num_subgraphs, 1.0)
    top = min(max_occurrences, batch_size)
    if touch_probability >= 1.0:
        return alpha * top**2 / (2.0 * max_occurrences**2 * sigma**2)

    log_rho = scalar_log_binomial_pmf(top, batch_size, touch_probability)
    if top < batch_size:
        i_tail = np.arange(top + 1, batch_size + 1)
        log_tail = (
            gammaln(batch_size + 1)
            - gammaln(i_tail + 1)
            - gammaln(batch_size - i_tail + 1)
            + i_tail * np.log(touch_probability)
            + (batch_size - i_tail) * np.log1p(-touch_probability)
        )
        log_rho[top] = np.logaddexp(log_rho[top], logsumexp(log_tail))

    i = np.arange(top + 1)
    exponents = alpha * (alpha - 1.0) * i**2 / (2.0 * max_occurrences**2 * sigma**2)
    return float(logsumexp(log_rho + exponents) / (alpha - 1.0))


def scalar_best_epsilon(step_gammas, steps: int, delta: float,
                        alphas=DEFAULT_ALPHAS) -> tuple[float, float]:
    """``(ε, best α)`` after ``steps`` iterations of a mechanism whose
    one-step RDP at ``alphas[j]`` is ``step_gammas[j]``: Theorem 1 one order
    at a time, keeping the first order that attains the minimum."""
    best = (np.inf, alphas[0])
    for alpha, gamma in zip(alphas, step_gammas):
        epsilon = rdp_to_dp(alpha, gamma * steps, delta)
        if epsilon < best[0]:
            best = (float(epsilon), float(alpha))
    return max(best[0], 0.0), best[1]


def scalar_epsilon(sigma: float, steps: int, delta: float, batch_size: int,
                   num_subgraphs: int, max_occurrences: int,
                   alphas=DEFAULT_ALPHAS) -> tuple[float, float]:
    """``(ε, best α)`` of Algorithm 2 after ``steps`` iterations."""
    step_gammas = [
        scalar_step_rdp(alpha, sigma, batch_size, num_subgraphs, max_occurrences)
        for alpha in alphas
    ]
    return scalar_best_epsilon(step_gammas, steps, delta, alphas)


def scalar_calibrate_sigma(target_epsilon: float, delta: float, steps: int,
                           batch_size: int, num_subgraphs: int, max_occurrences: int,
                           *, sigma_low: float = 1e-2, sigma_high: float = 1e4,
                           tolerance: float = 1e-3) -> float:
    """The σ bisection of :func:`repro.dp.accountant.calibrate_sigma` on the
    scalar evaluation."""
    def epsilon_for(sigma: float) -> float:
        return scalar_epsilon(sigma, steps, delta, batch_size, num_subgraphs,
                              max_occurrences)[0]

    low, high = sigma_low, sigma_high
    if epsilon_for(high) > target_epsilon:
        raise CalibrationError(f"even sigma={high} gives epsilon > {target_epsilon}")
    if epsilon_for(low) <= target_epsilon:
        return low
    while high / low > 1.0 + tolerance:
        middle = np.sqrt(low * high)
        if epsilon_for(middle) > target_epsilon:
            low = middle
        else:
            high = middle
    return float(high)
