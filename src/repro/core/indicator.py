"""The parameter-selection indicator (Section IV-C, Eq. 10–12, Appendix H).

The utility of PrivIM* first rises then falls in both the subgraph size
``n`` and the frequency cap ``M``.  The indicator models each trend with a
Gamma probability density whose *shape* parameter is an affine function of
``ln |V|``:

``β_n = k_n · ln|V| + b_n``,  ``β_M = k_M / ln|V| + b_M``  (Eq. 12)

so larger datasets peak at larger ``n`` and smaller ``M``.  The combined
score ``I(n, M)`` (Eq. 10) is the sum of the two densities, max-normalised
over the candidate grid.  :func:`fit_indicator` recovers
``(k, b)`` from pilot runs by the closed-form least squares of Appendix H
(Eq. 48–51).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ExperimentError


def gamma_pdf(x: float | np.ndarray, shape: float, scale: float) -> float | np.ndarray:
    """Gamma probability density ``ξ(x; β, ψ)`` (Eq. 11), log-stable."""
    if shape <= 0 or scale <= 0:
        raise ExperimentError(f"gamma shape/scale must be positive, got {shape}, {scale}")
    array = np.asarray(x, dtype=np.float64)
    if np.any(array <= 0):
        raise ExperimentError("gamma pdf is defined for positive x only")
    log_pdf = (
        (shape - 1.0) * np.log(array)
        - array / scale
        - shape * np.log(scale)
        - math.lgamma(shape)
    )
    result = np.exp(log_pdf)
    return float(result) if np.isscalar(x) else result


@dataclass(frozen=True)
class IndicatorParameters:
    """The six fitted constants of Eq. 10–12.

    Defaults are the paper's reported values (Section V-D): ψ_n = 25,
    ψ_M = 5, k_n = 0.47, b_n = −1.03, k_M = 4.02, b_M = 1.22.
    """

    psi_n: float = 25.0
    psi_m: float = 5.0
    k_n: float = 0.47
    b_n: float = -1.03
    k_m: float = 4.02
    b_m: float = 1.22


class Indicator:
    """Scores ``(n, M)`` candidates for a dataset of size ``|V|``."""

    def __init__(self, parameters: IndicatorParameters | None = None) -> None:
        self.parameters = parameters or IndicatorParameters()

    def beta_n(self, num_nodes: int) -> float:
        """Shape parameter for the ``n`` trend (Eq. 12, left)."""
        self._check_nodes(num_nodes)
        return self.parameters.k_n * np.log(num_nodes) + self.parameters.b_n

    def beta_m(self, num_nodes: int) -> float:
        """Shape parameter for the ``M`` trend (Eq. 12, right)."""
        self._check_nodes(num_nodes)
        return self.parameters.k_m / np.log(num_nodes) + self.parameters.b_m

    @staticmethod
    def _check_nodes(num_nodes: int) -> None:
        if num_nodes < 3:
            raise ExperimentError(f"num_nodes must be >= 3, got {num_nodes}")

    def raw_score(self, n: float, m: float, num_nodes: int) -> float:
        """Unnormalised ``ξ(n) + ξ(M)`` (Eq. 10's numerator)."""
        beta_n = max(self.beta_n(num_nodes), 1.0 + 1e-6)
        beta_m = max(self.beta_m(num_nodes), 1.0 + 1e-6)
        return float(
            gamma_pdf(n, beta_n, self.parameters.psi_n)
            + gamma_pdf(m, beta_m, self.parameters.psi_m)
        )

    def score_grid(
        self,
        n_candidates: Sequence[float],
        m_candidates: Sequence[float],
        num_nodes: int,
    ) -> np.ndarray:
        """Normalised indicator values ``I(n, M)`` over the grid (Eq. 10).

        Returns a ``(len(n_candidates), len(m_candidates))`` array whose
        maximum is exactly 1.
        """
        if not len(n_candidates) or not len(m_candidates):
            raise ExperimentError("candidate grids must be non-empty")
        raw = np.array(
            [
                [self.raw_score(n, m, num_nodes) for m in m_candidates]
                for n in n_candidates
            ]
        )
        peak = raw.max()
        if peak <= 0:
            raise ExperimentError("indicator is zero everywhere on the grid")
        return raw / peak

    def select_parameters(
        self,
        num_nodes: int,
        n_candidates: Sequence[float] = (10, 20, 30, 40, 50, 60, 70, 80),
        m_candidates: Sequence[float] = (2, 4, 6, 8, 10, 12),
    ) -> tuple[int, int]:
        """The ``(n, M)`` pair maximising the indicator — no pilot runs."""
        grid = self.score_grid(n_candidates, m_candidates, num_nodes)
        n_index, m_index = np.unravel_index(int(np.argmax(grid)), grid.shape)
        return int(n_candidates[n_index]), int(m_candidates[m_index])

    def optimal_n(self, num_nodes: int) -> float:
        """Analytic peak of the ``n`` trend: ``(β_n − 1) ψ_n`` (Eq. 46)."""
        return max(self.beta_n(num_nodes) - 1.0, 0.0) * self.parameters.psi_n

    def optimal_m(self, num_nodes: int) -> float:
        """Analytic peak of the ``M`` trend: ``(β_M − 1) ψ_M``."""
        return max(self.beta_m(num_nodes) - 1.0, 0.0) * self.parameters.psi_m


#: Indicator with the paper's published constants.
DEFAULT_INDICATOR = Indicator()


def _least_squares_affine(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Closed-form simple linear regression ``y ≈ k·x + b`` (Eq. 48–49)."""
    count = len(xs)
    denominator = count * np.sum(xs**2) - np.sum(xs) ** 2
    if abs(denominator) < 1e-12:
        raise ExperimentError("pilot datasets must have distinct sizes to fit the indicator")
    k = (count * np.sum(xs * ys) - np.sum(xs) * np.sum(ys)) / denominator
    b = (np.sum(ys) - k * np.sum(xs)) / count
    return float(k), float(b)


def fit_indicator(
    pilot_observations: Sequence[tuple[int, float, float]],
    *,
    psi_n: float = 25.0,
    psi_m: float = 5.0,
) -> Indicator:
    """Fit Eq. 12's constants from pilot runs (Appendix H).

    Args:
        pilot_observations: tuples ``(num_nodes, best_n, best_M)`` — the
            empirically best parameters found on a few datasets.
        psi_n: fixed scale for the ``n`` trend.
        psi_m: fixed scale for the ``M`` trend.

    Returns:
        An :class:`Indicator` whose Gamma peaks ``(β − 1) ψ`` pass through
        the pilot optima in the least-squares sense.  Uses the peak
        condition ``n/ψ = β − 1 = k ln|V| + b − 1`` (Eq. 47).
    """
    if len(pilot_observations) < 2:
        raise ExperimentError("need at least two pilot observations")
    sizes = np.array([float(v) for v, _, _ in pilot_observations])
    best_n = np.array([float(n) for _, n, _ in pilot_observations])
    best_m = np.array([float(m) for _, _, m in pilot_observations])
    if np.any(sizes < 3):
        raise ExperimentError("pilot dataset sizes must be >= 3")

    # n trend: n/ψ_n + 1 = k_n ln|V| + b_n.
    k_n, b_n = _least_squares_affine(np.log(sizes), best_n / psi_n + 1.0)
    # M trend: M/ψ_M + 1 = k_M (1/ln|V|) + b_M.
    k_m, b_m = _least_squares_affine(1.0 / np.log(sizes), best_m / psi_m + 1.0)
    return Indicator(
        IndicatorParameters(psi_n=psi_n, psi_m=psi_m, k_n=k_n, b_n=b_n, k_m=k_m, b_m=b_m)
    )
