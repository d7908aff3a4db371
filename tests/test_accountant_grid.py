"""The vectorised Theorem 3 accountant against its scalar oracle.

:func:`repro.dp.accountant.step_rdp_grid` evaluates every Rényi order in
one array operation on ``math.lgamma`` and a numpy log-sum-exp; the oracle
in :mod:`tests.oracles` evaluates one order at a time on scipy's
``gammaln``/``logsumexp``.  The two round differently, so values agree to
~1e-10 relative rather than bit for bit, while the calibrated σ — a
sequence of ``ε > target`` decisions — is bit-equal on the configurations
below.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dp.accountant import (
    PrivacyAccountant,
    calibrate_sigma,
    privim_step_rdp,
    step_rdp_grid,
)
from repro.dp.rdp import DEFAULT_ALPHAS, best_epsilon_grid
from repro.errors import PrivacyError
from repro.obs.ledger import PrivacyLedger
from tests.oracles import (
    scalar_best_epsilon,
    scalar_calibrate_sigma,
    scalar_step_rdp,
)

ALPHAS = np.asarray(DEFAULT_ALPHAS)


@st.composite
def accountant_configs(draw, max_subgraphs, max_occurrences, max_sigma):
    """``(B, m, N_g, σ)`` covering N_g < m, N_g ≥ m (every batch touched)
    and N_g > B (the tail folded onto min(N_g, B))."""
    batch = draw(st.integers(1, 64))
    pool = draw(st.integers(batch, max(batch, max_subgraphs)))
    cap = draw(st.one_of(st.integers(1, max_occurrences), st.integers(pool, pool + 2000)))
    sigma = draw(st.floats(0.3, max_sigma))
    return batch, pool, cap, sigma


def _oracle_gammas(sigma, batch, pool, cap):
    return np.array([scalar_step_rdp(a, sigma, batch, pool, cap) for a in DEFAULT_ALPHAS])


class TestGridAgainstScalarOracle:
    @settings(deadline=None, max_examples=30)
    @given(config=accountant_configs(300, 32, 2.0), steps=st.integers(1, 1000))
    @example(config=(8, 260, 4, 1.5), steps=200)
    @example(config=(8, 9, 40, 0.8), steps=10)  # N_g >= m and N_g > B
    @example(config=(4, 100, 9, 0.5), steps=50)  # N_g > B < m: tail folded
    def test_per_order_gamma_and_epsilon_match(self, config, steps):
        batch, pool, cap, sigma = config
        expected = _oracle_gammas(sigma, batch, pool, cap)
        gammas = step_rdp_grid(DEFAULT_ALPHAS, sigma, batch, pool, cap)
        np.testing.assert_allclose(gammas, expected, rtol=1e-9, atol=0)

        accountant = PrivacyAccountant(sigma, batch, pool, cap)
        accountant.step(steps)
        oracle_epsilon, _ = scalar_best_epsilon(expected, steps, 1e-5)
        assert accountant.epsilon(1e-5) == pytest.approx(oracle_epsilon, rel=1e-9, abs=0)

    @settings(deadline=None, max_examples=20)
    @given(config=accountant_configs(5000, 2000, 50.0), steps=st.integers(1, 1000))
    def test_tiny_gamma_error_stays_at_the_rounding_floor(self, config, steps):
        """Large σ or a small touch probability leaves ``γ(α−1)`` close to 0.

        Both evaluations build ``log ρ_i`` from log-factorials up to
        ``log B!``, each rounded to about an ulp, so ``log Σ ρ_i e^{…}``
        carries an absolute error of order ``ε_mach · log B!`` that no
        evaluation order removes.  Where ``γ(α−1)`` is that small, relative
        agreement of γ is bounded by this floor instead of 1e-9; ε, which
        adds the Theorem 1 terms, still agrees within 1e-9.
        """
        batch, pool, cap, sigma = config
        expected = _oracle_gammas(sigma, batch, pool, cap)
        gammas = step_rdp_grid(DEFAULT_ALPHAS, sigma, batch, pool, cap)
        floor = 1e-15 * (1.0 + math.lgamma(batch + 1.0)) / (ALPHAS - 1.0)
        assert np.all(np.abs(gammas - expected) <= np.maximum(1e-9 * expected, floor))

        accountant = PrivacyAccountant(sigma, batch, pool, cap)
        accountant.step(steps)
        oracle_epsilon, _ = scalar_best_epsilon(expected, steps, 1e-5)
        assert accountant.epsilon(1e-5) == pytest.approx(oracle_epsilon, rel=1e-9, abs=0)

    def test_one_order_wrapper_is_the_grid_element(self):
        gammas = step_rdp_grid(DEFAULT_ALPHAS, 1.3, 8, 260, 4)
        for index in (0, 50, 154):
            assert privim_step_rdp(DEFAULT_ALPHAS[index], 1.3, 8, 260, 4) == gammas[index]

    def test_accountant_rdp_reads_the_grid(self):
        accountant = PrivacyAccountant(1.3, 8, 260, 4)
        accountant.step(7)
        grid = accountant.rdp_grid()
        assert accountant.rdp(DEFAULT_ALPHAS[3]) == grid[3]
        # An order off the grid is evaluated on its own.
        assert accountant.rdp(3.33) == pytest.approx(
            7 * scalar_step_rdp(3.33, 1.3, 8, 260, 4), rel=1e-9)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            step_rdp_grid([2.0, 1.0], 1.0, 8, 100, 4)
        with pytest.raises(PrivacyError):
            step_rdp_grid([2.0], -1.0, 8, 100, 4)
        with pytest.raises(PrivacyError):
            step_rdp_grid([2.0], 1.0, 8, 100, 0)
        with pytest.raises(PrivacyError):
            step_rdp_grid([2.0], 1.0, 0, 100, 4)


class TestBestEpsilonGrid:
    def test_first_minimum_wins_a_tie(self):
        # A repeated order with the same γ is an exact tie; the scalar
        # search keeps the first order that attains the minimum.
        epsilon, index = best_epsilon_grid([4.0, 2.0, 2.0], [50.0, 1.0, 1.0], 1e-5)
        assert index == 1

    def test_non_finite_orders_are_skipped(self):
        epsilon, index = best_epsilon_grid([2.0, 3.0], [np.inf, 1.0], 1e-5)
        assert index == 1
        with pytest.raises(PrivacyError):
            best_epsilon_grid([2.0, 3.0], [np.inf, np.nan], 1e-5)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            best_epsilon_grid([2.0], [1.0], 0.0)
        with pytest.raises(PrivacyError):
            best_epsilon_grid([1.0], [1.0], 1e-5)
        with pytest.raises(PrivacyError):
            best_epsilon_grid([2.0], [-1.0], 1e-5)


class TestCalibrationAgainstScalarOracle:
    @pytest.mark.parametrize("batch,pool,cap,steps", [
        (8, 260, 4, 200),
        (8, 270, 4, 40),
        (8, 300, 1111, 40),
        (64, 1000, 4, 500),
        (8, 9, 4, 10),
    ])
    def test_sigma_is_bit_equal(self, batch, pool, cap, steps):
        delta = 1.0 / 4500
        sigma = calibrate_sigma(4.0, delta, steps, batch, pool, cap)
        assert sigma == scalar_calibrate_sigma(4.0, delta, steps, batch, pool, cap)

    @settings(deadline=None, max_examples=6)
    @given(config=accountant_configs(500, 16, 2.0), steps=st.integers(1, 300),
           target=st.floats(0.5, 8.0))
    def test_sigma_within_one_bisection_step(self, config, steps, target):
        """A midpoint whose ε lies within rounding of the target may go
        either way, so σ can differ by one step of the 1e-3 bisection."""
        batch, pool, cap, _ = config
        sigma = calibrate_sigma(target, 1e-5, steps, batch, pool, cap)
        expected = scalar_calibrate_sigma(target, 1e-5, steps, batch, pool, cap)
        assert expected / (1.0 + 1e-3) <= sigma <= expected * (1.0 + 1e-3)


class TestLedgerAgainstScalarOracle:
    @pytest.mark.parametrize("sigma,batch,pool,cap", [
        (1.5, 8, 260, 4),
        (0.9, 64, 1000, 4),
        (0.4, 8, 300, 1111),
    ])
    def test_best_alpha_of_every_step_matches(self, sigma, batch, pool, cap):
        delta = 1.0 / 4500
        accountant = PrivacyAccountant(sigma, batch, pool, cap)
        ledger = PrivacyLedger(delta)
        accountant.attach_ledger(ledger)
        accountant.step(200)
        step_gammas = _oracle_gammas(sigma, batch, pool, cap)
        for event in ledger.events:
            epsilon, alpha = scalar_best_epsilon(step_gammas, event["step"], delta)
            assert event["best_alpha"] == alpha
            assert event["epsilon"] == pytest.approx(epsilon, rel=1e-9)
        assert ledger.final_epsilon == accountant.epsilon(delta)
