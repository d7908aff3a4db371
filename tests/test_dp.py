"""Tests for the DP substrate: mechanisms, clipping, sensitivity, RDP."""

import numpy as np
import pytest

from repro.dp.accountant import (
    PrivacyAccountant,
    calibrate_sigma,
    poisson_subsampled_gaussian_rdp,
    privim_step_rdp,
)
from repro.dp.clipping import clip_to_norm, clipped_norm_bound
from repro.dp.mechanisms import (
    gaussian_noise,
    laplace_noise,
    symmetric_multivariate_laplace_noise,
)
from repro.dp.rdp import (
    DEFAULT_ALPHAS,
    best_epsilon,
    compose_rdp,
    gaussian_rdp,
    rdp_to_dp,
)
from repro.dp.sensitivity import (
    edge_level_sensitivity,
    max_occurrences_dual_stage,
    max_occurrences_naive,
    node_level_sensitivity,
)
from repro.errors import CalibrationError, PrivacyError


class TestMechanisms:
    def test_gaussian_scale(self):
        noise = gaussian_noise(2.0, 3.0, 200_000, rng=0)
        assert noise.std() == pytest.approx(6.0, rel=0.02)
        assert noise.mean() == pytest.approx(0.0, abs=0.05)

    def test_laplace_scale(self):
        noise = laplace_noise(2.0, 0.5, 200_000, rng=0)
        # Laplace(b): std = sqrt(2) b with b = sensitivity / epsilon = 4.
        assert noise.std() == pytest.approx(np.sqrt(2) * 4.0, rel=0.02)

    def test_laplace_example2_noise_overwhelms_gain(self):
        """The paper's Example 2: greedy IM noise at |V| = 2e5, eps = 1."""
        noise = laplace_noise(2e5, 1.0, 1000, rng=0)
        typical_gain = 1e3
        assert np.abs(noise).mean() > 10 * typical_gain

    def test_sml_variance_matches_scale(self):
        samples = np.concatenate(
            [
                symmetric_multivariate_laplace_noise(2.0, 100, rng=seed)
                for seed in range(3000)
            ]
        )
        # Var = E[W] * scale^2 = scale^2 for W ~ Exp(1).
        assert samples.std() == pytest.approx(2.0, rel=0.05)

    def test_sml_heavier_tail_than_gaussian(self):
        sml = np.concatenate(
            [
                symmetric_multivariate_laplace_noise(1.0, 100, rng=seed)
                for seed in range(2000)
            ]
        )
        gauss = gaussian_noise(1.0, 1.0, len(sml), rng=0)
        assert np.mean(np.abs(sml) > 3) > np.mean(np.abs(gauss) > 3)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            gaussian_noise(0.0, 1.0, 3)
        with pytest.raises(PrivacyError):
            laplace_noise(1.0, 0.0, 3)
        with pytest.raises(PrivacyError):
            symmetric_multivariate_laplace_noise(1.0, 0)


class TestClipping:
    def test_small_vectors_untouched(self):
        vector = np.array([0.3, 0.4])
        np.testing.assert_allclose(clip_to_norm(vector, 1.0), vector)

    def test_large_vectors_rescaled(self):
        vector = np.array([3.0, 4.0])
        clipped = clip_to_norm(vector, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped), vector / 5.0)

    def test_clipped_norm_bound(self, rng):
        vectors = [rng.normal(size=10) * scale for scale in (0.1, 5.0, 100.0)]
        assert clipped_norm_bound(vectors, 2.0) <= 2.0 + 1e-12

    def test_validation(self):
        with pytest.raises(PrivacyError):
            clip_to_norm(np.ones(3), 0.0)


class TestSensitivity:
    def test_lemma1_formula(self):
        assert max_occurrences_naive(10, 3) == 1111  # 1 + 10 + 100 + 1000
        assert max_occurrences_naive(2, 2) == 7
        assert max_occurrences_naive(1, 4) == 5
        assert max_occurrences_naive(5, 0) == 1

    def test_lemma1_matches_closed_form(self):
        for theta in (2, 3, 7):
            for r in (1, 2, 3, 4):
                assert max_occurrences_naive(theta, r) == (theta ** (r + 1) - 1) // (
                    theta - 1
                )

    def test_dual_stage_bound_is_threshold(self):
        assert max_occurrences_dual_stage(4) == 4

    def test_lemma2_sensitivity(self):
        assert node_level_sensitivity(1.0, 1111) == 1111.0
        assert node_level_sensitivity(0.5, 4) == 2.0

    def test_edge_level_is_same_form(self):
        assert edge_level_sensitivity(1.0, 4) == 4.0

    def test_validation(self):
        with pytest.raises(PrivacyError):
            max_occurrences_naive(0, 3)
        with pytest.raises(PrivacyError):
            max_occurrences_dual_stage(0)
        with pytest.raises(PrivacyError):
            node_level_sensitivity(-1.0, 4)


class TestRDP:
    def test_gaussian_rdp_formula(self):
        assert gaussian_rdp(2.0, 1.0) == pytest.approx(1.0)
        assert gaussian_rdp(8.0, 2.0) == pytest.approx(1.0)

    def test_composition_adds(self):
        assert compose_rdp([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_conversion_theorem1(self):
        # eps = gamma + log((a-1)/a) - (log(delta) + log(a)) / (a - 1)
        epsilon = rdp_to_dp(2.0, 1.0, 1e-5)
        expected = 1.0 + np.log(0.5) - (np.log(1e-5) + np.log(2.0)) / 1.0
        assert epsilon == pytest.approx(expected)

    def test_conversion_monotone_in_gamma(self):
        assert rdp_to_dp(4.0, 2.0, 1e-5) > rdp_to_dp(4.0, 1.0, 1e-5)

    def test_best_epsilon_minimises(self):
        epsilon, alpha = best_epsilon(lambda a: gaussian_rdp(a, 2.0), 1e-5)
        grid_values = [
            rdp_to_dp(a, gaussian_rdp(a, 2.0), 1e-5) for a in DEFAULT_ALPHAS
        ]
        assert epsilon == pytest.approx(min(grid_values))
        assert alpha in DEFAULT_ALPHAS

    def test_validation(self):
        with pytest.raises(PrivacyError):
            gaussian_rdp(1.0, 1.0)
        with pytest.raises(PrivacyError):
            rdp_to_dp(2.0, 1.0, 0.0)
        with pytest.raises(PrivacyError):
            compose_rdp([-0.1])


class TestTheorem3Accountant:
    def test_more_noise_less_epsilon(self):
        epsilons = []
        for sigma in (0.5, 1.0, 2.0, 4.0):
            accountant = PrivacyAccountant(sigma, 8, 200, 4)
            accountant.step(50)
            epsilons.append(accountant.epsilon(1e-4))
        assert epsilons == sorted(epsilons, reverse=True)

    def test_epsilon_grows_with_steps(self):
        first = PrivacyAccountant(1.0, 8, 200, 4)
        first.step(10)
        second = PrivacyAccountant(1.0, 8, 200, 4)
        second.step(100)
        assert second.epsilon(1e-4) > first.epsilon(1e-4)

    def test_zero_steps_zero_epsilon(self):
        accountant = PrivacyAccountant(1.0, 8, 200, 4)
        assert accountant.epsilon(1e-4) == 0.0

    def test_rdp_is_linear_in_steps(self):
        accountant = PrivacyAccountant(1.0, 8, 200, 4)
        accountant.step(1)
        single = accountant.rdp(4.0)
        accountant.step(9)
        assert accountant.rdp(4.0) == pytest.approx(10 * single)

    def test_smaller_touch_probability_smaller_gamma(self):
        tight = privim_step_rdp(4.0, 1.0, 8, 1000, 4)
        loose = privim_step_rdp(4.0, 1.0, 8, 50, 4)
        assert tight < loose

    def test_degenerate_full_touch(self):
        # N_g >= m: every batch is fully touched.
        gamma = privim_step_rdp(4.0, 1.0, 8, 10, 50)
        expected = 4.0 * 8**2 / (2.0 * 50**2 * 1.0**2)
        assert gamma == pytest.approx(expected)

    def test_full_touch_boundary_finite_and_warning_free(self):
        """Regression: N_g == m gives touch probability exactly 1.

        The pmf helper used to evaluate ``0 · log(p)`` / ``0 · log1p(-1)``
        terms there, emitting RuntimeWarnings and NaN intermediates even
        under masking.  ε must come out finite with warnings-as-errors on.
        """
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accountant = PrivacyAccountant(
                sigma=1.0, batch_size=8, num_subgraphs=40, max_occurrences=40
            )
            accountant.step(5)
            epsilon = accountant.epsilon(1e-5)
        assert np.isfinite(epsilon)
        assert epsilon > 0

    def test_log_binomial_pmf_degenerate_probabilities(self):
        import warnings

        from repro.dp.accountant import _log_binomial_pmf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = _log_binomial_pmf(8, 0.0)
            at_one = _log_binomial_pmf(8, 1.0)
        # p = 0: point mass at i = 0.
        assert at_zero[0] == 0.0
        assert np.all(at_zero[1:] == -np.inf)
        # p = 1: point mass at i = trials.
        assert at_one[8] == 0.0
        assert np.all(at_one[:8] == -np.inf)
        # Interior probabilities still normalise: logsumexp(full pmf) == 0.
        full = _log_binomial_pmf(8, 0.3)
        assert np.log(np.sum(np.exp(full))) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(PrivacyError):
            _log_binomial_pmf(8, 1.5)

    def test_matches_brute_force_mixture(self):
        """Eq. 8 computed naively in float space for small parameters."""
        from scipy.special import comb

        alpha, sigma, batch, m, n_g = 3.0, 1.5, 4, 20, 3
        rho = [
            comb(batch, i) * (n_g / m) ** i * (1 - n_g / m) ** (batch - i)
            for i in range(batch + 1)
        ]
        terms = [
            rho[i] * np.exp(alpha * (alpha - 1) * min(i, n_g) ** 2 / (2 * n_g**2 * sigma**2))
            for i in range(batch + 1)
        ]
        expected = np.log(sum(terms)) / (alpha - 1)
        assert privim_step_rdp(alpha, sigma, batch, m, n_g) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            privim_step_rdp(1.0, 1.0, 8, 100, 4)
        with pytest.raises(PrivacyError):
            privim_step_rdp(2.0, 0.0, 8, 100, 4)
        with pytest.raises(PrivacyError):
            privim_step_rdp(2.0, 1.0, 200, 100, 4)


class TestPoissonAccountant:
    def test_matches_direct_formula(self):
        from scipy.special import comb

        alpha, sigma, q = 4, 2.0, 0.1
        total = sum(
            comb(alpha, k) * (1 - q) ** (alpha - k) * q**k * np.exp((k**2 - k) / (2 * sigma**2))
            for k in range(alpha + 1)
        )
        expected = np.log(total) / (alpha - 1)
        assert poisson_subsampled_gaussian_rdp(alpha, sigma, q) == pytest.approx(expected)

    def test_q_one_reduces_to_gaussian(self):
        gamma = poisson_subsampled_gaussian_rdp(8, 2.0, 1.0)
        assert gamma <= gaussian_rdp(8.0, 2.0) + 1e-9

    def test_validation(self):
        with pytest.raises(PrivacyError):
            poisson_subsampled_gaussian_rdp(1, 1.0, 0.1)
        with pytest.raises(PrivacyError):
            poisson_subsampled_gaussian_rdp(4, 1.0, 0.0)


class TestCalibration:
    def test_achieves_target(self):
        sigma = calibrate_sigma(3.0, 1e-4, steps=50, batch_size=8, num_subgraphs=200,
                                max_occurrences=4)
        accountant = PrivacyAccountant(sigma, 8, 200, 4)
        accountant.step(50)
        assert accountant.epsilon(1e-4) <= 3.0 + 1e-6

    def test_is_tight(self):
        sigma = calibrate_sigma(3.0, 1e-4, steps=50, batch_size=8, num_subgraphs=200,
                                max_occurrences=4)
        accountant = PrivacyAccountant(sigma * 0.98, 8, 200, 4)
        accountant.step(50)
        assert accountant.epsilon(1e-4) > 3.0

    def test_smaller_epsilon_more_noise(self):
        tight = calibrate_sigma(1.0, 1e-4, 50, 8, 200, 4)
        loose = calibrate_sigma(6.0, 1e-4, 50, 8, 200, 4)
        assert tight > loose

    def test_unreachable_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_sigma(1e-9, 1e-4, 1000, 8, 10, 8, sigma_high=2.0)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            calibrate_sigma(0.0, 1e-4, 50, 8, 200, 4)
        with pytest.raises(PrivacyError):
            calibrate_sigma(1.0, 1e-4, 0, 8, 200, 4)
