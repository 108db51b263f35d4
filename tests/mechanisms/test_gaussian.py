"""Tests for the Gaussian mechanism extension."""

import numpy as np
import pytest

from repro.exceptions import PrivacyViolationError, ProtocolError
from repro.mechanisms import DistributedMatrixMechanism, GaussianMechanism, gaussian_sigma
from repro.workloads import histogram, prefix


class TestSigma:
    def test_decreases_with_epsilon(self):
        assert gaussian_sigma(2.0) < gaussian_sigma(0.5)

    def test_increases_with_smaller_delta(self):
        assert gaussian_sigma(1.0, delta=1e-9) > gaussian_sigma(1.0, delta=1e-3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PrivacyViolationError):
            gaussian_sigma(0.0)
        with pytest.raises(PrivacyViolationError):
            gaussian_sigma(1.0, delta=1.5)


class TestGaussianMechanism:
    def test_per_user_variance_formula(self):
        mechanism = GaussianMechanism(delta=1e-6)
        workload = prefix(8)
        t = mechanism.per_user_variances(workload, 1.0)
        expected = gaussian_sigma(1.0, 1e-6) ** 2 * workload.frobenius_norm_squared()
        assert np.allclose(t, expected)

    def test_run_unbiased(self, rng):
        mechanism = GaussianMechanism()
        workload = histogram(4)
        x = np.array([40.0, 30.0, 20.0, 10.0])
        runs = 300
        estimates = np.mean(
            [mechanism.run(workload, x, 8.0, rng) for _ in range(runs)], axis=0
        )
        # Mean of `runs` draws with per-run sd sigma * sqrt(N); allow ~5 sds.
        tolerance = 5 * gaussian_sigma(8.0) * np.sqrt(x.sum() / runs)
        assert np.allclose(estimates, x, atol=tolerance)

    def test_dominated_by_l2_matrix_mechanism(self):
        # The claim the paper uses to omit Gaussian from its figures.
        gaussian = GaussianMechanism(delta=1e-6)
        l2 = DistributedMatrixMechanism(norm=2)
        workload = histogram(32)
        for epsilon in (0.5, 1.0, 2.0):
            assert l2.sample_complexity(workload, epsilon) < float("inf")
            # At equal eps the pure mechanism pays more noise per row, but the
            # Gaussian one is only (eps, delta)-private; compare at delta=1e-6.
            assert np.isfinite(gaussian.sample_complexity(workload, epsilon))


class TestAdditiveNoiseCounts:
    """Both additive-noise mechanisms size their noise by the user count,
    so a population that is not whole, non-negative counts has no noise
    scale: [-3, 1, 1, 1] sums to 0 users, which would release W x with no
    noise at all, and [2.5, 1.7, 0.9, 3.2] is no number of users."""

    @pytest.mark.parametrize(
        "mechanism",
        [
            GaussianMechanism(),
            DistributedMatrixMechanism(norm=1),
            DistributedMatrixMechanism(norm=2),
        ],
        ids=["gaussian", "matrix-l1", "matrix-l2"],
    )
    @pytest.mark.parametrize(
        "counts",
        [[-3.0, 1.0, 1.0, 1.0], [2.5, 1.7, 0.9, 3.2], [np.nan, 1.0, 1.0, 1.0]],
        ids=["negative", "fractional", "nan"],
    )
    def test_run_refuses_malformed_counts(self, rng, mechanism, counts):
        with pytest.raises(ProtocolError, match="counts"):
            mechanism.run(histogram(4), np.array(counts), 1.0, rng)
