"""Tests for the variance matrix and plug-in confidence intervals."""

import functools

import numpy as np
import pytest

from repro.analysis import per_user_variances, reconstruction_operator
from repro.exceptions import WorkloadError
from repro.mechanisms import hadamard_response, randomized_response
from repro.optimization import OptimizerConfig, optimize_strategy
from repro.postprocess import (
    per_query_variances,
    variance_matrix,
    workload_confidence_intervals,
)
from repro.workloads import (
    ExplicitWorkload,
    all_range,
    histogram,
    k_way_marginals,
    prefix,
)

WORKLOADS = {
    "Prefix-8": lambda: prefix(8),
    "Histogram-6": lambda: histogram(6),
    "3-Way Marginals k=5": lambda: k_way_marginals(5, way=3),
    "AllRange-8": lambda: all_range(8),
    "Explicit": lambda: ExplicitWorkload(
        np.random.default_rng(3).normal(size=(7, 8)), name="Explicit"
    ),
}
STRATEGIES = ("Randomized Response", "Hadamard", "Optimized")


@functools.lru_cache(maxsize=None)
def deployed(workload_name: str, strategy_name: str):
    """``(workload, strategy, operator)`` of one test mechanism."""
    workload = WORKLOADS[workload_name]()
    n = workload.domain_size
    if strategy_name == "Randomized Response":
        strategy = randomized_response(n, 1.0)
    elif strategy_name == "Hadamard":
        strategy = hadamard_response(n, 1.0)
    else:
        config = OptimizerConfig(num_iterations=30, seed=0)
        strategy = optimize_strategy(workload, 1.0, config).strategy
    return workload, strategy, reconstruction_operator(strategy.probabilities)


def two_product_variances(workload, strategy, operator, x):
    """Theorem 3.4 through ``V = W B`` and ``V Q``, rebuilt on every call."""
    reconstruction = workload.matrix @ operator
    second_moment = reconstruction**2 @ (strategy.probabilities @ x)
    first_moment_sq = (reconstruction @ strategy.probabilities) ** 2 @ x
    return second_moment - first_moment_sq


def assert_close(got, want):
    # Relative to the largest entry: queries a strategy answers exactly
    # have variance 0 up to round-off, which no per-entry tolerance fits.
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def intervals(workload, strategy, operator, y, **options):
    matrix = variance_matrix(workload, strategy, operator)
    return workload_confidence_intervals(workload, operator, matrix, y, **options)


@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
class TestVarianceMatrix:
    def test_matvec_matches_two_product_formula(self, workload_name, strategy_name):
        workload, strategy, operator = deployed(workload_name, strategy_name)
        rng = np.random.default_rng(0)
        x = rng.dirichlet(np.full(workload.domain_size, 0.5)) * 1e4
        matrix = variance_matrix(workload, strategy, operator)
        assert matrix.shape == (workload.num_queries, workload.domain_size)
        want = two_product_variances(workload, strategy, operator, x)
        assert_close(matrix @ x, want)

    def test_column_sums_are_per_user_variances(self, workload_name, strategy_name):
        workload, strategy, operator = deployed(workload_name, strategy_name)
        matrix = variance_matrix(workload, strategy, operator)
        gram = workload.gram()
        want = per_user_variances(strategy.probabilities, gram, operator)
        assert_close(matrix.sum(axis=0), want)


class TestPerQueryVariances:
    def test_sums_to_total_variance(self):
        # Summing per-query variances over queries must equal Theorem 3.4's
        # total variance.
        workload = prefix(5)
        strategy = randomized_response(5, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(workload, strategy, operator)
        x = np.array([10.0, 3.0, 0.0, 7.0, 5.0])
        per_query = per_query_variances(matrix, x)
        total = x @ per_user_variances(
            strategy.probabilities, workload.gram(), operator
        )
        assert np.isclose(per_query.sum(), total)

    def test_nonnegative(self):
        workload = histogram(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(workload, strategy, operator)
        variances = per_query_variances(matrix, np.array([5.0, 5.0, 5.0, 5.0]))
        assert (variances >= -1e-9).all()

    def test_rejects_negative_weights(self):
        workload = histogram(3)
        strategy = randomized_response(3, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(workload, strategy, operator)
        with pytest.raises(WorkloadError):
            per_query_variances(matrix, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(WorkloadError, match="shape"):
            per_query_variances(matrix, np.ones(4))

    def test_matrix_is_read_only(self):
        strategy = randomized_response(3, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(histogram(3), strategy, operator)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_matches_empirical_variance(self, rng):
        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(workload, strategy, operator)
        x = np.array([30.0, 20.0, 10.0, 40.0])
        predicted = per_query_variances(matrix, x)
        samples = np.array(
            [
                workload.matvec(operator @ strategy.sample_histogram(x, rng))
                for _ in range(600)
            ]
        )
        empirical = samples.var(axis=0)
        assert np.allclose(empirical, predicted, rtol=0.25)


class TestConfidenceIntervals:
    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999999])
    def test_structure(self, rng, confidence):
        import scipy.stats

        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        y = strategy.sample_histogram(np.full(4, 100.0), rng)
        result = intervals(workload, strategy, operator, y, confidence=confidence)
        assert (result.lower <= result.estimates).all()
        assert (result.estimates <= result.upper).all()
        assert result.confidence == confidence
        # scipy's normal quantile is the oracle for the stdlib one.  The two
        # differ by <= 8.5e-16 relative on (0, 1), and each side rounds
        # ``z * se`` and ``est ± z * se`` once, so the bounds agree to
        # (8.5e-16 + 4u) z se + 2u |est| with u = 2**-53: inside 8 eps.
        z = scipy.stats.norm.ppf(0.5 + confidence / 2.0)
        margin = z * result.standard_errors
        tolerance = 8 * np.finfo(float).eps * (np.abs(result.estimates) + margin)
        assert (np.abs(result.upper - (result.estimates + margin)) <= tolerance).all()
        assert (np.abs(result.lower - (result.estimates - margin)) <= tolerance).all()

    def test_wider_at_higher_confidence(self, rng):
        workload = histogram(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        y = strategy.sample_histogram(np.full(4, 50.0), rng)
        narrow = intervals(workload, strategy, operator, y, confidence=0.8)
        wide = intervals(workload, strategy, operator, y, confidence=0.99)
        assert (wide.upper - wide.lower > narrow.upper - narrow.lower).all()

    def test_rejects_bad_confidence(self, rng):
        workload = histogram(3)
        strategy = randomized_response(3, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        # 1 - 2**-53 passes ``< 1`` but ``0.5 + c / 2`` rounds to 1.0,
        # whose quantile is infinite: the bounds would be +-inf.
        for confidence in (0.0, 1.0, 1.5, -0.5, 1 - 2**-53, float("nan")):
            with pytest.raises(WorkloadError, match="confidence"):
                intervals(
                    workload, strategy, operator, np.ones(3), confidence=confidence
                )
        largest = 1 - 2**-52
        result = intervals(workload, strategy, operator, np.ones(3), confidence=largest)
        assert np.isfinite(result.upper).all() and np.isfinite(result.lower).all()

    def test_coverage_calibrated(self, rng):
        # Over repeated protocol runs, the 90% intervals should cover the
        # true answers ~90% of the time (per query).
        workload = prefix(4)
        strategy = randomized_response(4, 1.0)
        operator = reconstruction_operator(strategy.probabilities)
        matrix = variance_matrix(workload, strategy, operator)
        x = np.array([200.0, 150.0, 100.0, 50.0])
        truth = workload.matvec(x)
        covered = []
        for _ in range(300):
            y = strategy.sample_histogram(x, rng)
            result = workload_confidence_intervals(
                workload, operator, matrix, y, confidence=0.9
            )
            covered.append((result.lower <= truth) & (truth <= result.upper))
        coverage = np.mean(covered)
        assert 0.85 <= coverage <= 0.95

