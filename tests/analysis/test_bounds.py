"""Tests for the SVD lower bounds (Theorem 5.6, Corollary 5.7, Example 5.8)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    sample_complexity_lower_bound,
    strategy_objective_lower_bound,
    worst_case_variance_lower_bound,
)
from repro.mechanisms import (
    hadamard_response,
    hierarchical,
    randomized_response,
)
from repro.optimization import objective_value
from repro.workloads import all_range, histogram, parity, prefix


class TestTheorem56:
    @pytest.mark.parametrize(
        "workload", [histogram(8), prefix(8), all_range(8), parity(3, 3)]
    )
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_bound_holds_for_baselines(self, workload, epsilon):
        bound = strategy_objective_lower_bound(workload, epsilon)
        n = workload.domain_size
        for build in (randomized_response, hadamard_response, hierarchical):
            value = objective_value(build(n, epsilon).probabilities, workload.gram())
            assert value >= bound * (1 - 1e-9)

    @given(st.integers(min_value=0, max_value=30))
    def test_bound_holds_for_random_strategies(self, seed):
        from repro.optimization import initial_bounds, project_columns

        epsilon = 1.0
        workload = prefix(5)
        raw = np.random.default_rng(seed).random((20, 5))
        strategy = project_columns(raw, initial_bounds(20, epsilon), epsilon).matrix
        value = objective_value(strategy, workload.gram())
        assert value >= strategy_objective_lower_bound(workload, epsilon) * (1 - 1e-9)

    def test_histogram_closed_form(self):
        # For W = I the bound is n^2 / e^eps.
        workload = histogram(16)
        assert np.isclose(
            strategy_objective_lower_bound(workload, 1.0), 256 / np.e
        )

    def test_bound_decreases_with_epsilon(self):
        workload = prefix(8)
        assert strategy_objective_lower_bound(
            workload, 2.0
        ) < strategy_objective_lower_bound(workload, 1.0)


class TestCorollary57:
    def test_worst_case_bound_below_realized(self):
        from repro.analysis import worst_case_variance

        workload = prefix(8)
        epsilon = 1.0
        bound = worst_case_variance_lower_bound(workload, epsilon)
        realized = worst_case_variance(
            randomized_response(8, epsilon).probabilities, workload.gram()
        )
        assert bound <= realized

    def test_can_be_vacuous_at_large_epsilon(self):
        assert worst_case_variance_lower_bound(histogram(8), 10.0) < 0


class TestExample58:
    @pytest.mark.parametrize("size", [8, 64, 512])
    def test_histogram_sample_complexity_bound(self, size):
        # (1/alpha)(e^-eps - 1/n).
        epsilon, alpha = 1.0, 0.01
        expected = max(0.0, (np.exp(-epsilon) - 1.0 / size) / alpha)
        assert np.isclose(
            sample_complexity_lower_bound(histogram(size), epsilon, alpha), expected
        )

    def test_weak_dependence_on_domain_size(self):
        # The observation motivating Section 6.3's Histogram panel.
        small = sample_complexity_lower_bound(histogram(64), 1.0)
        large = sample_complexity_lower_bound(histogram(1024), 1.0)
        assert large / small < 1.05

    def test_clipped_at_zero(self):
        assert sample_complexity_lower_bound(histogram(8), 10.0) == 0.0


class TestHardnessOrdering:
    def test_parity_harder_than_histogram(self):
        # Section 6.2: hardness is characterized by singular values; Parity's
        # bound is far above Histogram's per query.
        epsilon = 1.0
        histogram_bound = sample_complexity_lower_bound(histogram(32), epsilon)
        parity_bound = sample_complexity_lower_bound(parity(5, 3), epsilon)
        assert parity_bound > histogram_bound
