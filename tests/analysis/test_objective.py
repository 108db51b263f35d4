"""Tests for the strategy-only objective L(Q) (Theorem 3.11)."""

import numpy as np
import pytest

from repro.analysis import trace_objective
from repro.mechanisms import hadamard_response, hierarchical, randomized_response
from repro.optimization import objective_value
from repro.workloads import prefix


class TestStrategyObjective:
    @pytest.mark.parametrize("build", [randomized_response, hadamard_response, hierarchical])
    def test_equals_trace_objective_at_optimal_v(self, build):
        # Theorem 3.11 is Theorem 3.9 with the optimal V plugged in.
        workload = prefix(6)
        strategy = build(6, 1.0).probabilities
        assert np.isclose(
            objective_value(strategy, workload.gram()),
            trace_objective(strategy, workload.gram()),
            rtol=1e-9,
        )

    def test_rr_histogram_closed_form(self):
        # For RR, D = I and A = Q^T Q, so L(Q) = tr[(Q^T Q)^{-1}] has a
        # closed form through the eigenvalues of Q.
        size, epsilon = 6, 1.0
        strategy = randomized_response(size, epsilon).probabilities
        eigenvalues = np.linalg.eigvalsh(strategy.T @ strategy)
        assert np.isclose(
            objective_value(strategy, np.eye(size)), np.sum(1.0 / eigenvalues)
        )

    def test_scaling_with_workload(self):
        workload = prefix(5)
        strategy = randomized_response(5, 1.0).probabilities
        base = objective_value(strategy, workload.gram())
        assert np.isclose(objective_value(strategy, 4.0 * workload.gram()), 4 * base)

    def test_monotone_in_epsilon_for_rr(self):
        values = [
            objective_value(
                randomized_response(8, epsilon).probabilities, np.eye(8)
            )
            for epsilon in (0.5, 1.0, 2.0, 4.0)
        ]
        assert values == sorted(values, reverse=True)
