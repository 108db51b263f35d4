"""Tests for the optimization objective and its analytic gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optimization import initial_bounds, project_columns
from repro.optimization.objective import objective_and_gradient, objective_value
from repro.workloads import histogram, prefix


def feasible(rows, cols, epsilon, seed):
    raw = np.random.default_rng(seed).random((rows, cols))
    return project_columns(raw, initial_bounds(rows, epsilon), epsilon).matrix


class TestObjectiveValue:
    def test_infeasible_rank_reports_infinity(self):
        # A rank-1 strategy cannot answer a full-rank workload.
        strategy = np.full((8, 4), 0.125)
        assert objective_value(strategy, np.eye(4)) == np.inf

    def test_shape_checks(self):
        with pytest.raises(OptimizationError):
            objective_value(np.ones(4), np.eye(2))
        with pytest.raises(OptimizationError):
            objective_value(np.full((4, 2), 0.25), np.eye(3))

    def test_negative_row_sum_rejected(self):
        strategy = np.array([[-0.5, -0.5], [1.5, 1.5]])
        with pytest.raises(OptimizationError):
            objective_value(strategy, np.eye(2))


class TestGradient:
    @settings(max_examples=10)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=6, max_value=20),
        st.floats(min_value=0.3, max_value=2.5),
        st.integers(min_value=0, max_value=1000),
    )
    def test_finite_differences(self, cols, rows, epsilon, seed):
        strategy = feasible(rows, cols, epsilon, seed)
        gram = prefix(cols).gram()
        value, gradient = objective_and_gradient(strategy, gram)
        generator = np.random.default_rng(seed + 1)
        step = 1e-6
        for _ in range(5):
            i = generator.integers(rows)
            j = generator.integers(cols)
            plus = strategy.copy()
            plus[i, j] += step
            minus = strategy.copy()
            minus[i, j] -= step
            finite = (objective_value(plus, gram) - objective_value(minus, gram)) / (
                2 * step
            )
            assert np.isclose(gradient[i, j], finite, rtol=1e-3, atol=1e-5)

    def test_gradient_zero_direction_on_scale_invariance(self):
        # L(Q) is invariant to duplicating an output row with half mass; the
        # gradient must agree along that direction (directional derivative 0).
        strategy = feasible(10, 3, 1.0, seed=3)
        gram = histogram(3).gram()
        doubled = np.vstack([strategy[:1] / 2, strategy[:1] / 2, strategy[1:]])
        assert np.isclose(
            objective_value(strategy, gram), objective_value(doubled, gram)
        )

    def test_value_and_gradient_consistent(self):
        strategy = feasible(12, 4, 1.0, seed=4)
        gram = prefix(4).gram()
        value, _ = objective_and_gradient(strategy, gram)
        assert np.isclose(value, objective_value(strategy, gram))
