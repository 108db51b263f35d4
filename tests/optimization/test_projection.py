"""Tests for Algorithm 1 (bounded-simplex projection) and its backprop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optimization import (
    feasible_bounds,
    initial_bounds,
    project_columns,
    project_columns_batch,
    projection_vjp,
)
from tests.optimization.reference import (
    project_column_bisection,
    project_columns_sorted,
)


def assert_feasible(matrix, z, epsilon, atol=1e-9):
    lo, hi = z, np.exp(epsilon) * z
    assert np.all(matrix >= lo[:, None] - atol)
    assert np.all(matrix <= hi[:, None] + atol)
    assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-8)


class TestFeasibleBounds:
    def test_valid(self):
        z = initial_bounds(8, 1.0)
        lo, hi = feasible_bounds(z, 1.0)
        assert np.array_equal(lo, z)
        assert np.allclose(hi, np.e * z)

    def test_rejects_negative_z(self):
        with pytest.raises(OptimizationError):
            feasible_bounds(np.array([-0.1, 0.5]), 1.0)

    def test_rejects_sum_above_one(self):
        with pytest.raises(OptimizationError):
            feasible_bounds(np.full(4, 0.3), 1.0)

    def test_rejects_unreachable_sum(self):
        with pytest.raises(OptimizationError):
            feasible_bounds(np.full(4, 0.01), 1.0)

    def test_rejects_non_vector(self):
        with pytest.raises(OptimizationError):
            feasible_bounds(np.ones((2, 2)) / 8, 1.0)


class TestProjectColumns:
    def test_feasible_point_is_fixed(self):
        epsilon = 1.0
        z = initial_bounds(12, epsilon)
        generator = np.random.default_rng(0)
        state = project_columns(generator.random((12, 4)), z, epsilon)
        again = project_columns(state.matrix, z, epsilon)
        assert np.allclose(state.matrix, again.matrix, atol=1e-10)

    def test_output_always_feasible(self):
        epsilon = 0.7
        z = initial_bounds(10, epsilon)
        generator = np.random.default_rng(1)
        state = project_columns(10 * generator.normal(size=(10, 6)), z, epsilon)
        assert_feasible(state.matrix, z, epsilon)

    def test_matches_bisection_reference(self):
        epsilon = 1.3
        z = initial_bounds(15, epsilon)
        generator = np.random.default_rng(2)
        raw = generator.normal(size=(15, 5))
        state = project_columns(raw, z, epsilon)
        for column in range(5):
            reference = project_column_bisection(raw[:, column], z, epsilon)
            assert np.allclose(state.matrix[:, column], reference, atol=1e-7)

    def test_heterogeneous_bounds(self):
        epsilon = 1.0
        generator = np.random.default_rng(3)
        z = generator.random(12) * 0.05
        z *= 0.8 / z.sum()  # sum(z) = 0.8 <= 1 <= e * 0.8
        raw = generator.normal(size=(12, 3))
        state = project_columns(raw, z, epsilon)
        assert_feasible(state.matrix, z, epsilon)
        for column in range(3):
            reference = project_column_bisection(raw[:, column], z, epsilon)
            assert np.allclose(state.matrix[:, column], reference, atol=1e-7)

    def test_zero_bound_rows_stay_zero(self):
        epsilon = 1.0
        z = np.array([0.0, 0.3, 0.3])
        raw = np.array([[5.0], [0.2], [0.1]])
        state = project_columns(raw, z, epsilon)
        assert state.matrix[0, 0] == 0.0
        assert np.isclose(state.matrix[:, 0].sum(), 1.0)

    def test_projection_is_closest_point(self):
        # Verify against a brute-force quadratic program on a tiny instance.
        import scipy.optimize

        epsilon = 1.0
        z = np.array([0.1, 0.15, 0.2])
        raw = np.array([0.9, -0.2, 0.35])
        state = project_columns(raw.reshape(3, 1), z, epsilon)
        result = scipy.optimize.minimize(
            lambda q: np.sum((q - raw) ** 2),
            np.full(3, 1 / 3),
            bounds=list(zip(z, np.e * z)),
            constraints={"type": "eq", "fun": lambda q: q.sum() - 1.0},
        )
        assert np.allclose(state.matrix[:, 0], result.x, atol=1e-6)

    def test_infeasible_raises(self):
        with pytest.raises(OptimizationError):
            project_columns(np.zeros((3, 2)), np.full(3, 0.01), 0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(OptimizationError):
            project_columns(np.zeros((3, 2)), initial_bounds(4, 1.0), 1.0)

    def test_masks_partition_entries(self):
        epsilon = 1.0
        z = initial_bounds(20, epsilon)
        state = project_columns(
            np.random.default_rng(4).normal(size=(20, 5)), z, epsilon
        )
        overlap = state.lower & state.upper
        assert not overlap.any()
        assert np.array_equal(state.free, ~(state.lower | state.upper))

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.1, max_value=4.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_feasibility_and_idempotence(self, rows, cols, epsilon, seed):
        z = initial_bounds(rows, epsilon)
        generator = np.random.default_rng(seed)
        raw = generator.normal(size=(rows, cols)) * generator.gamma(1.0)
        state = project_columns(raw, z, epsilon)
        assert_feasible(state.matrix, z, epsilon)
        again = project_columns(state.matrix, z, epsilon)
        assert np.allclose(state.matrix, again.matrix, atol=1e-8)


class TestNewtonVsSort:
    """The fast Newton multiplier solver must match the sort sweep exactly."""

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=4.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_methods_agree(self, rows, cols, epsilon, seed):
        z = initial_bounds(rows, epsilon)
        generator = np.random.default_rng(seed)
        raw = generator.normal(size=(rows, cols)) * generator.gamma(1.0)
        newton = project_columns(raw, z, epsilon)
        sort = project_columns_sorted(raw, z, epsilon)
        assert np.allclose(newton.matrix, sort.matrix, atol=1e-10)
        assert np.array_equal(newton.lower, sort.lower)
        assert np.array_equal(newton.upper, sort.upper)

    def test_heterogeneous_bounds_agree(self):
        generator = np.random.default_rng(6)
        z = generator.random(15) * 0.05
        z *= 0.7 / z.sum()
        raw = generator.normal(size=(15, 4)) * 3.0
        newton = project_columns(raw, z, 1.0)
        sort = project_columns_sorted(raw, z, 1.0)
        assert np.allclose(newton.matrix, sort.matrix, atol=1e-10)

    def test_fully_lower_clipped_column(self):
        # sum(z) == 1 forces every entry to its lower bound.
        z = np.full(5, 0.2)
        raw = np.random.default_rng(7).normal(size=(5, 3))
        newton = project_columns(raw, z, 1.0)
        sort = project_columns_sorted(raw, z, 1.0)
        assert np.allclose(newton.matrix, sort.matrix, atol=1e-12)
        assert np.allclose(newton.matrix, 0.2, atol=1e-9)

    def test_warm_start_changes_nothing(self):
        generator = np.random.default_rng(8)
        z = initial_bounds(20, 1.0)
        raw = generator.normal(size=(20, 6))
        cold = project_columns(raw, z, 1.0)
        warm = project_columns(
            raw,
            z,
            1.0,
            initial_multipliers=cold.multipliers + generator.normal(size=6),
        )
        assert np.allclose(cold.matrix, warm.matrix, atol=1e-10)

    def test_warm_start_length_checked(self):
        z = initial_bounds(6, 1.0)
        raw = np.random.default_rng(9).random((6, 3))
        with pytest.raises(OptimizationError):
            project_columns(raw, z, 1.0, initial_multipliers=np.zeros(4))


class TestProjectColumnsBatch:
    def test_batch_matches_single_calls(self):
        generator = np.random.default_rng(11)
        z = initial_bounds(16, 1.0)
        raws = [generator.normal(size=(16, 5)) for _ in range(3)]
        batch = project_columns_batch(raws, z, 1.0)
        for raw, state in zip(raws, batch):
            single = project_columns(raw, z, 1.0)
            # Reduction blocking differs with array width, so agreement is
            # to the ulp, not bit-exact.
            assert np.allclose(state.matrix, single.matrix, atol=1e-12)
            assert np.allclose(
                state.multipliers, single.multipliers, atol=1e-12
            )
            assert np.array_equal(state.lower, single.lower)
            assert np.array_equal(state.upper, single.upper)

    def test_empty_and_singleton_batches(self):
        z = initial_bounds(8, 1.0)
        assert project_columns_batch([], z, 1.0) == []
        raw = np.random.default_rng(12).random((8, 2))
        (state,) = project_columns_batch([raw], z, 1.0)
        assert np.array_equal(state.matrix, project_columns(raw, z, 1.0).matrix)

    def test_mismatched_shapes_rejected(self):
        z = initial_bounds(8, 1.0)
        generator = np.random.default_rng(13)
        with pytest.raises(OptimizationError):
            project_columns_batch(
                [generator.random((8, 2)), generator.random((8, 3))], z, 1.0
            )

    def test_batch_with_warm_start(self):
        generator = np.random.default_rng(14)
        z = initial_bounds(10, 1.0)
        raws = [generator.normal(size=(10, 4)) for _ in range(2)]
        seed_state = project_columns(raws[0], z, 1.0)
        batch = project_columns_batch(
            raws, z, 1.0, initial_multipliers=seed_state.multipliers
        )
        for raw, state in zip(raws, batch):
            assert np.allclose(
                state.matrix, project_columns(raw, z, 1.0).matrix, atol=1e-10
            )


class TestProjectionVjp:
    def test_finite_difference_check(self):
        # Perturb z, re-project the same raw point, compare to the VJP.
        epsilon = 1.0
        rows, cols = 12, 4
        generator = np.random.default_rng(5)
        z = initial_bounds(rows, epsilon) * (1 + 0.1 * generator.random(rows))
        raw = generator.normal(size=(rows, cols)) * 0.2 + 1.0 / rows
        state = project_columns(raw, z, epsilon)
        loss_gradient = generator.normal(size=(rows, cols))
        vjp = projection_vjp(loss_gradient, state, epsilon)
        step = 1e-7
        for index in range(rows):
            shifted = z.copy()
            shifted[index] += step
            plus = project_columns(raw, shifted, epsilon)
            shifted[index] -= 2 * step
            minus = project_columns(raw, shifted, epsilon)
            finite = np.sum(loss_gradient * (plus.matrix - minus.matrix)) / (2 * step)
            assert np.isclose(vjp[index], finite, rtol=1e-4, atol=1e-5)

    def test_shape_check(self):
        epsilon = 1.0
        state = project_columns(
            np.random.default_rng(0).random((6, 3)), initial_bounds(6, epsilon), epsilon
        )
        with pytest.raises(OptimizationError):
            projection_vjp(np.zeros((6, 4)), state, epsilon)

    def test_zero_gradient_gives_zero(self):
        epsilon = 1.0
        state = project_columns(
            np.random.default_rng(1).random((6, 3)), initial_bounds(6, epsilon), epsilon
        )
        assert np.array_equal(projection_vjp(np.zeros((6, 3)), state, epsilon), np.zeros(6))
