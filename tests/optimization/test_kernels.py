"""Fast-vs-reference equivalence suite for the objective kernels.

The factorization-cached workspace must be numerically interchangeable
with the straight-line reference implementation: same values, same
gradients, same infeasibility verdicts, across priors and degenerate
strategies.  Tolerances here are deliberately tight (rtol 1e-9 or better)
— the fast path is a reimplementation of the same algebra, not an
approximation.
"""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimization import ObjectiveWorkspace, initial_bounds, project_columns
from repro.optimization.kernels import FastEngine
from repro.optimization.objective import objective_and_gradient, objective_value
from repro.workloads import histogram, parity, prefix
from tests.optimization.reference import (
    ReferenceEngine,
    reference_objective_and_gradient,
    reference_objective_value,
)

RTOL = 1e-9


def feasible(rows, cols, epsilon, seed):
    raw = np.random.default_rng(seed).random((rows, cols))
    return project_columns(raw, initial_bounds(rows, epsilon), epsilon).matrix


def weighted_prior(cols, seed):
    prior = np.random.default_rng(seed).random(cols)
    prior /= prior.sum()
    return cols * prior  # the w = n * prior convention of footnote 2


class TestFastMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workload", [histogram, prefix])
    def test_uniform_prior(self, seed, workload):
        cols = 3 + seed
        strategy = feasible(4 * cols, cols, 1.0, seed)
        gram = workload(cols).gram()
        fast_value, fast_gradient = objective_and_gradient(strategy, gram)
        ref_value, ref_gradient = reference_objective_and_gradient(
            strategy, gram
        )
        assert np.isclose(fast_value, ref_value, rtol=RTOL)
        assert np.allclose(fast_gradient, ref_gradient, rtol=RTOL, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_prior(self, seed):
        cols = 4 + seed
        strategy = feasible(3 * cols, cols, 0.8, seed)
        gram = prefix(cols).gram()
        weights = weighted_prior(cols, seed + 100)
        fast_value, fast_gradient = objective_and_gradient(
            strategy, gram, weights
        )
        ref_value, ref_gradient = reference_objective_and_gradient(
            strategy, gram, weights
        )
        assert np.isclose(fast_value, ref_value, rtol=RTOL)
        assert np.allclose(fast_gradient, ref_gradient, rtol=RTOL, atol=1e-12)

    def test_dead_row_strategy(self):
        # Rows with zero mass are dead outputs; both paths must zero them
        # out of D^-1 identically.
        strategy = feasible(12, 4, 1.0, seed=7)
        dead = np.vstack([strategy, np.zeros((3, 4))])
        dead = dead / dead.sum(axis=0)
        gram = histogram(4).gram()
        fast_value, fast_gradient = objective_and_gradient(dead, gram)
        ref_value, ref_gradient = reference_objective_and_gradient(dead, gram)
        assert np.isclose(fast_value, ref_value, rtol=RTOL)
        assert np.allclose(fast_gradient, ref_gradient, rtol=RTOL, atol=1e-12)

    def test_infeasible_overshoot_branch(self):
        # A rank-1 strategy cannot answer a full-rank workload: both paths
        # must report inf (the line-search overshoot signal), not a value.
        strategy = np.full((8, 4), 0.125)
        assert objective_value(strategy, np.eye(4)) == np.inf
        assert reference_objective_value(strategy, np.eye(4)) == np.inf
        fast_value, fast_gradient = objective_and_gradient(
            strategy, np.eye(4)
        )
        assert fast_value == np.inf and fast_gradient is None

    def test_low_rank_workload_feasible_on_eigh_fallback(self):
        # Parity(3,1) has rank 3 over n=8; a low-rank strategy stays
        # feasible, so the eigh fallback must return finite values that
        # match the reference.
        workload = parity(3, 1)
        gram = workload.gram()
        rng = np.random.default_rng(3)
        # Build a rank-deficient strategy whose range still covers the
        # workload: duplicate columns of a smaller feasible strategy.
        base = feasible(16, 8, 1.0, seed=3)
        fast_value = objective_value(base, gram)
        ref_value = reference_objective_value(base, gram)
        assert np.isclose(fast_value, ref_value, rtol=RTOL)
        # A genuinely singular core (duplicated output rows halved) keeps
        # the same objective; both paths agree on the fallback.
        doubled = np.vstack([base[:1] / 2, base[:1] / 2, base[1:]])
        assert np.isclose(
            objective_value(doubled, gram),
            reference_objective_value(doubled, gram),
            rtol=RTOL,
        )
        del rng

    def test_negative_row_sum_rejected_by_both(self):
        strategy = np.array([[-0.5, -0.5], [1.5, 1.5]])
        with pytest.raises(OptimizationError):
            objective_value(strategy, np.eye(2))
        with pytest.raises(OptimizationError):
            reference_objective_value(strategy, np.eye(2))


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(3))
    def test_fast_gradient_matches_central_differences(self, seed):
        rows, cols = 14, 4
        strategy = feasible(rows, cols, 1.0, seed)
        gram = prefix(cols).gram()
        workspace = ObjectiveWorkspace(gram, rows)
        _, gradient = workspace.value_and_gradient(strategy)
        generator = np.random.default_rng(seed + 1)
        step = 1e-6
        for _ in range(5):
            i = int(generator.integers(rows))
            j = int(generator.integers(cols))
            plus = strategy.copy()
            plus[i, j] += step
            minus = strategy.copy()
            minus[i, j] -= step
            finite = (
                workspace.value(plus) - workspace.value(minus)
            ) / (2 * step)
            assert np.isclose(gradient[i, j], finite, rtol=1e-3, atol=1e-5)

    def test_fast_gradient_with_weights_matches_central_differences(self):
        rows, cols = 12, 5
        strategy = feasible(rows, cols, 1.0, seed=9)
        gram = histogram(cols).gram()
        weights = weighted_prior(cols, 9)
        workspace = ObjectiveWorkspace(gram, rows, weights)
        _, gradient = workspace.value_and_gradient(strategy)
        step = 1e-6
        for i, j in ((0, 0), (5, 2), (11, 4)):
            plus = strategy.copy()
            plus[i, j] += step
            minus = strategy.copy()
            minus[i, j] -= step
            finite = (
                workspace.value(plus) - workspace.value(minus)
            ) / (2 * step)
            assert np.isclose(gradient[i, j], finite, rtol=1e-3, atol=1e-5)


class TestWorkspace:
    def test_reuse_has_no_state_leakage(self):
        # Evaluating A then B must give the same numbers as B alone: the
        # scratch buffers carry no information between evaluations.
        gram = prefix(5).gram()
        first = feasible(20, 5, 1.0, seed=0)
        second = feasible(20, 5, 1.0, seed=1)
        shared = ObjectiveWorkspace(gram, 20)
        shared.value_and_gradient(first)
        value_after, gradient_after = shared.value_and_gradient(second)
        fresh = ObjectiveWorkspace(gram, 20)
        value_fresh, gradient_fresh = fresh.value_and_gradient(second)
        assert value_after == value_fresh
        assert np.array_equal(gradient_after, gradient_fresh)

    def test_value_batch_matches_scalar(self):
        gram = histogram(4).gram()
        workspace = ObjectiveWorkspace(gram, 16)
        candidates = [feasible(16, 4, 1.0, seed) for seed in range(4)]
        batch = workspace.value_batch(candidates)
        singles = [workspace.value(candidate) for candidate in candidates]
        assert np.array_equal(batch, np.array(singles))

    def test_value_without_gram_factor_matches(self):
        gram = prefix(6).gram()
        strategy = feasible(24, 6, 1.0, seed=2)
        with_factor = ObjectiveWorkspace(gram, 24, factor_gram=True)
        without = ObjectiveWorkspace(gram, 24, factor_gram=False)
        assert np.isclose(
            with_factor.value(strategy), without.value(strategy), rtol=RTOL
        )
        value_a, gradient_a = with_factor.value_and_gradient(strategy)
        value_b, gradient_b = without.value_and_gradient(strategy)
        assert np.isclose(value_a, value_b, rtol=RTOL)
        assert np.allclose(gradient_a, gradient_b, rtol=RTOL, atol=1e-12)

    def test_shape_validation(self):
        workspace = ObjectiveWorkspace(np.eye(3), 6)
        with pytest.raises(OptimizationError):
            workspace.value(np.ones((5, 3)) / 5)
        with pytest.raises(OptimizationError):
            workspace.value(np.ones(3))
        with pytest.raises(OptimizationError):
            ObjectiveWorkspace(np.ones((2, 3)), 4)
        with pytest.raises(OptimizationError):
            ObjectiveWorkspace(np.eye(3), 0)
        with pytest.raises(OptimizationError):
            ObjectiveWorkspace(np.eye(3), 6, weights=np.ones(4))


class TestEngines:
    def test_engines_agree_on_values_and_projections(self):
        gram = prefix(4).gram()
        fast = FastEngine(gram, 16)
        reference = ReferenceEngine(gram, 16)
        strategy = feasible(16, 4, 1.0, seed=4)
        assert np.isclose(
            fast.value(strategy), reference.value(strategy), rtol=RTOL
        )
        raw = np.random.default_rng(0).random((16, 4))
        bounds = initial_bounds(16, 1.0)
        assert np.allclose(
            fast.project(raw, bounds, 1.0).matrix,
            reference.project(raw, bounds, 1.0).matrix,
            atol=1e-10,
        )

    def test_batch_apis_agree(self):
        gram = histogram(5).gram()
        fast = FastEngine(gram, 20)
        reference = ReferenceEngine(gram, 20)
        candidates = [feasible(20, 5, 1.0, seed) for seed in (1, 2, 3)]
        assert np.allclose(
            fast.value_batch(candidates),
            reference.value_batch(candidates),
            rtol=RTOL,
        )
        raws = [
            np.random.default_rng(seed).random((20, 5)) for seed in (1, 2)
        ]
        bounds = initial_bounds(20, 1.0)
        fast_states = fast.project_batch(raws, bounds, 1.0)
        reference_states = reference.project_batch(raws, bounds, 1.0)
        for fast_state, reference_state in zip(fast_states, reference_states):
            assert np.allclose(
                fast_state.matrix, reference_state.matrix, atol=1e-10
            )
