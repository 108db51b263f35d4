"""Test oracles for Algorithm 2: the straight-line objective and projection.

These are the implementations the optimizer's fast path replaced, kept
verbatim so the tests and ``benchmarks/bench_optimizer_hotpath.py`` can pin
the fast path against them:

* :func:`reference_objective_value` / :func:`reference_objective_and_gradient`
  evaluate ``L(Q)`` through an unconditional eigenvalue pseudo-inverse with
  a dense residual-map feasibility check;
* :func:`project_columns_sorted` runs Algorithm 1 by the paper's sort sweep
  alone, and :func:`project_column_bisection` solves one column by
  bisection;
* :class:`ReferenceEngine` puts the oracles behind the evaluator interface
  of :class:`repro.optimization.kernels.FastEngine`.  Run Algorithm 2 on it
  with ``monkeypatch.setattr(pgd, "FastEngine", ReferenceEngine)``;
* :func:`fixed_step_optimize` runs the paper's Algorithm 2 verbatim: a
  fixed Q step, picked by a geometric grid search when none is given
  (Section 4).  ``optimize_strategy`` backtracks the step instead; this
  loop is the baseline that choice is measured against
  (``benchmarks/bench_ablation_line_search.py``).

The package under ``src/`` never imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError
from repro.linalg import psd_pinv, symmetrize
from repro.linalg.blas import single_threaded
from repro.optimization import pgd, projection
from repro.optimization.projection import (
    ProjectionState,
    feasible_bounds,
    projection_vjp,
)

#: Row sums below this value are treated as dead outputs.
_ROW_SUM_FLOOR = 1e-300


def reference_objective_value(
    strategy: np.ndarray, gram: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """The straight-line ``L(Q)`` evaluation."""
    value, _ = _objective_core(strategy, gram, weights, with_gradient=False)
    return value


def reference_objective_and_gradient(
    strategy: np.ndarray, gram: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """The straight-line value+gradient evaluation."""
    return _objective_core(strategy, gram, weights, with_gradient=True)


def _objective_core(
    strategy: np.ndarray,
    gram: np.ndarray,
    weights: np.ndarray | None,
    with_gradient: bool,
) -> tuple[float, np.ndarray | None]:
    strategy = np.asarray(strategy, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if strategy.ndim != 2:
        raise OptimizationError(f"strategy must be 2-D, got {strategy.ndim}-D")
    if gram.shape != (strategy.shape[1], strategy.shape[1]):
        raise OptimizationError(
            f"gram shape {gram.shape} does not match domain size {strategy.shape[1]}"
        )
    if weights is None:
        row_sums = strategy.sum(axis=1)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (strategy.shape[1],):
            raise OptimizationError(
                f"weights shape {weights.shape} != domain size {strategy.shape[1]}"
            )
        row_sums = strategy @ weights
    if row_sums.min() < -_ROW_SUM_FLOOR:
        raise OptimizationError("strategy has a negative row sum")
    safe = np.maximum(row_sums, _ROW_SUM_FLOOR)
    live = row_sums > _ROW_SUM_FLOOR
    weighted = np.where(live[:, None], strategy / safe[:, None], 0.0)

    core = symmetrize(strategy.T @ weighted)
    core_pinv = psd_pinv(core)

    # The pseudo-inverse silently drops directions outside range(A); there
    # the true objective is infinite (the factorization constraint
    # W = W Q^+ Q fails).  Detect that and report inf so the descent loop
    # treats the step as an overshoot rather than a miraculous improvement.
    residual_map = np.eye(core.shape[0]) - core_pinv @ core
    gram_trace = float(np.trace(gram))
    infeasible_mass = float(np.einsum("ij,ik,kj->", residual_map, gram, residual_map))
    if infeasible_mass > 1e-9 * max(gram_trace, 1e-30):
        return np.inf, None

    value = float(np.sum(core_pinv * gram))

    if not with_gradient:
        return value, None

    sensitivity = symmetrize(-core_pinv @ gram @ core_pinv)
    weighted_sensitivity = weighted @ sensitivity
    diagonal = np.einsum("ou,ou->o", weighted_sensitivity, weighted)
    if weights is None:
        gradient = 2.0 * weighted_sensitivity - diagonal[:, None]
    else:
        gradient = 2.0 * weighted_sensitivity - np.outer(diagonal, weights)
    return value, gradient


def project_columns_sorted(
    matrix: np.ndarray, z: np.ndarray, epsilon: float
) -> ProjectionState:
    """Algorithm 1 by the sort sweep for every column (no Newton step)."""
    matrix = np.asarray(matrix, dtype=float)
    lo, hi = feasible_bounds(z, epsilon)
    multipliers = projection._crossing_multipliers(matrix, lo, hi)
    return projection._clipped_state(matrix, multipliers, lo, hi)


def project_column_bisection(
    column: np.ndarray,
    z: np.ndarray,
    epsilon: float,
    tol: float = 1e-14,
    max_iterations: int = 200,
) -> np.ndarray:
    """Algorithm 1 for a single column, by bisection on the monotone
    column-sum function."""
    column = np.asarray(column, dtype=float)
    lo, hi = feasible_bounds(z, epsilon)

    def column_sum(shift: float) -> float:
        return float(np.clip(column + shift, lo, hi).sum())

    low = float((lo - column).min()) - 1.0
    high = float((hi - column).max()) + 1.0
    if column_sum(high) < 1.0 - 1e-9:
        raise OptimizationError("projection infeasible: cannot reach sum 1")
    for _ in range(max_iterations):
        middle = 0.5 * (low + high)
        if column_sum(middle) < 1.0:
            low = middle
        else:
            high = middle
        if high - low < tol:
            break
    return np.clip(column + high, lo, hi)


class ReferenceEngine:
    """:class:`~repro.optimization.kernels.FastEngine`'s interface on the
    straight-line oracles above."""

    def __init__(
        self,
        gram: np.ndarray,
        num_outputs: int,
        weights: np.ndarray | None = None,
    ) -> None:
        self.gram = np.asarray(gram, dtype=float)
        self.weights = weights

    def value(self, strategy: np.ndarray) -> float:
        return reference_objective_value(strategy, self.gram, self.weights)

    def value_and_gradient(self, strategy: np.ndarray):
        return reference_objective_and_gradient(strategy, self.gram, self.weights)

    def value_batch(self, strategies) -> np.ndarray:
        return np.array([self.value(strategy) for strategy in strategies])

    def project(self, matrix, bounds, epsilon, initial_multipliers=None):
        # The sort sweep is direct; a warm start has nothing to seed.
        return project_columns_sorted(matrix, bounds, epsilon)

    def project_batch(self, matrices, bounds, epsilon, initial_multipliers=None):
        return [project_columns_sorted(matrix, bounds, epsilon) for matrix in matrices]


def _fixed_step_descend(
    evaluator,
    state: ProjectionState,
    bounds: np.ndarray,
    epsilon: float,
    step_size: float,
    num_iterations: int,
) -> tuple[float, int]:
    """The paper's fixed-step z and Q updates, with the optimizer's
    divergence guard and early stop; returns ``(best objective,
    iterations run)``."""
    best_value = np.inf
    best_state, best_bounds = state, bounds
    stall = 0
    iterations_run = 0
    for iteration in range(num_iterations):
        iterations_run = iteration + 1
        value, gradient = evaluator.value_and_gradient(state.matrix)
        if not np.isfinite(value):
            # Overshot into the infeasible/degenerate region: back off.
            state, bounds = best_state, best_bounds
            step_size *= 0.5
            continue
        if value < best_value * (1.0 - pgd._TOLERANCE):
            stall = 0
        else:
            stall += 1
            if stall >= pgd._PATIENCE:
                best_value = min(best_value, value)
                break
        if value < best_value:
            best_value, best_state, best_bounds = value, state, bounds
        z_scale = state.matrix.shape[1] * np.exp(epsilon)
        bound_gradient = projection_vjp(gradient, state, epsilon)
        bounds = pgd._repair_bounds(
            bounds - step_size / z_scale * bound_gradient, epsilon
        )
        state = evaluator.project(
            state.matrix - step_size * gradient,
            bounds,
            epsilon,
            initial_multipliers=state.multipliers,
        )
    if not np.isfinite(best_value):
        raise OptimizationError("optimization diverged from the first step")
    return float(best_value), iterations_run


@single_threaded()
def fixed_step_optimize(
    workload,
    epsilon: float,
    num_iterations: int,
    *,
    seed: int | None = None,
    step_size: float | None = None,
    search_points: int = 7,
    search_iterations: int = 25,
) -> tuple[float, int]:
    """Algorithm 2 with the paper's fixed step; returns ``(objective,
    iterations_run)``.

    Starts from ``pgd.initialize`` with m = 4n outputs.  Without a
    ``step_size``, each of ``search_points`` steps on the grid
    ``base * 10**linspace(-2, 1)`` (``base`` from ``pgd._base_step``) runs
    ``search_iterations`` iterations from that start, and the step with the
    lowest objective runs the main loop.  Evaluations go through
    ``pgd.FastEngine``, so ``monkeypatch.setattr(pgd, "FastEngine",
    ReferenceEngine)`` runs this loop on the reference engine too.
    """
    gram, domain_size = pgd._resolve_gram(workload)
    state, bounds = pgd.initialize(
        domain_size,
        pgd.DEFAULT_OUTPUT_FACTOR * domain_size,
        epsilon,
        np.random.default_rng(seed),
    )
    evaluator = pgd.FastEngine(gram, state.matrix.shape[0], None)
    if step_size is None:
        base = pgd._base_step(state, evaluator)
        step_size, best_value = base, np.inf
        for exponent in np.linspace(-2.0, 1.0, search_points):
            candidate = base * 10.0**exponent
            try:
                value, _ = _fixed_step_descend(
                    evaluator, state, bounds, epsilon, candidate, search_iterations
                )
            except OptimizationError:
                continue
            if value < best_value:
                step_size, best_value = candidate, value
    return _fixed_step_descend(
        evaluator, state, bounds, epsilon, step_size, num_iterations
    )
