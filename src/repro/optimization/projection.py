"""Projection onto the bounded probability simplex (Algorithm 1).

Problem 4.1: given an arbitrary ``m x n`` matrix ``R``, a lower-bound vector
``z`` and a budget ``eps``, find the closest (Frobenius) matrix ``Q`` with

    1^T q_u = 1   and   z <= q_u <= e^eps z      for every column u.

Proposition 4.2 shows the solution decouples per column:

    q_u = clip(r_u + lambda_u, z, e^eps z)

with the scalar ``lambda_u`` chosen so the column sums to one.  The function
``f(lambda) = 1^T clip(r + lambda, lo, hi)`` is continuous, piecewise linear
and nondecreasing with 2m breakpoints ``{lo - r, hi - r}``.  The multiplier
is found by a bracketed Newton iteration on the monotone ``f``, vectorized
over all columns: each step solves the current affine segment exactly and
falls back to bisection whenever the Newton update leaves the bracket, so it
terminates on the crossing segment after a handful of ``O(m)`` passes.  The
rare columns that fail to settle within the iteration cap are re-solved
exactly by the paper's sort sweep (sort the breakpoints, then find the
crossing segment with running sums in ``O(m log m)`` per column).

:func:`project_columns_batch` projects several matrices against the *same*
bound vector in one fused call (the candidates of one line-search round
share ``z``), which is what the optimizer's batched candidate evaluation
rides on.

:class:`ProjectionState` additionally records which entries were clipped,
and :func:`projection_vjp` backpropagates a loss gradient through the
projection to the bound vector ``z`` — the chain-rule step Algorithm 2 needs
for its ``grad_z L`` update (its docstring states the rule per clipped set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import OptimizationError

#: Relative tolerance for classifying projected entries as clipped.
_CLIP_TOL = 1e-12

#: Column sums within this absolute tolerance of 1 count as solved for the
#: Newton multiplier iteration (the sort sweep's own rounding is comparable).
_NEWTON_TOL = 1e-12

#: Newton/bisection iteration cap before a column falls back to the sort
#: sweep.  Bisection halves the bracket every non-Newton step, so reaching
#: this cap without converging means a pathological column, not a slow one.
_NEWTON_MAX_ITERATIONS = 64


@dataclass(frozen=True)
class ProjectionState:
    """The output of a projection plus the clipping pattern.

    Attributes
    ----------
    matrix:
        The projected matrix ``Q``.
    multipliers:
        The per-column shifts ``lambda_u``.
    lower, upper:
        Boolean masks of entries clipped to ``z`` / ``e^eps z``.
    """

    matrix: np.ndarray
    multipliers: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def free(self) -> np.ndarray:
        """Mask of entries strictly inside the bounds.

        Examples
        --------
        >>> import numpy as np
        >>> state = project_columns(np.full((3, 2), 0.4), np.full(3, 0.1), 2.0)
        >>> bool(state.free.all())
        True
        """
        return ~(self.lower | self.upper)


def feasible_bounds(z: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(lo, hi)`` bounds for the constraint set.

    Raises
    ------
    OptimizationError
        If no column-stochastic matrix fits inside the bounds, i.e. when
        ``sum(z) > 1`` or ``e^eps sum(z) < 1`` (up to round-off slack).

    Examples
    --------
    >>> import numpy as np
    >>> lo, hi = feasible_bounds(np.full(4, 0.2), epsilon=1.0)
    >>> bool(np.allclose(hi, np.exp(1.0) * lo))
    True
    >>> feasible_bounds(np.full(4, 0.3), 1.0)  # sum(z) = 1.2 > 1
    Traceback (most recent call last):
        ...
    repro.exceptions.OptimizationError: infeasible bounds: sum(z) = 1.2 > 1
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise OptimizationError(f"z must be a vector, got shape {z.shape}")
    if z.min() < 0:
        raise OptimizationError(f"z must be non-negative, min is {z.min():.3e}")
    lo = z
    hi = np.exp(epsilon) * z
    total_lo, total_hi = lo.sum(), hi.sum()
    slack = 1e-9 * max(1.0, total_hi)
    if total_lo > 1.0 + slack:
        raise OptimizationError(
            f"infeasible bounds: sum(z) = {total_lo:.6g} > 1"
        )
    if total_hi < 1.0 - slack:
        raise OptimizationError(
            f"infeasible bounds: e^eps * sum(z) = {total_hi:.6g} < 1"
        )
    return lo, hi


def project_columns(
    matrix: np.ndarray,
    z: np.ndarray,
    epsilon: float,
    initial_multipliers: np.ndarray | None = None,
) -> ProjectionState:
    """Algorithm 1, vectorized over all columns.

    Parameters
    ----------
    matrix:
        Arbitrary ``(m, n)`` array ``R`` to project.
    z:
        Row lower bounds (length ``m``); the upper bounds are ``e^eps z``.
    epsilon:
        Privacy budget defining the bound ratio.
    initial_multipliers:
        Optional per-column warm start for the Newton solver; affects only
        the iteration count, never the result.

    Examples
    --------
    Projected columns sum to one and respect ``z <= q <= e^eps z``:

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> state = project_columns(rng.random((8, 3)), np.full(8, 0.1), 1.0)
    >>> bool(np.allclose(state.matrix.sum(axis=0), 1.0))
    True
    >>> bool((state.matrix >= 0.1 - 1e-12).all())
    True
    >>> bool((state.matrix <= 0.1 * np.exp(1.0) + 1e-12).all())
    True
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise OptimizationError(f"expected a 2-D matrix, got {matrix.ndim}-D")
    lo, hi = feasible_bounds(z, epsilon)
    num_rows = matrix.shape[0]
    if lo.shape != (num_rows,):
        raise OptimizationError(
            f"z has length {lo.shape[0]} but the matrix has {num_rows} rows"
        )
    if initial_multipliers is not None:
        initial_multipliers = np.asarray(initial_multipliers, dtype=float)
        if initial_multipliers.shape != (matrix.shape[1],):
            raise OptimizationError(
                f"initial multipliers length {initial_multipliers.shape} != "
                f"column count {matrix.shape[1]}"
            )

    multipliers = _newton_multipliers(matrix, lo, hi, initial_multipliers)
    return _clipped_state(matrix, multipliers, lo, hi)


def _clipped_state(
    matrix: np.ndarray, multipliers: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> ProjectionState:
    """The projection ``clip(r + lambda, lo, hi)`` and its clipping masks."""
    projected = np.clip(matrix + multipliers[None, :], lo[:, None], hi[:, None])

    gap = np.maximum(hi - lo, 0.0)[:, None]
    tol = _CLIP_TOL + _CLIP_TOL * gap
    lower = projected <= lo[:, None] + tol
    upper = projected >= hi[:, None] - tol
    # Degenerate rows (lo == hi) count as lower-clipped only.
    upper &= ~lower
    return ProjectionState(projected, multipliers, lower, upper)


def _crossing_multipliers(
    matrix: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per-column lambda solving ``1^T clip(r + lambda, lo, hi) = 1``."""
    num_rows, num_cols = matrix.shape
    breakpoints = np.concatenate(
        [lo[:, None] - matrix, hi[:, None] - matrix], axis=0
    )
    order = np.argsort(breakpoints, axis=0, kind="stable")
    sorted_breakpoints = np.take_along_axis(breakpoints, order, axis=0)

    entering = order < num_rows
    row_index = np.where(entering, order, order - num_rows)
    column_index = np.broadcast_to(np.arange(num_cols), order.shape)
    r_values = matrix[row_index, column_index]
    lo_values = lo[row_index]
    hi_values = hi[row_index]

    # Running state *after* each breakpoint: free-entry count, sum of free
    # r-values, and the total clipped mass.  Before any breakpoint every
    # entry sits at its lower bound.
    free_count = np.cumsum(np.where(entering, 1, -1), axis=0)
    free_r_sum = np.cumsum(np.where(entering, r_values, -r_values), axis=0)
    clipped_mass = lo.sum() + np.cumsum(
        np.where(entering, -lo_values, hi_values), axis=0
    )

    # Column sums evaluated exactly at each breakpoint (continuity lets us
    # use the post-breakpoint state).
    sums_at_breakpoints = (
        free_r_sum + free_count * sorted_breakpoints + clipped_mass
    )

    reached = sums_at_breakpoints >= 1.0
    if not reached[-1].all():
        worst = sums_at_breakpoints[-1].min()
        raise OptimizationError(
            f"projection infeasible: max attainable column sum {worst:.6g} < 1"
        )
    first = np.argmax(reached, axis=0)

    columns = np.arange(num_cols)
    multipliers = np.empty(num_cols)

    # Columns whose very first breakpoint already reaches a sum of 1 are
    # fully lower-clipped (requires sum(lo) >= 1, i.e. == 1 by feasibility).
    at_start = first == 0
    if at_start.any():
        multipliers[at_start] = sorted_breakpoints[0, at_start]

    interior = ~at_start
    if interior.any():
        segment = first[interior] - 1
        cols = columns[interior]
        count = free_count[segment, cols]
        residual = 1.0 - free_r_sum[segment, cols] - clipped_mass[segment, cols]
        with np.errstate(divide="ignore", invalid="ignore"):
            solved = residual / count
        # Zero slope means the sum is flat (and equal to 1) on the segment;
        # any lambda there works, take the left endpoint.
        flat = count == 0
        solved = np.where(flat, sorted_breakpoints[segment, cols], solved)
        multipliers[interior] = solved
    return multipliers


def _newton_multipliers(
    matrix: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Per-column lambda via safeguarded Newton on the monotone column sum.

    ``f(lambda) = 1^T clip(r + lambda, lo, hi)`` is piecewise linear and
    nondecreasing, so each Newton step — an exact solve of the current
    affine segment — either lands on the crossing segment (and terminates
    next pass) or is rejected by the bracket and replaced with a bisection
    step.  Every pass is ``O(m)`` per unsolved column, against the sort
    sweep's ``O(m log m)`` with a far heavier constant; solved columns are
    compacted away each pass, so stragglers iterate on narrow slices.

    ``initial`` warm-starts the iteration (clipped into the bracket): the
    optimizer's line-search candidates are small perturbations of an
    already-projected iterate, so its multipliers start Newton one or two
    segments from the answer.
    """
    num_rows, num_cols = matrix.shape
    multipliers = np.empty(num_cols)
    if num_cols == 0:
        return multipliers
    lo_col, hi_col = lo[:, None], hi[:, None]
    # Initial bracket: below every breakpoint the sum is sum(lo) <= 1, above
    # every breakpoint it is sum(hi) >= 1 (both by bound feasibility).
    low = (lo_col - matrix).min(axis=0)
    high = (hi_col - matrix).max(axis=0)
    if initial is None:
        # Newton init from the unclipped solve (exact when nothing clips).
        lam = (1.0 - matrix.sum(axis=0)) / num_rows
    else:
        lam = np.array(initial, dtype=float)
    np.clip(lam, low, high, out=lam)

    active = np.arange(num_cols)
    columns = matrix
    for _ in range(_NEWTON_MAX_ITERATIONS):
        shifted = columns + lam[None, :]
        clipped = np.minimum(shifted, hi_col)
        np.maximum(clipped, lo_col, out=clipped)
        residual = clipped.sum(axis=0)
        residual -= 1.0
        done = np.abs(residual) <= _NEWTON_TOL
        if done.any():
            multipliers[active[done]] = lam[done]
            keep = ~done
            if not keep.any():
                return multipliers
            active = active[keep]
            columns = matrix[:, active]
            shifted = np.ascontiguousarray(shifted[:, keep])
            lam, low, high = lam[keep], low[keep], high[keep]
            residual = residual[keep]
        free = shifted > lo_col
        free &= shifted < hi_col
        count = free.sum(axis=0)
        too_low = residual < 0.0
        np.copyto(low, lam, where=too_low)
        np.copyto(high, lam, where=~too_low)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = lam - residual / count
        inside = (count > 0) & (newton > low) & (newton < high)
        lam = np.where(inside, newton, 0.5 * (low + high))
    # Pathological stragglers (e.g. bounds right at the feasibility slack):
    # re-solve them with the exact sort-based sweep.
    multipliers[active] = _crossing_multipliers(columns, lo, hi)
    return multipliers


def project_columns_batch(
    matrices: list[np.ndarray],
    z: np.ndarray,
    epsilon: float,
    initial_multipliers: np.ndarray | None = None,
) -> list[ProjectionState]:
    """Project several same-shape matrices against one bound vector at once.

    The candidates of one line-search round all share ``z``, so their
    columns concatenate into a single wide projection — one solver pass over
    ``(m, K n)`` instead of ``K`` independent passes.  The result is one
    :class:`ProjectionState` per input, matching a standalone projection of
    that input to the ulp (the multiplier solve is per-column exact either
    way; only reduction blocking differs with the array width).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> z = np.full(8, 0.1)
    >>> raws = [rng.random((8, 3)) for _ in range(2)]
    >>> batch = project_columns_batch(raws, z, 1.0)
    >>> single = [project_columns(raw, z, 1.0) for raw in raws]
    >>> all(
    ...     np.allclose(b.matrix, s.matrix, atol=1e-12)
    ...     for b, s in zip(batch, single)
    ... )
    True
    """
    matrices = [np.asarray(matrix, dtype=float) for matrix in matrices]
    if not matrices:
        return []
    if len(matrices) == 1:
        return [
            project_columns(
                matrices[0], z, epsilon, initial_multipliers=initial_multipliers
            )
        ]
    shape = matrices[0].shape
    for matrix in matrices[1:]:
        if matrix.shape != shape:
            raise OptimizationError(
                f"batch shapes differ: {matrix.shape} != {shape}"
            )
    warm = None
    if initial_multipliers is not None:
        warm = np.tile(np.asarray(initial_multipliers, float), len(matrices))
    stacked = project_columns(
        np.hstack(matrices), z, epsilon, initial_multipliers=warm
    )
    num_cols = shape[1]
    states = []
    for index in range(len(matrices)):
        span = slice(index * num_cols, (index + 1) * num_cols)
        states.append(
            ProjectionState(
                np.ascontiguousarray(stacked.matrix[:, span]),
                stacked.multipliers[span].copy(),
                np.ascontiguousarray(stacked.lower[:, span]),
                np.ascontiguousarray(stacked.upper[:, span]),
            )
        )
    return states


def projection_vjp(
    grad_matrix: np.ndarray, state: ProjectionState, epsilon: float
) -> np.ndarray:
    """Vector-Jacobian product of the projection with respect to ``z``.

    Given the loss gradient ``G = dL/dQ`` at the projected point, returns
    ``dL/dz`` (length ``m``).  Per column with free set ``F``, lower set
    ``Lo`` and upper set ``Up``:

        dL/dz_l = (G_l - mean_F(G)) * 1        for l in Lo
        dL/dz_l = (G_l - mean_F(G)) * e^eps    for l in Up

    where ``mean_F(G) = (sum_{o in F} G_o) / |F|`` accounts for the shift in
    the multiplier ``lambda`` (zero when the free set is empty).

    Examples
    --------
    With every entry strictly inside the bounds nothing is clipped, so the
    projection is locally independent of ``z`` and the VJP vanishes:

    >>> import numpy as np
    >>> state = project_columns(np.full((3, 2), 1 / 3), np.full(3, 0.1), 2.0)
    >>> projection_vjp(np.ones((3, 2)), state, 2.0)
    array([0., 0., 0.])
    """
    grad_matrix = np.asarray(grad_matrix, dtype=float)
    if grad_matrix.shape != state.matrix.shape:
        raise OptimizationError(
            f"gradient shape {grad_matrix.shape} != projected shape "
            f"{state.matrix.shape}"
        )
    free = state.free
    free_counts = free.sum(axis=0)
    free_sums = np.where(free, grad_matrix, 0.0).sum(axis=0)
    adjustment = np.divide(
        free_sums,
        free_counts,
        out=np.zeros_like(free_sums),
        where=free_counts > 0,
    )
    centred = grad_matrix - adjustment[None, :]
    coefficients = state.lower * 1.0 + state.upper * np.exp(epsilon)
    return (centred * coefficients).sum(axis=1)
