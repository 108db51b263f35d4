"""Projected gradient descent for strategy optimization (Algorithm 2).

Each iteration performs the paper's two coupled updates:

    z <- clip(z - alpha * grad_z L(Q), 0, 1)
    Q <- Pi_{z, eps}(Q - beta * grad_Q L(Q))

where ``grad_z`` is obtained by backpropagating through the previous
projection (the multi-variate chain rule noted in Section 4) and
``alpha = beta / (n e^eps)`` is the paper's smaller z step.  The
factorization constraint ``W = W Q^+ Q`` is handled "for free": the
objective blows up near the constraint boundary, so descent directions never
cross it as long as steps are modest; a divergence guard halves the step and
restores the best iterate if a step does overshoot.

The paper's initialization is used verbatim: ``R ~ U[0,1]^{m x n}`` with
``m = 4n`` by default and ``z = (1 + e^-eps) / (2m)`` (their
``(1 + e^-eps) / 8n`` for ``m = 4n``), projected onto the constraint set.
The paper picks a fixed step by grid search (Section 4); here the Q step
backtracks from a scale heuristic instead, so no step is ever searched or
configured.  The paper's fixed-step loop and its grid search are kept as
the test oracle ``fixed_step_optimize`` in ``tests/optimization/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro.exceptions import OptimizationError
from repro.linalg.blas import single_threaded
from repro.mechanisms.base import StrategyMatrix
from repro.optimization.kernels import FastEngine
from repro.optimization.projection import (
    ProjectionState,
    project_columns,
    projection_vjp,
)
from repro.telemetry import get_registry
from repro.workloads.base import Workload

#: Default ratio of strategy outputs to domain size (the paper's m = 4n).
DEFAULT_OUTPUT_FACTOR = 4

#: Candidate counts per backtracking round: the first probe runs alone (it
#: is usually accepted outright, so speculation would only waste a full
#: evaluation), later rounds batch geometrically through the engine's
#: shared buffers.  The total is the 40-attempt cap of the original
#: sequential loop, and the candidate sequence — each step half the
#: previous — is identical to it.
_LINE_SEARCH_BATCHES = (1, 2, 4, 8, 8, 8, 9)

#: Factor by which the line search grows the step after accepting one.
_STEP_GROWTH = 1.25

#: Stop early once the relative objective improvement stays below
#: ``_TOLERANCE`` for ``_PATIENCE`` consecutive iterations.
_TOLERANCE = 1e-10
_PATIENCE = 100


@dataclass
class OptimizerConfig:
    """Tunable knobs of Algorithm 2.

    Attributes
    ----------
    num_iterations:
        Gradient steps for the main run.
    num_outputs:
        Number of strategy rows ``m``; defaults to ``4n``.
    seed:
        Seed for the random initialization.
    track_history:
        Record the objective value at every iteration.
    initial_strategy:
        Warm-start from this eps-LDP strategy instead of a random draw.
    prior:
        Prior over the domain for the weighted objective (footnote 2).

    Examples
    --------
    >>> config = OptimizerConfig(num_iterations=100, seed=0)
    >>> config.num_outputs is None  # defaults to 4n at optimization time
    True
    """

    num_iterations: int = 500
    num_outputs: int | None = None
    seed: int | None = None
    track_history: bool = False
    initial_strategy: np.ndarray | None = None
    prior: np.ndarray | None = None


@dataclass
class OptimizationResult:
    """Outcome of a strategy optimization run.

    Examples
    --------
    >>> from repro.workloads import histogram
    >>> result = optimize_strategy(
    ...     histogram(4), 1.0, OptimizerConfig(num_iterations=30, seed=0)
    ... )
    >>> result.strategy.shape
    (16, 4)
    >>> result.objective > 0 and result.iterations_run <= 30
    True
    """

    strategy: StrategyMatrix
    bounds: np.ndarray
    objective: float
    step_size: float
    iterations_run: int
    history: list[float] = field(default_factory=list)
    #: Per-run driver telemetry: ``iterations``, ``line_search_attempts``
    #: (candidate step sizes probed), and ``projection_passes`` (calls into
    #: the dual projection).  Purely observational — never feeds back into
    #: the optimization.
    telemetry: dict = field(default_factory=dict)


def initial_bounds(num_outputs: int, epsilon: float) -> np.ndarray:
    """The paper's initial ``z = (1 + e^-eps) / (2m) * 1``.

    Examples
    --------
    >>> import numpy as np
    >>> z = initial_bounds(8, 1.0)
    >>> bool(np.isclose(z[0], (1 + np.exp(-1.0)) / 16))
    True
    """
    return np.full(num_outputs, (1.0 + np.exp(-epsilon)) / (2.0 * num_outputs))


def initialize(
    domain_size: int,
    num_outputs: int,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[ProjectionState, np.ndarray]:
    """Random uniform initialization projected onto the constraint set.

    Examples
    --------
    >>> import numpy as np
    >>> state, bounds = initialize(4, 16, 1.0, np.random.default_rng(0))
    >>> state.matrix.shape, bounds.shape
    ((16, 4), (16,))
    >>> bool(np.allclose(state.matrix.sum(axis=0), 1.0))
    True
    """
    raw = rng.random((num_outputs, domain_size))
    bounds = initial_bounds(num_outputs, epsilon)
    return project_columns(raw, bounds, epsilon), bounds


def warm_start(
    strategy: np.ndarray, epsilon: float
) -> tuple[ProjectionState, np.ndarray]:
    """Start Algorithm 2 from an existing eps-LDP strategy (Section 4's
    "initialize with the strategy matrix from an existing mechanism").

    The corridor is derived from the strategy's own row ranges,
    ``z_o = max(min_u Q[o,u], max_u Q[o,u] / e^eps)``.  A small uniform
    mixing (1e-3) is applied first: strategies whose entries take exactly
    two values with ratio ``e^eps`` (RR, Hadamard, ...) otherwise start with
    every entry pinned to a corridor bound and zero room to move.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> rr = randomized_response(4, 1.0)
    >>> state, bounds = warm_start(rr.probabilities, 1.0)
    >>> state.matrix.shape
    (4, 4)
    >>> bool(np.allclose(state.matrix.sum(axis=0), 1.0))
    True
    """
    strategy = np.asarray(strategy, dtype=float)
    slack = 1e-3
    strategy = (1.0 - slack) * strategy + slack / strategy.shape[0]
    row_min = strategy.min(axis=1)
    row_max = strategy.max(axis=1)
    bounds = _repair_bounds(np.maximum(row_min, row_max * np.exp(-epsilon)), epsilon)
    return project_columns(strategy, bounds, epsilon), bounds


def _repair_bounds(bounds: np.ndarray, epsilon: float) -> np.ndarray:
    """Keep ``z`` inside the feasible region of the projection.

    Algorithm 2 only clips ``z`` to ``[0, 1]``; the rescalings below are a
    numerical safeguard ensuring ``sum(z) <= 1 <= e^eps sum(z)`` so that the
    next projection always has a solution.
    """
    bounds = np.clip(bounds, 0.0, 1.0)
    total = bounds.sum()
    if total <= 0.0:
        # z collapsed entirely; restart it from the paper's initial value.
        return initial_bounds(bounds.shape[0], epsilon)
    if total > 1.0:
        bounds = bounds * ((1.0 - 1e-9) / total)
        total = bounds.sum()
    if np.exp(epsilon) * total < 1.0:
        bounds = bounds * ((1.0 + 1e-9) / (np.exp(epsilon) * total))
    return bounds


def check_config(config: OptimizerConfig, epsilon: float) -> None:
    """Refuse a budget or config Algorithm 2 cannot run, naming the field.

    Examples
    --------
    >>> check_config(OptimizerConfig(num_iterations=0), 1.0)
    Traceback (most recent call last):
        ...
    repro.exceptions.OptimizationError: num_iterations must be an integer >= 1, got 0
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise OptimizationError(f"epsilon must be finite and positive, got {epsilon}")
    for name in ("num_iterations", "num_outputs"):
        value = getattr(config, name)
        if value is not None and (not isinstance(value, Integral) or value < 1):
            raise OptimizationError(f"{name} must be an integer >= 1, got {value!r}")


def _resolve_gram(workload: Workload | np.ndarray) -> tuple[np.ndarray, int]:
    if isinstance(workload, Workload):
        gram = workload.gram()
    else:
        gram = np.asarray(workload, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise OptimizationError(
                f"expected a Workload or square Gram matrix, got shape {gram.shape}"
            )
    return gram, gram.shape[0]


def _descend(
    evaluator: FastEngine,
    state: ProjectionState,
    bounds: np.ndarray,
    epsilon: float,
    step_size: float,
    num_iterations: int,
    history: list[float] | None,
    stats: dict | None = None,
) -> tuple[ProjectionState, np.ndarray, float, int]:
    """Run PGD from a starting point; returns the best iterate found.

    The Q step backtracks until it satisfies the projected-gradient
    sufficient-decrease condition

        f(Q+) <= f(Q) - (c / beta) ||Q+ - Q||_F^2,   c = 1e-4,

    and grows by ``_STEP_GROWTH`` after each accepted step — Algorithm 2
    with an automatic step size instead of a fixed hyper-parameter.

    All objective evaluations and projections go through ``evaluator`` (a
    :class:`~repro.optimization.kernels.FastEngine`); backtracking
    candidates and the corridor sweep are evaluated in batches through the
    engine's shared buffers.  The candidate sequence and acceptance rule
    are identical to the original sequential loop.
    """
    if stats is None:
        stats = {}
    stats.setdefault("iterations", 0)
    stats.setdefault("line_search_attempts", 0)
    stats.setdefault("projection_passes", 0)
    best_value = np.inf
    best_state, best_bounds = state, bounds
    stall = 0
    iterations_run = 0
    for iteration in range(num_iterations):
        iterations_run = iteration + 1
        stats["iterations"] += 1
        value, gradient = evaluator.value_and_gradient(state.matrix)
        if history is not None:
            history.append(value)
        if not np.isfinite(value):
            # Overshot into the infeasible/degenerate region: back off.
            state, bounds = best_state, best_bounds
            step_size *= 0.5
            continue
        if value < best_value * (1.0 - _TOLERANCE):
            stall = 0
        else:
            stall += 1
            if stall >= _PATIENCE:
                if value < best_value:
                    best_value, best_state, best_bounds = value, state, bounds
                break
        if value < best_value:
            best_value, best_state, best_bounds = value, state, bounds

        z_scale = state.matrix.shape[1] * np.exp(epsilon)

        # --- Q step: backtracking line search with z held fixed, batched
        # per round through the engine's shared buffers. ---
        accepted = None
        raw = state.matrix
        attempt = 0
        for batch_size in _LINE_SEARCH_BATCHES:
            steps = [step_size * 0.5**probe for probe in range(batch_size)]
            raws = [state.matrix - step * gradient for step in steps]
            stats["line_search_attempts"] += batch_size
            stats["projection_passes"] += batch_size
            candidates = evaluator.project_batch(
                raws, bounds, epsilon, initial_multipliers=state.multipliers
            )
            movements = [
                float(np.sum((candidate.matrix - state.matrix) ** 2))
                for candidate in candidates
            ]
            # A vanishing projected movement means Q is stationary at that
            # step size; candidates beyond it are never evaluated (the
            # sequential loop stopped there too).
            cut = batch_size
            for probe, movement in enumerate(movements):
                if movement <= 1e-30:
                    cut = probe
                    break
            values = evaluator.value_batch(
                [candidate.matrix for candidate in candidates[:cut]]
            )
            for probe in range(cut):
                sufficient = (
                    values[probe]
                    <= value - 1e-4 / steps[probe] * movements[probe]
                )
                if sufficient or (attempt + probe == 39 and values[probe] < value):
                    accepted = (candidates[probe], float(values[probe]))
                    step_size = steps[probe]
                    raw = raws[probe]
                    break
            if accepted is not None:
                break
            if cut < batch_size:
                step_size = steps[cut]
                break
            step_size = steps[-1] * 0.5
            attempt += batch_size

        if accepted is not None:
            candidate, candidate_value = accepted
            accepted_step = step_size
            step_size *= _STEP_GROWTH
        else:
            # Q is stationary inside the current corridor; only a corridor
            # (z) move can make further progress.
            candidate, candidate_value = state, value
            raw = state.matrix
            accepted_step = step_size

        # --- z step, re-projecting the same pre-projection point so the
        # backprop linearization is valid (strict clip margins there).
        # Both corridor proposals are evaluated as one batch. ---
        proposals = _bound_proposals(
            candidate, bounds, gradient, accepted_step / z_scale, epsilon
        )
        stats["projection_passes"] += len(proposals)
        reprojected = [
            evaluator.project(
                raw, proposal, epsilon, initial_multipliers=state.multipliers
            )
            for proposal in proposals
        ]
        reprojected_values = evaluator.value_batch(
            [projection.matrix for projection in reprojected]
        )
        best_candidate, best_bounds_candidate = candidate, bounds
        best_candidate_value = candidate_value
        for proposal, projection, proposal_value in zip(
            proposals, reprojected, reprojected_values
        ):
            if proposal_value < best_candidate_value:
                best_candidate = projection
                best_bounds_candidate = proposal
                best_candidate_value = float(proposal_value)
        if accepted is None and best_candidate_value >= value:
            # Neither the Q direction nor any corridor move helps: stop.
            break
        state, bounds = best_candidate, best_bounds_candidate
    if not np.isfinite(best_value):
        raise OptimizationError("optimization diverged from the first step")
    return best_state, best_bounds, float(best_value), iterations_run


def _bound_proposals(
    candidate: ProjectionState,
    bounds: np.ndarray,
    gradient: np.ndarray,
    z_step: float,
    epsilon: float,
) -> list[np.ndarray]:
    """Candidate updates for the corridor vector ``z``.

    Two proposals, each evaluated by the caller and accepted only when the
    objective improves (monotone safeguard):

    1. The paper's gradient step ``z - alpha * grad_z L`` with the gradient
       backpropagated through the accepted projection.
    2. A corridor re-centring on the current strategy: per row,
       ``z_o = max(tau * min_u Q[o,u], max_u Q[o,u] / e^eps)``, which keeps
       the iterate feasible while letting row masses drift downward — this
       lets rows specialize even where the backprop direction stalls.
    """
    bound_gradient = projection_vjp(gradient, candidate, epsilon)
    gradient_proposal = _repair_bounds(bounds - z_step * bound_gradient, epsilon)

    matrix = candidate.matrix
    row_min = matrix.min(axis=1)
    row_max = matrix.max(axis=1)
    recentred = np.maximum(0.5 * row_min, row_max * np.exp(-epsilon))
    recentre_proposal = _repair_bounds(recentred, epsilon)
    return [gradient_proposal, recentre_proposal]


def _base_step(state: ProjectionState, evaluator: FastEngine) -> float:
    """Heuristic step scale: move the steepest entry by one typical entry
    magnitude (columns sum to 1 over m rows, so a typical entry is 1/m)."""
    _, gradient = evaluator.value_and_gradient(state.matrix)
    if gradient is None:
        return 1e-3
    scale = np.abs(gradient).max()
    if not np.isfinite(scale) or scale <= 0:
        return 1e-3
    return 1.0 / (state.matrix.shape[0] * scale)


def _record_run_telemetry(stats: dict, objective: float) -> None:
    """Mirror one driver run's counters into the process-global registry.

    Registration is idempotent, so every run reuses the same families; the
    registry is observational only and never read back by the optimizer.
    """
    registry = get_registry()
    registry.counter(
        "repro_optimizer_runs_total", "Completed optimize_strategy runs."
    ).inc()
    registry.counter(
        "repro_optimizer_iterations_total",
        "PGD iterations across all optimizer runs.",
    ).inc(stats.get("iterations", 0))
    registry.counter(
        "repro_optimizer_line_search_attempts_total",
        "Backtracking candidate step sizes probed across all runs.",
    ).inc(stats.get("line_search_attempts", 0))
    registry.counter(
        "repro_optimizer_projection_passes_total",
        "Dual-projection passes across all runs.",
    ).inc(stats.get("projection_passes", 0))
    if np.isfinite(objective):
        registry.gauge(
            "repro_optimizer_last_objective",
            "Objective value of the most recent optimizer run.",
        ).set(float(objective))


@single_threaded()
def optimize_strategy(
    workload: Workload | np.ndarray,
    epsilon: float,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Algorithm 2: find an optimized eps-LDP strategy for a workload.

    The run uses one OpenBLAS thread
    (:func:`~repro.linalg.blas.single_threaded`), whatever the caller set,
    so its result does not depend on the caller's thread count.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.base.Workload` or a raw Gram matrix
        ``W^T W``.
    epsilon:
        Privacy budget.
    config:
        Optimizer knobs; sensible defaults otherwise.

    Returns
    -------
    OptimizationResult
        Best strategy found (validated epsilon-LDP), its objective value
        ``L(Q)``, and diagnostics.

    Examples
    --------
    The optimized strategy is a valid eps-LDP matrix and, on the histogram
    workload, beats the randomized-response objective:

    >>> from repro.mechanisms import randomized_response
    >>> from repro.optimization.objective import objective_value
    >>> from repro.workloads import histogram
    >>> workload = histogram(8)
    >>> result = optimize_strategy(
    ...     workload, 1.0, OptimizerConfig(num_iterations=150, seed=0)
    ... )
    >>> rr = randomized_response(8, 1.0).probabilities
    >>> result.objective < objective_value(rr, workload.gram())
    True
    """
    config = config or OptimizerConfig()
    check_config(config, epsilon)
    gram, domain_size = _resolve_gram(workload)
    # m < n is allowed (low-rank workloads), but must remain feasible for W.
    num_outputs = config.num_outputs
    if num_outputs is None:
        num_outputs = DEFAULT_OUTPUT_FACTOR * domain_size
    weights = None
    if config.prior is not None:
        from repro.analysis.reconstruction import prior_weights

        weights = prior_weights(config.prior, domain_size)
    rng = np.random.default_rng(config.seed)
    if config.initial_strategy is not None:
        state, bounds = warm_start(config.initial_strategy, epsilon)
    else:
        state, bounds = initialize(domain_size, num_outputs, epsilon, rng)

    # One evaluation engine per run: the workspace (Gram eigenfactor plus
    # scratch buffers) is built once and shared by every descent iteration
    # and every line-search probe.
    evaluator = FastEngine(gram, state.matrix.shape[0], weights)
    # Backtracking adapts on the fly; a scale heuristic suffices.
    step_size = _base_step(state, evaluator)

    history: list[float] | None = [] if config.track_history else None
    stats: dict = {}
    state, bounds, value, iterations = _descend(
        evaluator,
        state,
        bounds,
        epsilon,
        step_size,
        config.num_iterations,
        history,
        stats=stats,
    )
    _record_run_telemetry(stats, value)
    strategy = StrategyMatrix(
        state.matrix, epsilon, name="Optimized"
    )
    return OptimizationResult(
        strategy=strategy,
        bounds=bounds,
        objective=value,
        step_size=step_size,
        iterations_run=iterations,
        history=history or [],
        telemetry=stats,
    )
