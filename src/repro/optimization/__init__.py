"""Strategy optimization — the paper's core contribution (Sections 3-4).

* :mod:`repro.optimization.projection` — Algorithm 1 (bounded-simplex
  projection) and its backprop rule.
* :mod:`repro.optimization.objective` — ``L(Q)`` of Theorem 3.11 with a
  manual analytic gradient.
* :mod:`repro.optimization.kernels` — the factorization-cached objective
  engine (workspace, Cholesky solves, batched candidate evaluation).
* :mod:`repro.optimization.pgd` — Algorithm 2 (projected gradient descent).
* :mod:`repro.optimization.optimized` — the "Optimized" mechanism wrapper.
* :mod:`repro.optimization.search` — the strategy-rows sweep (m).
* :mod:`repro.optimization.restarts` — the multi-restart driver
  with strategy-store read-through and warm starts.
* :mod:`repro.optimization.factored` — Kronecker-factorized optimization
  for product domains (per-factor PGD, alternating minimization).
"""

from repro.optimization.factored import (
    FACTORED_WORKLOADS,
    FactoredOptimizationResult,
    FactoredOptimizerConfig,
    factored_objective_value,
    multi_restart_optimize_factored,
    optimize_factored_strategy,
)
from repro.optimization.kernels import ObjectiveWorkspace
from repro.optimization.objective import objective_and_gradient, objective_value
from repro.optimization.optimized import OptimizedMechanism
from repro.optimization.pgd import (
    DEFAULT_OUTPUT_FACTOR,
    OptimizationResult,
    OptimizerConfig,
    initial_bounds,
    initialize,
    optimize_strategy,
)
from repro.optimization.restarts import (
    DEFAULT_WARM_START_LOG_RATIO,
    RestartReport,
    multi_restart_optimize,
    restart_seeds,
)
from repro.optimization.projection import (
    ProjectionState,
    feasible_bounds,
    project_columns,
    project_columns_batch,
    projection_vjp,
)
from repro.optimization.search import SweepPoint, search_num_outputs

__all__ = [
    "DEFAULT_OUTPUT_FACTOR",
    "DEFAULT_WARM_START_LOG_RATIO",
    "FACTORED_WORKLOADS",
    "FactoredOptimizationResult",
    "FactoredOptimizerConfig",
    "ObjectiveWorkspace",
    "OptimizationResult",
    "OptimizedMechanism",
    "OptimizerConfig",
    "ProjectionState",
    "RestartReport",
    "SweepPoint",
    "factored_objective_value",
    "multi_restart_optimize",
    "multi_restart_optimize_factored",
    "optimize_factored_strategy",
    "feasible_bounds",
    "initial_bounds",
    "initialize",
    "objective_and_gradient",
    "objective_value",
    "optimize_strategy",
    "project_columns",
    "project_columns_batch",
    "projection_vjp",
    "restart_seeds",
    "search_num_outputs",
]
