"""Error analysis: variance, objectives, sample complexity, lower bounds.

This subpackage implements the paper's analytical toolkit:

* Theorem 3.4 (exact data-dependent variance) and Corollaries 3.5/3.6
  (worst/average case) — :mod:`repro.analysis.variance`.
* Theorem 3.10 (optimal reconstruction for fixed Q) —
  :mod:`repro.analysis.reconstruction`.
* Theorem 3.11 (strategy-only objective ``L(Q)``) lives with the optimizer
  that minimizes it: :func:`repro.optimization.objective.objective_value`.
* Definition 5.2 / Corollaries 5.3-5.4 (sample complexity) —
  :mod:`repro.analysis.sample_complexity`.
* Theorem 5.6 / Corollary 5.7 (SVD lower bounds) —
  :mod:`repro.analysis.bounds`.

All functions take raw numpy strategy matrices, so they apply equally to the
optimized mechanism and to every baseline.
"""

from repro.analysis.bounds import (
    sample_complexity_lower_bound,
    strategy_objective_lower_bound,
    worst_case_variance_lower_bound,
)
from repro.analysis.budget import achievable_alpha, epsilon_for_population
from repro.analysis.reconstruction import (
    factored_reconstruction_operators,
    factorization_residual,
    is_factorizable,
    optimal_reconstruction,
    reconstruction_operator,
    scaled_gram,
    strategy_row_sums,
)
from repro.analysis.sample_complexity import (
    PAPER_ALPHA,
    randomized_response_sample_complexity,
    randomized_response_variance,
    sample_complexity,
    sample_complexity_from_variances,
    sample_complexity_on_distribution,
)
from repro.analysis.variance import (
    average_case_variance,
    per_user_variances,
    total_variance,
    trace_objective,
    worst_case_variance,
)

__all__ = [
    "PAPER_ALPHA",
    "achievable_alpha",
    "average_case_variance",
    "epsilon_for_population",
    "factorization_residual",
    "is_factorizable",
    "factored_reconstruction_operators",
    "optimal_reconstruction",
    "per_user_variances",
    "randomized_response_sample_complexity",
    "randomized_response_variance",
    "reconstruction_operator",
    "sample_complexity",
    "sample_complexity_from_variances",
    "sample_complexity_lower_bound",
    "sample_complexity_on_distribution",
    "scaled_gram",
    "strategy_objective_lower_bound",
    "strategy_row_sums",
    "total_variance",
    "trace_objective",
    "worst_case_variance",
    "worst_case_variance_lower_bound",
]
