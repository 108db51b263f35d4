"""Validation predicates for strategy matrices.

A strategy matrix ``Q`` encodes a conditional distribution ``Pr[o | u]``.
Proposition 2.6 of the paper requires two things:

1. *Stochasticity*: every column is a probability distribution.
2. *Privacy ratio*: ``Q[o, u] <= exp(eps) * Q[o, u']`` for all ``o, u, u'``,
   equivalently ``max_u Q[o, u] <= exp(eps) * min_u Q[o, u]`` row-wise.

These helpers report the quantities (worst column-sum error and realized
privacy ratio) and boolean checks with explicit tolerances, so validation
failures come with actionable numbers.
"""

from __future__ import annotations

import numpy as np


def max_abs_column_sum_error(matrix: np.ndarray) -> float:
    """Largest deviation of any column sum from 1."""
    return float(np.max(np.abs(matrix.sum(axis=0) - 1.0)))


def is_column_stochastic(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """True when all entries are >= -atol and every column sums to 1 +- atol."""
    if np.min(matrix) < -atol:
        return False
    return max_abs_column_sum_error(matrix) <= atol


def ldp_ratio(matrix: np.ndarray) -> float:
    """Realized privacy ratio ``max_o max_{u,u'} Q[o,u] / Q[o,u']``.

    Rows that are identically zero contribute ratio 1 (such outputs never
    occur and can be removed without changing the mechanism).  A row with a
    zero *and* a non-zero entry has infinite ratio.
    """
    row_max = matrix.max(axis=1)
    row_min = matrix.min(axis=1)
    live = row_max > 0
    if not live.any():
        return 1.0
    mins = row_min[live]
    maxs = row_max[live]
    if np.any(mins <= 0):
        return float("inf")
    return float(np.max(maxs / mins))


def is_ldp_matrix(matrix: np.ndarray, epsilon: float, rtol: float = 1e-8) -> bool:
    """True when the matrix satisfies the epsilon-LDP ratio constraint.

    The check allows relative slack ``rtol`` on top of ``exp(epsilon)`` to
    absorb floating point round-off from projections.  An infinite realized
    ratio never passes, not even above epsilon ~709.78, where
    ``exp(epsilon)`` overflows to infinity.

    Examples
    --------
    >>> import numpy as np
    >>> is_ldp_matrix(np.eye(4), 710.0)
    False
    """
    ratio = ldp_ratio(matrix)
    return bool(np.isfinite(ratio) and ratio <= np.exp(epsilon) * (1.0 + rtol))
