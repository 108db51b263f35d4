"""Subset selection (Ye & Barg 2018), Table 1 row 4.

The user reports a size-``d`` subset of the domain, favouring subsets that
contain their own type:

    Q[S, u]  proportional to  e^eps  if u in S,  else 1

The recommended subset size is ``d ~ n / (e^eps + 1)``.  The output range
has ``C(n, d)`` elements, so like RAPPOR this mechanism is only
materialized for small domains (the paper likewise omits it from the
large-domain experiments); the closed-form column normalizer is

    Z = e^eps * C(n-1, d-1) + C(n-1, d).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.exceptions import DomainError
from repro.mechanisms.base import StrategyMatrix

#: Refuse to enumerate more than this many subsets.
MAX_SUBSET_OUTPUTS = 200_000


def recommended_subset_size(domain_size: int, epsilon: float) -> int:
    """The error-optimal subset size ``round(n / (e^eps + 1))``, at least 1."""
    return max(1, round(domain_size / (np.exp(epsilon) + 1.0)))


def subset_selection(
    domain_size: int, epsilon: float, subset_size: int | None = None
) -> StrategyMatrix:
    """Build the explicit subset selection strategy (``C(n, d)`` outputs)."""
    if domain_size < 2:
        raise DomainError("subset selection needs a domain of size >= 2")
    d = recommended_subset_size(domain_size, epsilon) if subset_size is None else subset_size
    if not 1 <= d <= domain_size:
        raise DomainError(f"subset size must be in [1, {domain_size}], got {d}")
    num_outputs = comb(domain_size, d)
    if num_outputs > MAX_SUBSET_OUTPUTS:
        raise DomainError(
            f"subset selection with C({domain_size}, {d}) = {num_outputs} outputs "
            f"exceeds the {MAX_SUBSET_OUTPUTS} limit for explicit materialization"
        )
    boost = np.exp(epsilon)
    normalizer = boost * comb(domain_size - 1, d - 1) + comb(domain_size - 1, d)
    matrix = np.empty((num_outputs, domain_size))
    for row, subset in enumerate(combinations(range(domain_size), d)):
        indicator = np.zeros(domain_size, dtype=bool)
        indicator[list(subset)] = True
        matrix[row] = np.where(indicator, boost, 1.0)
    matrix /= normalizer
    return StrategyMatrix(matrix, epsilon, name="Subset Selection")
