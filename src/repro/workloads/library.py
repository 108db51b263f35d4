"""The simple 1-D workloads from the paper: Histogram and Prefix.

Histogram is the ``n x n`` identity (Example 2.2 context); Prefix is the
lower-triangular all-ones matrix computing the unnormalized empirical CDF
(Example 2.4).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WorkloadError
from repro.workloads.base import MAX_EXPLICIT_ENTRIES, ExplicitWorkload, Workload


def _check_square(domain_size: int) -> None:
    """Refuse an ``n x n`` matrix that is empty or over the entry limit
    before allocating it."""
    if domain_size < 1:
        raise WorkloadError(f"domain size must be >= 1, got {domain_size}")
    if domain_size * domain_size > MAX_EXPLICIT_ENTRIES:
        raise WorkloadError(
            f"explicit workload with {domain_size * domain_size} entries exceeds "
            f"the {MAX_EXPLICIT_ENTRIES} entry limit"
        )


class HistogramWorkload(ExplicitWorkload):
    """The identity workload ``W = I_n`` — one point query per user type."""

    def __init__(self, domain_size: int) -> None:
        _check_square(domain_size)
        super().__init__(np.eye(domain_size), name="Histogram")

    def _compute_gram(self) -> np.ndarray:
        return np.eye(self.domain_size)


class PrefixWorkload(ExplicitWorkload):
    """All prefix (CDF) queries: row ``i`` sums counts of types ``0..i``.

    The Gram matrix has the closed form ``(W^T W)_{ab} = n - max(a, b)``:
    prefix row ``i`` covers both ``a`` and ``b`` exactly when
    ``i >= max(a, b)``.
    """

    def __init__(self, domain_size: int) -> None:
        _check_square(domain_size)
        super().__init__(np.tril(np.ones((domain_size, domain_size))), name="Prefix")

    def _compute_gram(self) -> np.ndarray:
        n = self.domain_size
        idx = np.arange(n)
        return (n - np.maximum(idx[:, None], idx[None, :])).astype(float)


def histogram(domain_size: int) -> Workload:
    """The Histogram workload (identity matrix) over ``domain_size`` types."""
    return HistogramWorkload(domain_size)


def prefix(domain_size: int) -> Workload:
    """The Prefix (empirical CDF) workload over ``domain_size`` types."""
    return PrefixWorkload(domain_size)
