"""Marginal workloads over binary product domains.

*AllMarginals* contains, for every subset ``S`` of the ``k`` attributes and
every setting of the attributes in ``S``, the query counting users matching
that setting — ``p = 3^k`` queries in total (studied in [13]).
*KWayMarginals* restricts to subsets of exactly ``way`` attributes
(``way = 3`` gives the paper's "3-Way Marginals").

Both have closed-form Gram matrices.  Two user types agree on a marginal
query's subset exactly when the subset avoids every differing attribute, so
with ``a = k - hamming(u, v)`` agreeing attributes:

* AllMarginals:  ``(W^T W)_{uv} = sum_S [u_S = v_S] = 2^a``
* KWayMarginals: ``(W^T W)_{uv} = C(a, way)``
"""

from __future__ import annotations

import math

import numpy as np

from repro.domains import BinaryDomain
from repro.exceptions import WorkloadError
from repro.linalg.bits import subsets_of_size
from repro.workloads.base import Workload


def _marginal_rows(domain: BinaryDomain, subset_mask: int) -> np.ndarray:
    """Query rows of the marginal on the attributes in ``subset_mask``.

    Returns a ``(2^|S|, n)`` 0/1 matrix whose row ``t`` indicates the user
    types whose attributes restricted to ``S`` equal setting ``t``.
    """
    types = np.arange(domain.size)
    positions = [j for j in range(domain.num_attributes) if subset_mask >> j & 1]
    group = np.zeros(domain.size, dtype=np.int64)
    for rank, position in enumerate(positions):
        group |= ((types >> position) & 1) << rank
    num_settings = 1 << len(positions)
    rows = np.zeros((num_settings, domain.size))
    rows[group, types] = 1.0
    return rows


class MarginalsWorkload(Workload):
    """Marginals over an explicit collection of attribute subsets."""

    def __init__(
        self, domain: BinaryDomain, subset_masks: list[int], name: str
    ) -> None:
        if not subset_masks:
            raise WorkloadError("marginals workload needs at least one subset")
        limit = 1 << domain.num_attributes
        if any(not 0 <= mask < limit for mask in subset_masks):
            raise WorkloadError("subset mask outside the attribute range")
        self.binary_domain = domain
        self.subset_masks = list(subset_masks)
        num_queries = sum(1 << bin(mask).count("1") for mask in subset_masks)
        super().__init__(domain.size, num_queries, name)

    @property
    def matrix(self) -> np.ndarray:
        blocks = [
            _marginal_rows(self.binary_domain, mask) for mask in self.subset_masks
        ]
        return np.vstack(blocks)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Workload answers ``W x`` without building ``W``: each marginal
        sums the ``2^k`` data tensor over the attributes outside its subset.

        Attribute ``j`` is bit ``j`` of a type, so it is axis ``k - 1 - j``
        of the C-ordered tensor, and each summed tensor flattens in the row
        order of :func:`_marginal_rows`.

        Examples
        --------
        >>> import numpy as np
        >>> workload = k_way_marginals(3, way=2)
        >>> x = np.arange(8.0)
        >>> bool(np.array_equal(workload.matvec(x), workload.matrix @ x))
        True
        """
        x = self._check_domain_vector(x)
        k = self.binary_domain.num_attributes
        tensor = x.reshape((2,) * k)
        return np.concatenate(
            [
                tensor.sum(
                    axis=tuple(k - 1 - j for j in range(k) if not mask >> j & 1)
                ).ravel()
                for mask in self.subset_masks
            ]
        )


class AllMarginalsWorkload(MarginalsWorkload):
    """All ``3^k`` marginal queries over ``{0,1}^k`` (includes the total)."""

    def __init__(self, num_attributes: int) -> None:
        domain = BinaryDomain(num_attributes)
        masks = list(range(1 << num_attributes))
        super().__init__(domain, masks, name="AllMarginals")

    def _compute_gram(self) -> np.ndarray:
        agree = (
            self.binary_domain.num_attributes
            - self.binary_domain.hamming_distance_table()
        )
        return np.power(2.0, agree)


class KWayMarginalsWorkload(MarginalsWorkload):
    """All marginals on exactly ``way`` of the ``k`` binary attributes."""

    def __init__(self, num_attributes: int, way: int = 3) -> None:
        if not 1 <= way <= num_attributes:
            raise WorkloadError(
                f"way must be in [1, {num_attributes}], got {way}"
            )
        domain = BinaryDomain(num_attributes)
        masks = subsets_of_size(num_attributes, way)
        self.way = way
        super().__init__(domain, masks, name=f"{way}-Way Marginals")

    def _compute_gram(self) -> np.ndarray:
        k = self.binary_domain.num_attributes
        agree = k - self.binary_domain.hamming_distance_table()
        table = np.array([math.comb(a, self.way) for a in range(k + 1)], dtype=float)
        return table[agree]


def all_marginals(num_attributes: int) -> Workload:
    """AllMarginals over ``{0,1}^num_attributes`` (n = 2^k, p = 3^k)."""
    return AllMarginalsWorkload(num_attributes)


def k_way_marginals(num_attributes: int, way: int = 3) -> Workload:
    """All ``way``-attribute marginals over ``{0,1}^num_attributes``."""
    return KWayMarginalsWorkload(num_attributes, way)
