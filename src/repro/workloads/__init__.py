"""Workload library.

The six workloads evaluated in the paper (Section 6.1) plus custom /
random builders:

======================  ==============================================
``histogram(n)``        identity matrix, one point query per type
``prefix(n)``           empirical CDF queries (Example 2.4)
``all_range(n)``        every contiguous range query (implicit Gram)
``all_marginals(k)``    all 3^k marginal queries over {0,1}^k
``k_way_marginals(k)``  marginals on exactly 3 attributes (default)
``parity(k)``           parity queries of degree <= 3 (default)
======================  ==============================================

Every workload exposes ``matrix`` (when materializable), ``gram()``,
``frobenius_norm_squared()``, ``matvec``/``rmatvec`` and
``singular_values()``; the analysis and optimization layers are written
against this interface only.
"""

from repro.workloads.base import (
    ExplicitWorkload,
    MAX_EXPLICIT_ENTRIES,
    Workload,
    stack,
    weighted,
)
from repro.workloads.kron import (
    KronWorkload,
    ProductMarginalsWorkload,
    all_product_marginals,
    k_way_product_marginals,
    product_marginals,
)
from repro.workloads.library import HistogramWorkload, PrefixWorkload, histogram, prefix
from repro.workloads.marginals import (
    AllMarginalsWorkload,
    KWayMarginalsWorkload,
    MarginalsWorkload,
    all_marginals,
    k_way_marginals,
)
from repro.workloads.parity import ParityWorkload, parity
from repro.workloads.random import random_range_workload, random_workload
from repro.workloads.range_queries import AllRangeWorkload, all_range

#: Names of the six paper workloads, in the order of the paper's figures.
PAPER_WORKLOADS = (
    "Histogram",
    "Prefix",
    "AllRange",
    "AllMarginals",
    "3-Way Marginals",
    "Parity",
)


def by_name(name: str, domain_size: int) -> Workload:
    """Construct one of the paper's six workloads by display name.

    ``domain_size`` must be an integer >= 1, and a power of two for the
    binary-domain workloads (marginals, parity); the number of attributes
    is derived from it.

    Examples
    --------
    >>> by_name("Prefix", 8).num_queries
    8
    >>> by_name("Parity", 0)
    Traceback (most recent call last):
        ...
    repro.exceptions.WorkloadError: domain_size must be an integer >= 1, got 0
    """
    from numbers import Integral

    from repro.exceptions import WorkloadError

    if (
        isinstance(domain_size, bool)
        or not isinstance(domain_size, Integral)
        or domain_size < 1
    ):
        raise WorkloadError(f"domain_size must be an integer >= 1, got {domain_size!r}")
    builders = {
        "Histogram": lambda: histogram(domain_size),
        "Prefix": lambda: prefix(domain_size),
        "AllRange": lambda: all_range(domain_size),
    }
    if name in builders:
        return builders[name]()
    if name in ("AllMarginals", "3-Way Marginals", "Parity"):
        num_attributes = domain_size.bit_length() - 1
        if 1 << num_attributes != domain_size:
            raise WorkloadError(
                f"{name} needs a power-of-two domain, got {domain_size}"
            )
        if name == "AllMarginals":
            return all_marginals(num_attributes)
        if name == "3-Way Marginals":
            return k_way_marginals(num_attributes, way=min(3, num_attributes))
        return parity(num_attributes, degree=min(3, num_attributes))
    raise WorkloadError(f"unknown workload {name!r}; known: {PAPER_WORKLOADS}")


__all__ = [
    "AllMarginalsWorkload",
    "AllRangeWorkload",
    "ExplicitWorkload",
    "HistogramWorkload",
    "KWayMarginalsWorkload",
    "KronWorkload",
    "MAX_EXPLICIT_ENTRIES",
    "MarginalsWorkload",
    "PAPER_WORKLOADS",
    "ParityWorkload",
    "PrefixWorkload",
    "ProductMarginalsWorkload",
    "Workload",
    "all_marginals",
    "all_product_marginals",
    "all_range",
    "by_name",
    "histogram",
    "k_way_marginals",
    "k_way_product_marginals",
    "parity",
    "prefix",
    "product_marginals",
    "random_range_workload",
    "random_workload",
    "stack",
    "weighted",
]
