"""Linear-algebra substrate used throughout the library.

This subpackage contains the numerical building blocks that the rest of the
library is written against:

* :mod:`repro.linalg.pseudo_inverse` — a conditioning-gated Cholesky
  factor and a pseudo-inverse for the near-singular matrices produced
  mid-optimization.
* :mod:`repro.linalg.hadamard` — Sylvester–Hadamard matrix construction and
  the fast Walsh–Hadamard transform, used by the Hadamard-response and
  Fourier mechanisms.
* :mod:`repro.linalg.checks` — validation predicates for stochastic matrices
  and epsilon-LDP ratio constraints.
* :mod:`repro.linalg.kron` — implicit Kronecker-product operators applied
  factor-wise, with an allocation-capped dense fallback.
* :mod:`repro.linalg.blas` — a scope that runs numpy's and scipy's bundled
  OpenBLAS on one thread (the optimizer and every served answer run in it).
"""

from repro.linalg.blas import single_threaded, thread_counts
from repro.linalg.checks import (
    is_column_stochastic,
    is_ldp_matrix,
    ldp_ratio,
    max_abs_column_sum_error,
)
from repro.linalg.hadamard import (
    fwht,
    hadamard_matrix,
    next_power_of_two,
)
from repro.linalg.kron import (
    DEFAULT_DENSE_CELL_CAP,
    KronOperator,
    apply_factor_along_axis,
    apply_kron_factors,
    check_dense_allocation,
    dense_kron,
    kron_shape,
)
from repro.linalg.pseudo_inverse import (
    psd_pinv,
    spd_factor,
    symmetrize,
)

__all__ = [
    "DEFAULT_DENSE_CELL_CAP",
    "KronOperator",
    "apply_factor_along_axis",
    "apply_kron_factors",
    "check_dense_allocation",
    "dense_kron",
    "fwht",
    "hadamard_matrix",
    "kron_shape",
    "is_column_stochastic",
    "is_ldp_matrix",
    "ldp_ratio",
    "max_abs_column_sum_error",
    "next_power_of_two",
    "psd_pinv",
    "single_threaded",
    "spd_factor",
    "symmetrize",
    "thread_counts",
]
