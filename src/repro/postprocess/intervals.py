"""Confidence intervals for workload estimates.

Theorem 3.4 gives the exact per-query variance of the factorization
mechanism ``V = W B`` as a function of the data vector.  It is linear in
``x``:

    Var[v_i^T y] = sum_u x_u [ v_i^T Diag(q_u) v_i - (v_i^T q_u)^2 ] = (M x)_i

and its coefficients ``M_iu = v_i^T Diag(q_u) v_i - (v_i^T q_u)^2``, i.e.
``M = (V∘V) Q - (V Q)∘(V Q)``, are fixed once the strategy is.
:func:`variance_matrix` builds the ``p × n`` matrix ``M`` once per deployed
mechanism, and every answer then costs the single matvec ``M x̂₊``.  ``M``
is built from the explicit workload matrix, so it exists only for
workloads within :data:`~repro.workloads.base.MAX_EXPLICIT_ENTRIES`.

The data vector is private, but its unbiased estimate can be plugged in,
giving asymptotically valid per-query standard errors — the response
histogram is a sum of ``N`` independent multinomials, so the estimates are
asymptotically normal.  The plug-in ``x̂₊`` is the estimate clipped to be
non-negative (a variance needs non-negative weights) and rescaled to the
report count; for moderate ``N`` the clipping bias is negligible compared
to the noise, and the coverage tests in the test suite confirm the
intervals are calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.exceptions import WorkloadError
from repro.linalg.blas import single_threaded
from repro.mechanisms.base import StrategyMatrix
from repro.workloads.base import Workload


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimates with symmetric confidence intervals."""

    estimates: np.ndarray
    standard_errors: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    confidence: float


def variance_matrix(
    workload: Workload, strategy: StrategyMatrix, operator: np.ndarray
) -> np.ndarray:
    """Theorem 3.4's per-query variance coefficients ``M`` (``p × n``).

    ``M_iu`` is the variance one user of type ``u`` adds to query ``i``, so
    its column sums are :func:`repro.analysis.variance.per_user_variances`.
    The result is read-only.

    Examples
    --------
    >>> from repro.analysis import reconstruction_operator
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import prefix
    >>> strategy = randomized_response(4, 1.0)
    >>> operator = reconstruction_operator(strategy.probabilities)
    >>> variance_matrix(prefix(4), strategy, operator).shape
    (4, 4)
    """
    reconstruction = workload.matrix @ operator
    expectation = reconstruction @ strategy.probabilities
    np.square(reconstruction, out=reconstruction)
    matrix = reconstruction @ strategy.probabilities
    matrix -= np.square(expectation, out=expectation)
    matrix.setflags(write=False)
    return matrix


def per_query_variances(matrix: np.ndarray, data_vector: np.ndarray) -> np.ndarray:
    """Exact per-query variances ``M x`` at a non-negative data vector.

    ``Var_i = sum_u M_iu x_u`` with ``M_iu = v_i^T Diag(q_u) v_i -
    (v_i^T q_u)^2``; ``matrix`` is the deployed mechanism's
    :func:`variance_matrix`, and the served intervals pass the clipped,
    rescaled plug-in ``x̂₊`` as ``data_vector``.
    """
    data_vector = np.asarray(data_vector, dtype=float)
    if data_vector.shape != (matrix.shape[1],):
        raise WorkloadError(
            f"data vector shape {data_vector.shape} != ({matrix.shape[1]},)"
        )
    if data_vector.min() < 0:
        raise WorkloadError("variance weights must be non-negative")
    return matrix @ data_vector


@single_threaded()
def workload_confidence_intervals(
    workload: Workload,
    operator: np.ndarray,
    matrix: np.ndarray,
    response_histogram: np.ndarray,
    confidence: float = 0.95,
) -> IntervalEstimate:
    """Point estimates and plug-in CIs for every workload query.

    The answer's products (``B·y``, ``W·x̂``, ``M·x̂₊``) run on one OpenBLAS
    thread (:func:`~repro.linalg.blas.single_threaded`); ``operator`` and
    ``matrix`` are built by the caller, at its own thread count.

    Parameters
    ----------
    workload, operator, matrix:
        The deployed mechanism: its workload, reconstruction ``B`` and
        :func:`variance_matrix` ``M``.
    response_histogram:
        The aggregated response vector ``y``.
    confidence:
        Two-sided confidence level in (0, 1); the multiplier is the standard
        normal quantile at ``0.5 + confidence / 2``
        (:meth:`statistics.NormalDist.inv_cdf`).

    Examples
    --------
    >>> from repro.analysis import reconstruction_operator
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> strategy = randomized_response(2, 1.0)
    >>> operator = reconstruction_operator(strategy.probabilities)
    >>> matrix = variance_matrix(histogram(2), strategy, operator)
    >>> answer = workload_confidence_intervals(
    ...     histogram(2), operator, matrix, [60.0, 40.0]
    ... )
    >>> bool(np.all(answer.lower < answer.estimates))
    True
    """
    # Within 2**-53 of 1, ``0.5 + confidence / 2`` rounds to 1.0, whose
    # normal quantile is infinite; NaN fails both comparisons.
    if not (confidence > 0.0 and 0.5 + confidence / 2.0 < 1.0):
        raise WorkloadError(
            f"confidence must be in (0, 1) with a finite normal quantile, "
            f"got {confidence}"
        )
    response_histogram = np.asarray(response_histogram, dtype=float)
    data_estimate = operator @ response_histogram
    estimates = workload.matvec(data_estimate)
    plug_in = np.clip(data_estimate, 0.0, None)
    total = response_histogram.sum()
    if plug_in.sum() > 0 and total > 0:
        plug_in = plug_in * (total / plug_in.sum())
    variances = per_query_variances(matrix, plug_in)
    # Queries the mechanism answers exactly (e.g. the total count under a
    # doubly stochastic strategy) have zero variance; a floating-point
    # floor keeps their intervals from excluding the truth by round-off.
    standard_errors = np.maximum(
        np.sqrt(np.clip(variances, 0.0, None)), 1e-9 * (1.0 + np.abs(estimates))
    )
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return IntervalEstimate(
        estimates=estimates,
        standard_errors=standard_errors,
        lower=estimates - z * standard_errors,
        upper=estimates + z * standard_errors,
        confidence=confidence,
    )
