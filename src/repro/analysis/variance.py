"""Variance formulas: Theorem 3.4 and Corollaries 3.5 / 3.6 / Theorem 3.9.

Everything is expressed in Gram space.  For the factorization mechanism
``M_{V,Q}`` with ``V = W B`` the per-user-type variance contribution

    t_u = sum_i [ v_i^T Diag(q_u) v_i - (v_i^T q_u)^2 ]

reduces — since ``sum_i v_i^T Diag(q_u) v_i = q_u . diag(V^T V)``,
``sum_i (v_i^T q_u)^2 = ||V q_u||^2`` and ``V^T V = B^T C B`` — to

    t_u = q_u . diag(B^T C B)  -  (B q_u)^T C (B q_u),      C = W^T W

so only ``C`` (n x n) and ``B`` (n x m) are ever needed.  Then

    total variance on x   = sum_u x_u t_u                 (Theorem 3.4)
    L_worst = N max_u t_u                                 (Corollary 3.5)
    L_avg   = N/n sum_u t_u                               (Corollary 3.6)
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reconstruction import reconstruction_operator, strategy_row_sums
from repro.exceptions import WorkloadError


def per_user_variances(
    strategy: np.ndarray,
    gram: np.ndarray,
    operator: np.ndarray | None = None,
    prior: np.ndarray | None = None,
) -> np.ndarray:
    """The vector ``t`` of single-user variance contributions (length n).

    Parameters
    ----------
    strategy:
        The ``(m, n)`` strategy matrix ``Q``.
    gram:
        The workload Gram matrix ``C = W^T W`` with shape ``(n, n)``.
    operator:
        The reconstruction operator ``B`` (``(n, m)``).  Defaults to the
        optimal operator of Theorem 3.10; pass an explicit one to analyze a
        non-optimal reconstruction (e.g. the classical ``V = W Q^{-1}``).
    prior:
        When ``operator`` is None, build the reconstruction that is optimal
        under this prior over user types (footnote 2) instead of uniform.
    """
    strategy = np.asarray(strategy, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if operator is None:
        operator = reconstruction_operator(strategy, prior)
    reconstructed = gram @ operator
    second_moment_diag = np.einsum("im,im->m", operator, reconstructed)
    mapped = operator @ strategy
    quadratic = np.einsum("iu,ij,ju->u", mapped, gram, mapped, optimize=True)
    return second_moment_diag @ strategy - quadratic


def total_variance(
    strategy: np.ndarray,
    gram: np.ndarray,
    data_vector: np.ndarray,
    operator: np.ndarray | None = None,
) -> float:
    """Exact expected total squared error on ``data_vector`` (Theorem 3.4)."""
    data_vector = np.asarray(data_vector, dtype=float)
    t = per_user_variances(strategy, gram, operator)
    if data_vector.shape != t.shape:
        raise WorkloadError(
            f"data vector shape {data_vector.shape} != domain size {t.shape}"
        )
    return float(data_vector @ t)


def worst_case_variance(
    strategy: np.ndarray,
    gram: np.ndarray,
    num_users: float = 1.0,
    operator: np.ndarray | None = None,
) -> float:
    """``L_worst`` (Corollary 3.5): all ``N`` users share the worst type."""
    t = per_user_variances(strategy, gram, operator)
    return float(num_users * np.max(t))


def average_case_variance(
    strategy: np.ndarray,
    gram: np.ndarray,
    num_users: float = 1.0,
    operator: np.ndarray | None = None,
) -> float:
    """``L_avg`` (Corollary 3.6): users spread uniformly over the domain."""
    t = per_user_variances(strategy, gram, operator)
    return float(num_users * np.mean(t))


def trace_objective(
    strategy: np.ndarray,
    gram: np.ndarray,
    operator: np.ndarray | None = None,
) -> float:
    """``L(V, Q) = tr[V D_Q V^T]`` (Theorem 3.9) for ``V = W B``.

    Related to the average-case variance by
    ``L_avg = (N/n) (L(V,Q) - ||W||_F^2)``.
    """
    strategy = np.asarray(strategy, dtype=float)
    if operator is None:
        operator = reconstruction_operator(strategy)
    row_sums = strategy_row_sums(strategy)
    second_moment_diag = np.einsum(
        "im,ij,jm->m", operator, np.asarray(gram, dtype=float), operator, optimize=True
    )
    return float(row_sums @ second_moment_diag)
