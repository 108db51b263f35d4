"""Workload non-negative least squares (Remark 1 / Appendix A / Section 6.7).

The unbiased estimates ``V y`` can be inconsistent — e.g. imply negative
counts.  WNNLS finds the non-negative data vector whose workload answers are
closest to the unbiased estimates:

    x_hat = argmin_{x >= 0} || W x - V y ||_2^2

and reports ``W x_hat``.  Following the paper we solve it with L-BFGS-B from
scipy; ``scipy.optimize`` is imported on the first solve, so processes that
never post-process (servers, cluster workers, the optimizer) do not load it.
The objective is evaluated in Gram space:

    || W x - W b ||^2 = (x - b)^T (W^T W) (x - b),      b = B y

(valid whenever the estimate has the factorization form ``V = W B``, which
holds for every mechanism in this library), so the solver never touches the
``p x n`` workload matrix and works for AllRange at full scale.  For
estimates that are *not* of that form, the general residual form
``x^T G x - 2 x^T (W^T a) + const`` is used via the workload's ``rmatvec``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WorkloadError
from repro.workloads.base import Workload


def wnnls_from_data_estimate(
    workload: Workload,
    data_estimate: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 2000,
) -> np.ndarray:
    """Non-negative data vector minimizing ``||W x - W b||^2``.

    Parameters
    ----------
    workload:
        Target workload (only its Gram matrix is used).
    data_estimate:
        The unbiased (possibly negative) estimate ``b = B y``.

    Returns
    -------
    numpy.ndarray
        ``x_hat >= 0``; consistent workload answers are ``W x_hat``.
    """
    import scipy.optimize

    gram = workload.gram()
    b = np.asarray(data_estimate, dtype=float)
    if b.shape != (workload.domain_size,):
        raise WorkloadError(
            f"data estimate shape {b.shape} != ({workload.domain_size},)"
        )

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        delta = x - b
        gradient_half = gram @ delta
        return float(delta @ gradient_half), 2.0 * gradient_half

    start = np.clip(b, 0.0, None)
    result = scipy.optimize.minimize(
        objective,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * b.shape[0],
        options={"maxiter": max_iterations, "ftol": tol, "gtol": 1e-12},
    )
    return np.asarray(result.x)


def wnnls_from_answers(
    workload: Workload,
    answers: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 2000,
) -> np.ndarray:
    """General WNNLS against arbitrary per-query answers ``a``.

    Minimizes ``||W x - a||^2 = x^T G x - 2 x^T (W^T a) + const`` over
    ``x >= 0`` using the workload's adjoint product.
    """
    import scipy.optimize

    gram = workload.gram()
    linear = workload.rmatvec(np.asarray(answers, dtype=float))

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        gram_x = gram @ x
        return float(x @ gram_x - 2.0 * x @ linear), 2.0 * (gram_x - linear)

    start = np.zeros(workload.domain_size)
    result = scipy.optimize.minimize(
        objective,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * workload.domain_size,
        options={"maxiter": max_iterations, "ftol": tol, "gtol": 1e-12},
    )
    return np.asarray(result.x)
