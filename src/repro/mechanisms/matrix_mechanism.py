"""Distributed Matrix Mechanism for the local model (L1 and L2 flavours).

The central-model Matrix Mechanism [27, 30] answers a *strategy* set of
linear queries ``A`` with additive noise and reconstructs the workload as
``W = (W A^+) A``.  Its local-model translation [17] has every user report
their own strategy column plus noise:

    report_i = A e_{u_i} + z_i

and the server aggregates ``sum_i report_i = A x + sum_i z_i`` before
applying ``W A^+``.  Pure eps-LDP noise:

* **L1**: coordinate-wise Laplace calibrated to the *pairwise diameter*
  ``Delta_1(A) = max_{u,u'} ||a_u - a_u'||_1`` (a local randomizer must hide
  which of two arbitrary types a user holds) — per-coordinate variance
  ``2 (Delta_1 / eps)^2``.
* **L2**: the L2-ball K-norm mechanism, density ``~ exp(-eps ||z||_2 /
  Delta_2)`` with ``Delta_2`` the pairwise L2 diameter — per-coordinate
  variance ``(k+1) Delta_2^2 / eps^2`` for a ``k``-row strategy (radius is
  Gamma(k, Delta_2/eps), direction uniform on the sphere).

Strategy selection: the paper's comparator [17] is theoretical with no
released implementation.  We use the SVD-bound square-root strategy of Li &
Miklau — ``A`` with ``A^T A  proportional to  (W^T W)^{1/2}`` — which is the
exact optimizer of the relaxed central-model problem for the symmetric
workloads evaluated here, reduced to ``rank(W)`` rows (this matters for the
L2 flavour, whose noise grows with the row count).  The identity strategy is
also evaluated and the better of the two is kept, so the baseline is never
handicapped by the closed form.

Because the noise is data-independent, the per-user variance contribution is
the same for every user type: ``sigma_c^2 ||W A^+||_F^2``, computed in Gram
space below.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError
from repro.linalg import symmetrize
from repro.mechanisms.base import _user_counts
from repro.mechanisms.interface import Mechanism
from repro.workloads.base import Workload


def square_root_strategy(gram: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """The rank-reduced square-root strategy ``A`` with ``A^T A = (W^T W)^{1/2}``.

    Returns ``A`` with ``rank(W)`` rows, scaled so the analysis below can
    renormalize sensitivities; rows correspond to the eigenbasis of the
    Gram matrix.
    """
    gram = symmetrize(np.asarray(gram, dtype=float))
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    cutoff = rcond * max(eigenvalues.max(initial=0.0), 0.0)
    keep = eigenvalues > cutoff
    if not keep.any():
        raise OptimizationError("workload Gram matrix is numerically zero")
    # X = (W^T W)^{1/2} has eigenvalues sqrt(lambda); A = X^{1/2} keeps rank.
    quarter_roots = eigenvalues[keep] ** 0.25
    return quarter_roots[:, None] * eigenvectors[:, keep].T


def column_norms(strategy: np.ndarray, norm: int) -> np.ndarray:
    """Per-column L1 or L2 norms of a strategy matrix."""
    if norm == 1:
        return np.abs(strategy).sum(axis=0)
    if norm == 2:
        return np.sqrt((strategy**2).sum(axis=0))
    raise OptimizationError(f"norm must be 1 or 2, got {norm}")


def local_sensitivity(strategy: np.ndarray, norm: int) -> float:
    """LDP sensitivity: the diameter ``max_{u,u'} ||a_u - a_u'||`` of the
    strategy columns.

    Unlike central DP (add/remove one record), a local randomizer must hide
    which of two *arbitrary* types a user holds, so noise is calibrated to
    the pairwise diameter.  For L2 the diameter is exact via the column Gram
    matrix; for L1 an exact diameter costs ``O(n^2 m)``, so the standard
    triangle-inequality bound ``2 max_u ||a_u||_1`` is used.
    """
    if norm == 1:
        return 2.0 * float(column_norms(strategy, 1).max())
    gram = strategy.T @ strategy
    squared_norms = np.diag(gram)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * gram
    return float(np.sqrt(max(distances.max(), 0.0)))


def per_coordinate_noise_variance(
    num_rows: int, epsilon: float, norm: int, sensitivity: float = 1.0
) -> float:
    """Per-coordinate noise variance of the pure-eps local randomizer.

    L1: i.i.d. Laplace with scale ``sensitivity / eps`` per coordinate.
    L2: the L2-ball K-norm mechanism (density ``exp(-eps ||z|| / sens)``)
    whose radius is Gamma(k, sens/eps), giving per-coordinate variance
    ``(k + 1) sens^2 / eps^2``.
    """
    if norm == 1:
        return 2.0 * (sensitivity / epsilon) ** 2
    return (num_rows + 1.0) * (sensitivity / epsilon) ** 2


class DistributedMatrixMechanism(Mechanism):
    """The local-model Matrix Mechanism with L1 (Laplace) or L2 (K-norm) noise.

    Parameters
    ----------
    norm:
        1 for the Laplace flavour, 2 for the K-norm flavour.
    """

    def __init__(self, norm: int) -> None:
        if norm not in (1, 2):
            raise OptimizationError(f"norm must be 1 or 2, got {norm}")
        self.norm = norm
        self.name = f"Matrix Mechanism (L{norm})"

    # -- strategy selection -------------------------------------------------

    def strategy_for(self, workload: Workload) -> np.ndarray:
        """Sensitivity-1 strategy: better of square-root and identity."""
        candidates = [
            square_root_strategy(workload.gram()),
            np.eye(workload.domain_size),
        ]
        best, best_loss = None, np.inf
        for candidate in candidates:
            normalized = candidate / local_sensitivity(candidate, self.norm)
            loss = self._noise_loss(normalized, workload)
            if loss < best_loss:
                best, best_loss = normalized, loss
        return best

    def _noise_loss(self, strategy: np.ndarray, workload: Workload) -> float:
        """``sigma_c^2 ||W A^+||_F^2`` for a sensitivity-1 strategy at eps=1."""
        sigma = per_coordinate_noise_variance(strategy.shape[0], 1.0, self.norm)
        return sigma * self._reconstruction_energy(strategy, workload)

    @staticmethod
    def _reconstruction_energy(strategy: np.ndarray, workload: Workload) -> float:
        """``||W A^+||_F^2 = tr[A^+^T (W^T W) A^+]`` in Gram space."""
        pinv = np.linalg.pinv(strategy)
        return float(np.einsum("ij,ik,kj->", pinv, workload.gram(), pinv))

    # -- analysis ------------------------------------------------------------

    def per_user_variances(self, workload: Workload, epsilon: float) -> np.ndarray:
        """Constant vector: additive noise affects every user type equally."""
        strategy = self.strategy_for(workload)
        sigma = per_coordinate_noise_variance(strategy.shape[0], epsilon, self.norm)
        value = sigma * self._reconstruction_energy(strategy, workload)
        return np.full(workload.domain_size, value)

    # -- execution -------------------------------------------------------------

    def sample_noise(
        self, num_rows: int, epsilon: float, rng: np.random.Generator
    ) -> np.ndarray:
        """One user's noise vector for a sensitivity-1 strategy."""
        if self.norm == 1:
            return rng.laplace(scale=1.0 / epsilon, size=num_rows)
        direction = rng.normal(size=num_rows)
        direction /= np.linalg.norm(direction)
        radius = rng.gamma(shape=num_rows, scale=1.0 / epsilon)
        return radius * direction

    def run(
        self,
        workload: Workload,
        data_vector: np.ndarray,
        epsilon: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Execute the full distributed protocol and return workload answers."""
        rng = rng or np.random.default_rng()
        strategy = self.strategy_for(workload)
        data_vector = np.asarray(data_vector, dtype=float)
        num_users = int(_user_counts(data_vector).sum())
        num_rows = strategy.shape[0]
        aggregate = strategy @ data_vector
        if self.norm == 1:
            remaining = num_users
            while remaining > 0:
                batch = min(remaining, 65536)
                aggregate += rng.laplace(
                    scale=1.0 / epsilon, size=(batch, num_rows)
                ).sum(axis=0)
                remaining -= batch
        else:
            directions = rng.normal(size=(num_users, num_rows))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = rng.gamma(shape=num_rows, scale=1.0 / epsilon, size=num_users)
            aggregate += (radii[:, None] * directions).sum(axis=0)
        estimate = np.linalg.pinv(strategy) @ aggregate
        return workload.matvec(estimate)
