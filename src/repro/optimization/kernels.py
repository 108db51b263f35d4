"""Factorization-cached evaluation kernels for the optimizer hot path.

Every evaluation of ``L(Q) = tr[(Q^T D^-1 Q)^+ C]`` inside one
``optimize_strategy`` run shares the same workload Gram ``C = W^T W`` — the
factorization-mechanism view (Edmonds–Nikolov–Ullman 2019) of why strategy
optimization is a pure function of the public Gram.

:class:`ObjectiveWorkspace` is the cached engine: created once per
optimization run, it holds the Gram, a one-time eigenfactor ``C = F^T F``,
and preallocated scratch, and evaluates the objective via

* a BLAS ``syrk`` for the symmetric core ``A = Q^T D^-1 Q`` (half the flops
  of a general matmul),
* a Cholesky factorization of ``A`` with a LAPACK ``pocon`` conditioning
  gate — on success the value is ``||L^-1 F^T||_F^2`` and the gradient core
  is ``-(A^-1 F^T)(A^-1 F^T)^T``, all triangular solves,
* an eigenvalue fallback *only* when the factorization fails or the
  condition estimate crosses the gate — the pseudo-inverse semantics of
  Theorem 3.11, with the feasibility mass read off the null-space basis
  (``O(n^2 k)``) instead of a dense ``n x n`` residual map.

A positive-definite Cholesky *is* the feasibility certificate: ``A`` full
rank means the factorization constraint ``W = W Q^+ Q`` holds for every
workload, so the fast path never pays for the check at all.

:class:`FastEngine` wraps the workspace and the projection behind the small
evaluator interface Algorithm 2's descent loop is written against, including
batched multi-candidate evaluation through shared buffers and fused batch
projection.

``scipy.linalg`` (``syrk``, Cholesky and the triangular solves) is imported
inside the methods that factor, so the serving processes, which import this
module through :mod:`repro` but never optimize, do not load it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError
from repro.linalg import spd_factor
from repro.optimization.projection import (
    ProjectionState,
    project_columns,
    project_columns_batch,
)

#: Row sums below this value are treated as dead outputs.
_ROW_SUM_FLOOR = 1e-300

#: Eigenvalues below ``rcond * max_eigenvalue`` count as zero in the
#: fallback pseudo-inverse (matches :func:`repro.linalg.psd_pinv`).
_PINV_RCOND = 1e-12

#: Reciprocal-condition gate for trusting a Cholesky factorization.  Kept
#: two orders of magnitude above the pseudo-inverse cutoff so any core whose
#: small eigenvalues the pseudo-inverse would drop is routed through the
#: eigenvalue fallback instead of an ill-conditioned solve.
_CHOLESKY_RCOND_FLOOR = 1e-10

#: Feasibility threshold: workload mass outside ``range(A)`` beyond this
#: fraction of ``tr(C)`` means the step overshot into the infeasible region.
_INFEASIBLE_REL_TOL = 1e-9


class ObjectiveWorkspace:
    """Per-run evaluation engine for ``L(Q)`` and its gradient.

    Parameters
    ----------
    gram:
        The workload Gram matrix ``C = W^T W`` (``n x n``).
    num_outputs:
        Number of strategy rows ``m`` every evaluated matrix must have.
    weights:
        Optional prior weights ``w`` (length ``n``): ``D = Diag(Q w)``
        instead of the uniform ``Diag(Q 1)``.
    factor_gram:
        Precompute the one-time eigenfactor ``C = F^T F`` (rank ``r``),
        turning every value/gradient evaluation into triangular solves
        against ``F^T``.  Worth it whenever more than a couple of
        evaluations share the workspace; one-shot callers skip it.

    Examples
    --------
    The workspace agrees with the defining trace formula:

    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> q = randomized_response(4, epsilon=1.0).probabilities
    >>> gram = histogram(4).gram()
    >>> workspace = ObjectiveWorkspace(gram, q.shape[0])
    >>> core = q.T @ np.diag(1.0 / q.sum(axis=1)) @ q
    >>> bool(np.isclose(workspace.value(q), np.trace(np.linalg.pinv(core) @ gram)))
    True
    """

    def __init__(
        self,
        gram: np.ndarray,
        num_outputs: int,
        weights: np.ndarray | None = None,
        *,
        factor_gram: bool = True,
    ) -> None:
        gram = np.ascontiguousarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise OptimizationError(f"gram must be square, got shape {gram.shape}")
        if num_outputs < 1:
            raise OptimizationError(f"num_outputs must be >= 1, got {num_outputs}")
        self.gram = gram
        self.domain_size = int(gram.shape[0])
        self.num_outputs = int(num_outputs)
        self.gram_trace = float(np.trace(gram))
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (self.domain_size,):
                raise OptimizationError(
                    f"weights shape {weights.shape} != domain size "
                    f"{self.domain_size}"
                )
        self.weights = weights

        n, m = self.domain_size, self.num_outputs
        # Scratch reused by every evaluation: the scaled strategy D^-1/2 Q
        # (Fortran order so BLAS syrk consumes it without a copy), the
        # symmetric core, and the D^-1 Q buffer the gradient tail needs.
        self._scaled = np.empty((m, n), order="F")
        self._core = np.empty((n, n), order="F")
        self._weighted = np.empty((m, n))
        self._tril = np.tril_indices(n, k=-1)

        self._gram_factor_t: np.ndarray | None = None
        if factor_gram:
            eigenvalues, eigenvectors = np.linalg.eigh((gram + gram.T) / 2.0)
            cutoff = _PINV_RCOND * max(eigenvalues.max(initial=0.0), 0.0)
            keep = eigenvalues > cutoff
            # F^T with columns sqrt(w_i) v_i, so C = (F^T)(F^T)^T exactly.
            self._gram_factor_t = np.asfortranarray(
                eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])
            )

    # ------------------------------------------------------------------
    # shared plumbing

    def _validate(self, strategy: np.ndarray) -> np.ndarray:
        strategy = np.asarray(strategy, dtype=float)
        if strategy.ndim != 2:
            raise OptimizationError(f"strategy must be 2-D, got {strategy.ndim}-D")
        if strategy.shape != (self.num_outputs, self.domain_size):
            raise OptimizationError(
                f"strategy shape {strategy.shape} does not match workspace "
                f"shape {(self.num_outputs, self.domain_size)}"
            )
        return strategy

    def _row_sums(self, strategy: np.ndarray) -> np.ndarray:
        if self.weights is None:
            row_sums = strategy.sum(axis=1)
        else:
            row_sums = strategy @ self.weights
        if row_sums.min() < -_ROW_SUM_FLOOR:
            raise OptimizationError("strategy has a negative row sum")
        return row_sums

    def _factorize(self, strategy: np.ndarray, row_sums: np.ndarray):
        """The core ``A = Q^T D^-1 Q`` and its factorization.

        Returns ``("cholesky", factor)`` when the conditioning-gated
        Cholesky succeeds (feasibility is then implied by full rank), or
        ``("eigh", (eigenvalues, eigenvectors, keep))`` for the fallback;
        ``None`` when the eigenvalue path finds the strategy infeasible for
        the workload.
        """
        import scipy.linalg

        safe = np.maximum(row_sums, _ROW_SUM_FLOOR)
        live = row_sums > _ROW_SUM_FLOOR
        inv_sqrt = np.where(live, 1.0 / np.sqrt(safe), 0.0)
        np.multiply(strategy, inv_sqrt[:, None], out=self._scaled)
        core = scipy.linalg.blas.dsyrk(
            1.0, self._scaled, trans=1, lower=0, c=self._core, overwrite_c=1
        )
        # syrk writes one triangle; mirror it so the eigh fallback and the
        # condition estimate see the full (exactly symmetric) matrix.
        rows, cols = self._tril
        core[rows, cols] = core[cols, rows]

        try:
            factor, rcond = spd_factor(core)
        except np.linalg.LinAlgError:
            factor, rcond = None, 0.0
        if factor is not None and rcond > _CHOLESKY_RCOND_FLOOR:
            return "cholesky", factor

        eigenvalues, eigenvectors = np.linalg.eigh(core)
        cutoff = _PINV_RCOND * max(eigenvalues.max(initial=0.0), 0.0)
        keep = eigenvalues > cutoff
        if not keep.all():
            # Fused feasibility check: the workload mass in the null space
            # of A is tr(V0^T C V0) over the dropped eigenvectors — the
            # dense residual-map einsum without the n x n temporary.
            null_basis = eigenvectors[:, ~keep]
            infeasible_mass = float(np.sum(null_basis * (self.gram @ null_basis)))
            if infeasible_mass > _INFEASIBLE_REL_TOL * max(self.gram_trace, 1e-30):
                return None
        return "eigh", (eigenvalues, eigenvectors, keep)

    def _pinv_from_eigh(self, decomposition) -> np.ndarray:
        eigenvalues, eigenvectors, keep = decomposition
        kept = eigenvectors[:, keep]
        return (kept / eigenvalues[keep]) @ kept.T

    # ------------------------------------------------------------------
    # evaluations

    def value(self, strategy: np.ndarray) -> float:
        """Evaluate ``L(Q)`` only (the line-search probe).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> q = randomized_response(4, epsilon=1.0).probabilities
        >>> workspace = ObjectiveWorkspace(histogram(4).gram(), 4)
        >>> round(workspace.value(q), 6) == round(workspace.value(q), 6)
        True
        """
        strategy = self._validate(strategy)
        factorization = self._factorize(strategy, self._row_sums(strategy))
        if factorization is None:
            return np.inf
        kind, data = factorization
        if kind == "cholesky":
            return self._cholesky_value(data)
        pinv = self._pinv_from_eigh(data)
        return float(np.sum(pinv * self.gram))

    def _cholesky_value(self, factor) -> float:
        import scipy.linalg

        if self._gram_factor_t is not None:
            # tr(A^-1 C) = ||L^-1 F^T||_F^2 with A = L L^T = U^T U.
            matrix, lower = factor
            half = scipy.linalg.solve_triangular(
                matrix,
                self._gram_factor_t,
                lower=lower,
                trans=0 if lower else 1,
                check_finite=False,
            )
            return float(np.sum(half * half))
        solved = scipy.linalg.cho_solve(factor, self.gram, check_finite=False)
        return float(np.trace(solved))

    def value_and_gradient(
        self, strategy: np.ndarray
    ) -> tuple[float, np.ndarray | None]:
        """Evaluate ``L(Q)`` and ``dL/dQ`` together (shared factorization).

        Returns ``(inf, None)`` when the strategy cannot answer the
        workload (the factorization constraint fails).
        """
        import scipy.linalg

        strategy = self._validate(strategy)
        row_sums = self._row_sums(strategy)
        factorization = self._factorize(strategy, row_sums)
        if factorization is None:
            return np.inf, None
        kind, data = factorization
        if kind == "cholesky":
            if self._gram_factor_t is not None:
                # Z = A^-1 F^T: value = <Z, F^T>, sensitivity = -Z Z^T, an
                # exactly symmetric syrk.
                solved = scipy.linalg.cho_solve(
                    data, self._gram_factor_t, check_finite=False
                )
                value = float(np.sum(solved * self._gram_factor_t))
                sensitivity = scipy.linalg.blas.dsyrk(-1.0, np.asfortranarray(solved))
                rows, cols = self._tril
                sensitivity[rows, cols] = sensitivity[cols, rows]
            else:
                solved = scipy.linalg.cho_solve(data, self.gram, check_finite=False)
                value = float(np.trace(solved))
                sensitivity = scipy.linalg.cho_solve(
                    data, np.ascontiguousarray(solved.T), check_finite=False
                )
                sensitivity = -(sensitivity + sensitivity.T) / 2.0
        else:
            pinv = self._pinv_from_eigh(data)
            value = float(np.sum(pinv * self.gram))
            product = pinv @ self.gram @ pinv
            sensitivity = -(product + product.T) / 2.0
        return value, self._gradient_tail(strategy, row_sums, sensitivity)

    def _gradient_tail(
        self,
        strategy: np.ndarray,
        row_sums: np.ndarray,
        sensitivity: np.ndarray,
    ) -> np.ndarray:
        safe = np.maximum(row_sums, _ROW_SUM_FLOOR)
        live = row_sums > _ROW_SUM_FLOOR
        inv_rows = np.where(live, 1.0 / safe, 0.0)
        np.multiply(strategy, inv_rows[:, None], out=self._weighted)
        weighted_sensitivity = self._weighted @ sensitivity
        diagonal = np.einsum("ou,ou->o", weighted_sensitivity, self._weighted)
        if self.weights is None:
            return 2.0 * weighted_sensitivity - diagonal[:, None]
        return 2.0 * weighted_sensitivity - np.outer(diagonal, self.weights)

    def value_batch(self, strategies) -> np.ndarray:
        """Evaluate ``L`` for several candidates through the shared buffers.

        One entry per candidate, ``inf`` where the candidate is infeasible
        — exactly :meth:`value` mapped over the batch, without the
        per-candidate allocation churn of independent full passes.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> q = randomized_response(4, epsilon=1.0).probabilities
        >>> workspace = ObjectiveWorkspace(histogram(4).gram(), 4)
        >>> values = workspace.value_batch([q, q])
        >>> bool(np.isclose(values[0], values[1]))
        True
        """
        return np.array([self.value(strategy) for strategy in strategies])


class FastEngine:
    """The workspace-backed evaluator Algorithm 2's loop runs against."""

    def __init__(
        self,
        gram: np.ndarray,
        num_outputs: int,
        weights: np.ndarray | None = None,
    ) -> None:
        self.workspace = ObjectiveWorkspace(
            gram, num_outputs, weights, factor_gram=True
        )

    def value(self, strategy: np.ndarray) -> float:
        return self.workspace.value(strategy)

    def value_and_gradient(self, strategy: np.ndarray):
        return self.workspace.value_and_gradient(strategy)

    def value_batch(self, strategies) -> np.ndarray:
        return self.workspace.value_batch(strategies)

    def project(
        self,
        matrix: np.ndarray,
        bounds: np.ndarray,
        epsilon: float,
        initial_multipliers: np.ndarray | None = None,
    ) -> ProjectionState:
        return project_columns(
            matrix, bounds, epsilon, initial_multipliers=initial_multipliers
        )

    def project_batch(
        self,
        matrices,
        bounds: np.ndarray,
        epsilon: float,
        initial_multipliers: np.ndarray | None = None,
    ) -> list[ProjectionState]:
        return project_columns_batch(
            matrices, bounds, epsilon, initial_multipliers=initial_multipliers
        )
