"""The optimization objective ``L(Q)`` of Theorem 3.11 and its gradient.

    L(Q) = tr[ A^+ C ],   A = Q^T D^-1 Q,   D = Diag(Q 1),   C = W^T W

The gradient, in closed form:

    G      = dL/dA = -A^-1 C A^-1                      (symmetric)
    dL/dQ  = 2 D^-1 Q G  -  diag(D^-1 Q G Q^T D^-1) 1^T

The first term is the usual quadratic-form derivative; the second accounts
for ``D``'s dependence on the row sums of ``Q`` (``dD_oo / dQ_ou = 1``).
The gradient is validated against central finite differences in the test
suite.

:func:`objective_value` / :func:`objective_and_gradient` evaluate one
strategy through a one-shot
:class:`repro.optimization.kernels.ObjectiveWorkspace` — the
factorization-cached engine (Cholesky solves with an eigenvalue fallback,
BLAS ``syrk`` core, fused feasibility).  The descent loop builds one
workspace per run instead of going through these wrappers.  A strategy that
cannot answer the workload (``W != W Q^+ Q``) has ``L(Q) = inf``.

Cost per evaluation is ``O(n^2 m + n^3)``, matching the complexity analysis
in Section 4 of the paper (see docs/optimizer.md for the per-term
breakdown).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimization.kernels import ObjectiveWorkspace


def objective_value(
    strategy: np.ndarray, gram: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """Evaluate ``L(Q)`` only (cheaper than value+gradient).

    ``weights`` generalizes to the prior-weighted objective of footnote 2:
    ``D = Diag(Q w)`` with ``w = n * prior`` (``None`` = uniform, the
    paper's default).

    Examples
    --------
    The value matches the defining trace formula evaluated directly:

    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> q = randomized_response(4, epsilon=1.0).probabilities
    >>> gram = histogram(4).gram()
    >>> value = objective_value(q, gram)
    >>> core = q.T @ np.diag(1.0 / q.sum(axis=1)) @ q
    >>> bool(np.isclose(value, np.trace(np.linalg.pinv(core) @ gram)))
    True
    """
    workspace = _one_shot_workspace(strategy, gram, weights)
    return workspace.value(np.asarray(strategy, dtype=float))


def objective_and_gradient(
    strategy: np.ndarray, gram: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Evaluate ``L(Q)`` and ``dL/dQ`` together (shares the heavy factors).

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> q = randomized_response(4, epsilon=1.0).probabilities
    >>> value, gradient = objective_and_gradient(q, histogram(4).gram())
    >>> gradient.shape
    (4, 4)
    >>> value == objective_value(q, histogram(4).gram())
    True
    """
    workspace = _one_shot_workspace(strategy, gram, weights)
    return workspace.value_and_gradient(np.asarray(strategy, dtype=float))


def _one_shot_workspace(
    strategy: np.ndarray, gram: np.ndarray, weights: np.ndarray | None
) -> ObjectiveWorkspace:
    """A workspace sized for one strategy, skipping the Gram eigenfactor
    (not worth its ``O(n^3)`` setup for a single evaluation)."""
    strategy = np.asarray(strategy, dtype=float)
    if strategy.ndim != 2:
        raise OptimizationError(f"strategy must be 2-D, got {strategy.ndim}-D")
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (strategy.shape[1], strategy.shape[1]):
        raise OptimizationError(
            f"gram shape {gram.shape} does not match domain size {strategy.shape[1]}"
        )
    return ObjectiveWorkspace(gram, strategy.shape[0], weights, factor_gram=False)
