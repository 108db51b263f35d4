"""Factorization and pseudo-inverse helpers for symmetric positive
semi-definite matrices.

The optimization objective of the factorization mechanism repeatedly needs
``(Q^T D^-1 Q)^†`` applied to the workload Gram matrix.  On the feasible
interior this matrix is positive definite and a Cholesky solve is both the
fastest and most numerically stable option; near the boundary (or for
deliberately rank-deficient strategies) it degrades to an eigenvalue-based
pseudo-inverse.  :func:`spd_factor` returns the Cholesky factor with a
condition estimate so the caller can choose, and :func:`psd_pinv` is the
fallback.  Only :func:`spd_factor` needs ``scipy.linalg``, and it imports
it on call: a process that never optimizes never loads it.
"""

from __future__ import annotations

import numpy as np


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M^T) / 2`` of a square matrix.

    Floating-point round-off makes products like ``Q^T D^-1 Q`` very slightly
    asymmetric; symmetrizing before an eigendecomposition keeps the
    decomposition real and the downstream algebra exact.
    """
    return (matrix + matrix.T) / 2.0


def spd_factor(
    matrix: np.ndarray, lower: bool = False
) -> tuple[tuple[np.ndarray, bool], float]:
    """Cholesky-factor a symmetric matrix and estimate its conditioning.

    Returns ``(factor, rcond)`` where ``factor`` is a
    :func:`scipy.linalg.cho_factor` result ready for
    :func:`scipy.linalg.cho_solve`, and ``rcond`` is LAPACK's ``?pocon``
    reciprocal-condition estimate (1-norm) — an ``O(n^2)`` add-on to the
    ``O(n^3 / 3)`` factorization.  Callers use ``rcond`` to decide whether
    the factorization is trustworthy or the matrix is close enough to
    singular that an eigenvalue pseudo-inverse is required.

    Raises
    ------
    numpy.linalg.LinAlgError
        (or the scipy subclass) when the matrix is not positive definite.

    Examples
    --------
    >>> import numpy as np
    >>> factor, rcond = spd_factor(np.diag([4.0, 1.0]))
    >>> bool(np.isclose(rcond, 0.25))
    True
    """
    import scipy.linalg

    matrix = np.asarray(matrix, dtype=float)
    anorm = float(np.abs(matrix).sum(axis=0).max(initial=0.0))
    factor = scipy.linalg.cho_factor(matrix, lower=lower, check_finite=False)
    uplo = b"L" if lower else b"U"
    rcond, info = scipy.linalg.lapack.dpocon(factor[0], anorm, uplo=uplo)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpocon failed with info={info}")
    return factor, float(rcond)


def psd_pinv(matrix: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Uses an eigendecomposition (cheaper and more accurate than generic SVD
    for symmetric input).  Eigenvalues below ``rcond * max_eigenvalue`` are
    treated as zero.

    Parameters
    ----------
    matrix:
        Symmetric positive semi-definite ``(n, n)`` array.
    rcond:
        Relative cutoff below which eigenvalues count as zero.

    Returns
    -------
    numpy.ndarray
        The pseudo-inverse, itself symmetric PSD.
    """
    matrix = symmetrize(np.asarray(matrix, dtype=float))
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    cutoff = rcond * max(eigenvalues.max(initial=0.0), 0.0)
    inverted = np.where(eigenvalues > cutoff, 1.0 / np.where(eigenvalues > cutoff, eigenvalues, 1.0), 0.0)
    return (eigenvectors * inverted) @ eigenvectors.T
