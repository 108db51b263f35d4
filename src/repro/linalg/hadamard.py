"""Sylvester-Hadamard matrices and the fast Walsh-Hadamard transform.

The Hadamard-response mechanism (Acharya et al.) and the Fourier mechanism
(Cormode et al.) both rely on the +-1-valued Sylvester-Hadamard matrix

    H_1 = [1],   H_{2K} = [[H_K, H_K], [H_K, -H_K]]

whose rows are the characters chi_S(u) = (-1)^{<S, u>} of the group Z_2^k.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DomainError


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (with ``value >= 1``)."""
    if value < 1:
        raise DomainError(f"next_power_of_two requires value >= 1, got {value}")
    return 1 << (value - 1).bit_length()


def hadamard_matrix(order: int) -> np.ndarray:
    """Return the Sylvester-Hadamard matrix of the given power-of-two order.

    Entry ``H[o, u] = (-1)^{popcount(o & u)}``, so row ``o`` is the character
    indexed by the bit pattern of ``o``.  The matrix is built in place by
    Sylvester doubling, ``H_2K = [[H_K, H_K], [H_K, -H_K]]``, with no
    temporary beyond the result.

    Parameters
    ----------
    order:
        Matrix order; must be a power of two.

    Returns
    -------
    numpy.ndarray
        ``(order, order)`` array with entries in ``{-1.0, +1.0}``.

    Examples
    --------
    >>> hadamard_matrix(4)
    array([[ 1.,  1.,  1.,  1.],
           [ 1., -1.,  1., -1.],
           [ 1.,  1., -1., -1.],
           [ 1., -1., -1.,  1.]])
    """
    if order < 1 or order & (order - 1):
        raise DomainError(f"Hadamard order must be a power of two, got {order}")
    matrix = np.empty((order, order))
    matrix[0, 0] = 1.0
    size = 1
    while size < order:
        block = matrix[:size, :size]
        matrix[:size, size : 2 * size] = block
        matrix[size : 2 * size, :size] = block
        np.negative(block, out=matrix[size : 2 * size, size : 2 * size])
        size *= 2
    return matrix


def fwht(vector: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform, ``H @ vector`` in ``O(K log K)``.

    Accepts a 1-D array whose length is a power of two, or a 2-D array in
    which case the transform is applied to each column.  The transform is
    unnormalized so ``fwht(fwht(v)) == len(v) * v``.
    """
    result = np.array(vector, dtype=float, copy=True)
    length = result.shape[0]
    if length < 1 or length & (length - 1):
        raise DomainError(f"fwht length must be a power of two, got {length}")
    span = 1
    while span < length:
        for start in range(0, length, span * 2):
            upper = result[start : start + span].copy()
            lower = result[start + span : start + 2 * span]
            result[start : start + span] = upper + lower
            result[start + span : start + 2 * span] = upper - lower
        span *= 2
    return result
