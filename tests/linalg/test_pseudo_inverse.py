"""Tests for repro.linalg.pseudo_inverse."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.linalg import psd_pinv, symmetrize


def random_psd(size: int, rank: int, seed: int) -> np.ndarray:
    generator = np.random.default_rng(seed)
    factor = generator.normal(size=(size, rank))
    return factor @ factor.T


class TestSymmetrize:
    def test_already_symmetric_unchanged(self):
        matrix = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(symmetrize(matrix), matrix)

    def test_result_is_symmetric(self):
        matrix = np.arange(9.0).reshape(3, 3)
        result = symmetrize(matrix)
        assert np.array_equal(result, result.T)

    def test_average_of_transposes(self):
        matrix = np.array([[0.0, 2.0], [4.0, 0.0]])
        assert np.allclose(symmetrize(matrix), [[0.0, 3.0], [3.0, 0.0]])


class TestPsdPinv:
    def test_inverse_of_identity(self):
        assert np.allclose(psd_pinv(np.eye(4)), np.eye(4))

    def test_matches_numpy_pinv_full_rank(self):
        matrix = random_psd(6, 6, 3) + 0.5 * np.eye(6)
        assert np.allclose(psd_pinv(matrix), np.linalg.pinv(matrix))

    def test_matches_numpy_pinv_rank_deficient(self):
        matrix = random_psd(7, 3, 4)
        assert np.allclose(psd_pinv(matrix), np.linalg.pinv(matrix), atol=1e-8)

    def test_penrose_conditions(self):
        matrix = random_psd(6, 4, 5)
        pinv = psd_pinv(matrix)
        assert np.allclose(matrix @ pinv @ matrix, matrix, atol=1e-8)
        assert np.allclose(pinv @ matrix @ pinv, pinv, atol=1e-8)
        assert np.allclose((matrix @ pinv).T, matrix @ pinv, atol=1e-8)

    def test_zero_matrix(self):
        assert np.array_equal(psd_pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=1000))
    def test_result_is_psd(self, size, seed):
        matrix = random_psd(size, max(1, size // 2), seed)
        eigenvalues = np.linalg.eigvalsh(psd_pinv(matrix))
        assert eigenvalues.min() >= -1e-9
