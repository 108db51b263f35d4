"""Tests for repro.linalg.checks."""

import numpy as np
import pytest

from repro.linalg import (
    is_column_stochastic,
    is_ldp_matrix,
    ldp_ratio,
    max_abs_column_sum_error,
)


class TestColumnSums:
    def test_exact_stochastic(self):
        matrix = np.array([[0.25, 0.5], [0.75, 0.5]])
        assert max_abs_column_sum_error(matrix) == 0.0
        assert is_column_stochastic(matrix)

    def test_sum_error_reported(self):
        matrix = np.array([[0.3], [0.6]])
        assert np.isclose(max_abs_column_sum_error(matrix), 0.1)
        assert not is_column_stochastic(matrix)

    def test_negative_entry_rejected(self):
        matrix = np.array([[1.1], [-0.1]])
        assert not is_column_stochastic(matrix)

    def test_tolerance_respected(self):
        matrix = np.array([[0.5 + 5e-9], [0.5]])
        assert is_column_stochastic(matrix, atol=1e-8)
        assert not is_column_stochastic(matrix, atol=1e-10)


class TestLdpRatio:
    def test_uniform_matrix_ratio_one(self):
        assert ldp_ratio(np.full((3, 4), 0.25)) == 1.0

    def test_randomized_response_ratio(self):
        epsilon = 1.3
        boost = np.exp(epsilon)
        matrix = np.full((4, 4), 1.0)
        np.fill_diagonal(matrix, boost)
        matrix /= boost + 3
        assert np.isclose(ldp_ratio(matrix), boost)

    def test_zero_rows_ignored(self):
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert ldp_ratio(matrix) == 1.0

    def test_mixed_zero_row_infinite(self):
        matrix = np.array([[0.0, 0.5], [1.0, 0.5]])
        assert ldp_ratio(matrix) == np.inf

    def test_all_zero_matrix(self):
        assert ldp_ratio(np.zeros((2, 2))) == 1.0


class TestIsLdpMatrix:
    def test_satisfied(self):
        matrix = np.array([[0.6, 0.4], [0.4, 0.6]])
        assert is_ldp_matrix(matrix, epsilon=np.log(1.5))

    def test_violated(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert not is_ldp_matrix(matrix, epsilon=np.log(2.0))

    def test_relative_slack(self):
        ratio = np.exp(1.0) * (1 + 1e-10)
        matrix = np.array([[ratio, 1.0], [1.0, ratio]])
        matrix /= matrix.sum(axis=0)
        assert is_ldp_matrix(matrix, epsilon=1.0, rtol=1e-8)
        assert not is_ldp_matrix(matrix, epsilon=1.0, rtol=1e-12)

    @pytest.mark.parametrize("epsilon", [709.0, 710.0, 800.0, np.inf])
    def test_infinite_ratio_never_passes(self, epsilon):
        # exp(epsilon) overflows to inf above ~709.78; inf <= inf must not
        # let a zero-beside-non-zero row through.
        assert not is_ldp_matrix(np.eye(4), epsilon)
