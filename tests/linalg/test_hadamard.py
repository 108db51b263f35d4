"""Tests for repro.linalg.hadamard."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DomainError
from repro.linalg import fwht, hadamard_matrix, next_power_of_two


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "value,expected",
        [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (9, 16), (513, 1024)],
    )
    def test_values(self, value, expected):
        assert next_power_of_two(value) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            next_power_of_two(0)


class TestHadamardMatrix:
    def test_order_one(self):
        assert np.array_equal(hadamard_matrix(1), [[1.0]])

    def test_order_two(self):
        assert np.array_equal(hadamard_matrix(2), [[1.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("order", [1 << power for power in range(11)])
    def test_bytes_match_popcount_definition(self, order):
        indices = np.arange(order)
        parity = np.bitwise_count(indices[:, None] & indices[None, :]) & 1
        expected = np.where(parity == 1, -1.0, 1.0)
        assert hadamard_matrix(order).tobytes() == expected.tobytes()

    def test_sylvester_recursion(self):
        h4 = hadamard_matrix(4)
        h2 = hadamard_matrix(2)
        expected = np.block([[h2, h2], [h2, -h2]])
        assert np.array_equal(h4, expected)

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_orthogonality(self, order):
        h = hadamard_matrix(order)
        assert np.allclose(h @ h.T, order * np.eye(order))

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_balanced_columns(self, order):
        h = hadamard_matrix(order)
        # Every column except the first has exactly order/2 positive entries.
        positives = (h > 0).sum(axis=0)
        assert positives[0] == order
        assert np.all(positives[1:] == order // 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            hadamard_matrix(6)


class TestFwht:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 64])
    def test_matches_matrix_product(self, order):
        generator = np.random.default_rng(order)
        vector = generator.normal(size=order)
        assert np.allclose(fwht(vector), hadamard_matrix(order) @ vector)

    def test_involution_up_to_scale(self):
        vector = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(fwht(fwht(vector)), 4 * vector)

    def test_2d_input_transforms_columns(self):
        generator = np.random.default_rng(0)
        block = generator.normal(size=(8, 3))
        result = fwht(block)
        for column in range(3):
            assert np.allclose(result[:, column], fwht(block[:, column]))

    def test_does_not_mutate_input(self):
        vector = np.ones(4)
        fwht(vector)
        assert np.array_equal(vector, np.ones(4))

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            fwht(np.ones(3))

    @given(st.integers(min_value=0, max_value=5))
    def test_parseval(self, log_order):
        order = 1 << log_order
        generator = np.random.default_rng(log_order)
        vector = generator.normal(size=order)
        transformed = fwht(vector)
        assert np.isclose(np.sum(transformed**2), order * np.sum(vector**2))
