"""Tests for repro.domains."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.domains import BinaryDomain, Domain
from repro.exceptions import DomainError


class TestDomain:
    def test_size(self):
        assert Domain(5).size == 5

    def test_rejects_nonpositive_size(self):
        with pytest.raises(DomainError):
            Domain(0)

    def test_one_hot(self):
        assert np.array_equal(Domain(4).one_hot(2), [0.0, 0.0, 1.0, 0.0])

    def test_one_hot_out_of_range(self):
        with pytest.raises(DomainError):
            Domain(4).one_hot(4)

    def test_data_vector_counts(self):
        users = np.array([0, 2, 2, 3])
        assert np.array_equal(Domain(5).data_vector(users), [1, 0, 2, 1, 0])

    def test_data_vector_empty(self):
        assert np.array_equal(Domain(3).data_vector(np.array([], dtype=int)), [0, 0, 0])

    def test_data_vector_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Domain(3).data_vector(np.array([3]))


class TestBinaryDomain:
    def test_size(self):
        assert BinaryDomain(4).size == 16

    def test_flat_equivalent(self):
        assert BinaryDomain(3).flat() == Domain(8)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            BinaryDomain(0)

    def test_rejects_huge(self):
        with pytest.raises(DomainError):
            BinaryDomain(31)

    def test_attribute_values_lsb_first(self):
        assert np.array_equal(BinaryDomain(3).attribute_values(5), [1, 0, 1])

    def test_index_of_roundtrip(self):
        domain = BinaryDomain(4)
        for user_type in range(domain.size):
            assert domain.index_of(domain.attribute_values(user_type)) == user_type

    def test_index_of_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            BinaryDomain(3).index_of(np.array([0, 1]))

    def test_index_of_rejects_non_binary(self):
        with pytest.raises(DomainError):
            BinaryDomain(2).index_of(np.array([0, 2]))

    def test_all_attribute_values(self):
        table = BinaryDomain(2).all_attribute_values()
        assert np.array_equal(table, [[0, 0], [1, 0], [0, 1], [1, 1]])

    def test_hamming_table_symmetric_zero_diagonal(self):
        table = BinaryDomain(3).hamming_distance_table()
        assert np.array_equal(table, table.T)
        assert np.array_equal(np.diag(table), np.zeros(8))

    @given(st.integers(min_value=1, max_value=6))
    def test_hamming_table_matches_popcount(self, bits):
        domain = BinaryDomain(bits)
        table = domain.hamming_distance_table()
        assert table.dtype == np.int64
        for u in range(domain.size):
            for v in range(domain.size):
                assert table[u, v] == bin(u ^ v).count("1")
