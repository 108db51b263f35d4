"""Tests for the marginals workloads."""

import numpy as np
import pytest
from scipy.special import comb

from repro.domains import BinaryDomain
from repro.exceptions import WorkloadError
from repro.workloads import all_marginals, k_way_marginals
from repro.workloads.marginals import MarginalsWorkload, _marginal_rows


class TestMarginalRows:
    def test_empty_subset_is_total(self):
        rows = _marginal_rows(BinaryDomain(3), 0)
        assert rows.shape == (1, 8)
        assert np.array_equal(rows, np.ones((1, 8)))

    def test_single_attribute(self):
        rows = _marginal_rows(BinaryDomain(2), 0b01)
        # Setting 0: types with attribute0 = 0 -> {0, 2}; setting 1 -> {1, 3}.
        assert np.array_equal(rows, [[1, 0, 1, 0], [0, 1, 0, 1]])

    def test_rows_partition_domain(self):
        rows = _marginal_rows(BinaryDomain(4), 0b1010)
        assert np.array_equal(rows.sum(axis=0), np.ones(16))


class TestAllMarginals:
    def test_query_count_3k(self):
        assert all_marginals(3).num_queries == 27

    @pytest.mark.parametrize("attributes", [1, 2, 3, 4])
    def test_gram_closed_form(self, attributes):
        workload = all_marginals(attributes)
        explicit = workload.matrix
        assert np.allclose(workload.gram(), explicit.T @ explicit)

    def test_frobenius(self):
        workload = all_marginals(3)
        # ||W||_F^2 = n * 2^k = 8 * 8.
        assert workload.frobenius_norm_squared() == 64.0

    def test_includes_total_query(self):
        matrix = all_marginals(2).matrix
        assert any(np.array_equal(row, np.ones(4)) for row in matrix)


class TestKWayMarginals:
    def test_query_count(self):
        workload = k_way_marginals(5, 3)
        assert workload.num_queries == comb(5, 3, exact=True) * 8

    @pytest.mark.parametrize("attributes,way", [(3, 1), (3, 3), (4, 2), (5, 3)])
    def test_gram_closed_form(self, attributes, way):
        workload = k_way_marginals(attributes, way)
        explicit = workload.matrix
        assert np.allclose(workload.gram(), explicit.T @ explicit)

    @pytest.mark.parametrize("attributes", range(1, 11))
    def test_gram_bytes_match_scipy_comb(self, attributes):
        agree = attributes - BinaryDomain(attributes).hamming_distance_table()
        for way in range(1, attributes + 1):
            expected = comb(agree, way).astype(float)
            gram = k_way_marginals(attributes, way).gram()
            assert gram.tobytes() == expected.tobytes()

    def test_rows_are_indicators(self):
        matrix = k_way_marginals(4, 2).matrix
        assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_rejects_bad_way(self):
        with pytest.raises(WorkloadError):
            k_way_marginals(3, 4)
        with pytest.raises(WorkloadError):
            k_way_marginals(3, 0)

    def test_name_mentions_way(self):
        assert k_way_marginals(4, 3).name == "3-Way Marginals"


class TestMarginalsWorkloadValidation:
    def test_rejects_empty_subsets(self):
        with pytest.raises(WorkloadError):
            MarginalsWorkload(BinaryDomain(2), [], name="empty")

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(WorkloadError):
            MarginalsWorkload(BinaryDomain(2), [4], name="bad")


MATVEC_CASES = [(k, None) for k in range(1, 7)] + [
    (k, way) for k in range(1, 7) for way in range(1, k + 1)
]


class TestMatvec:
    """``matvec`` sums the data tensor instead of building ``W``."""

    @pytest.fixture(params=MATVEC_CASES, ids=lambda case: f"k={case[0]},way={case[1]}")
    def workload_and_matrix(self, request, monkeypatch):
        attributes, way = request.param
        if way is None:
            workload = all_marginals(attributes)
        else:
            workload = k_way_marginals(attributes, way)
        matrix = workload.matrix

        def refuse(self):
            raise AssertionError("matvec built the explicit matrix")

        monkeypatch.setattr(MarginalsWorkload, "matrix", property(refuse))
        return workload, matrix

    def test_exact_on_integer_vectors(self, workload_and_matrix):
        workload, matrix = workload_and_matrix
        x = np.random.default_rng(0).integers(0, 10_000, workload.domain_size)
        assert np.array_equal(workload.matvec(x), matrix @ x)

    def test_matches_on_float_vectors(self, workload_and_matrix):
        workload, matrix = workload_and_matrix
        x = np.random.default_rng(1).random(workload.domain_size)
        np.testing.assert_allclose(workload.matvec(x), matrix @ x, rtol=1e-12)

    def test_rejects_wrong_length(self, workload_and_matrix):
        workload, _ = workload_and_matrix
        with pytest.raises(WorkloadError):
            workload.matvec(np.ones(workload.domain_size + 1))
