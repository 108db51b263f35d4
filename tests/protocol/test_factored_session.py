"""Tests for the factored protocol session and accumulator.

The decisive check: feeding the *same* per-attribute responses to the
factored pipeline (count tables + factor-wise reconstruction) and to the
dense pipeline (flat histogram + joint reconstruction) yields the same
marginal estimates — the implicit-operator path is an exact refactoring of
Theorem 3.10, not an approximation.
"""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.mechanisms import FactoredStrategy, randomized_response
from repro.protocol import (
    FactoredAccumulator,
    FactoredProtocolSession,
    ProtocolSession,
)
from repro.workloads import all_product_marginals, k_way_product_marginals

SIZES = (3, 2, 4)


def make_strategy(epsilon_each: float = 0.4) -> FactoredStrategy:
    return FactoredStrategy(
        tuple(randomized_response(size, epsilon_each) for size in SIZES)
    )


def make_session(workload=None) -> FactoredProtocolSession:
    return FactoredProtocolSession(
        make_strategy(), workload or all_product_marginals(SIZES)
    )


def random_rows(num_users: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, size, num_users) for size in SIZES])


class TestFactoredAccumulator:
    def test_fold_matches_naive_counting(self):
        state = FactoredAccumulator((2, 3, 2), [(0, 2), (1,)])
        responses = np.array([[0, 2, 1], [1, 0, 1], [0, 2, 0], [0, 2, 1]])
        state.add_responses(responses)
        # subset (0, 2): axes descending -> (m_2, m_0); count [o2, o0].
        pair_table = np.zeros((2, 2), dtype=np.int64)
        for o0, _, o2 in responses:
            pair_table[o2, o0] += 1
        assert np.array_equal(state.tables[0], pair_table)
        assert np.array_equal(state.tables[1], np.array([1, 0, 3]))
        assert state.num_reports == 4

    def test_empty_subset_counts_reports(self):
        state = FactoredAccumulator((2, 2), [()])
        state.add_responses(np.array([[0, 1], [1, 0], [1, 1]]))
        assert np.array_equal(state.tables[0], np.array([3]))

    def test_merge_is_exact_and_commutative(self):
        subsets = [(0,), (0, 1)]
        left = FactoredAccumulator((3, 4), subsets)
        right = FactoredAccumulator((3, 4), subsets)
        rng = np.random.default_rng(0)
        a = np.column_stack([rng.integers(0, 3, 50), rng.integers(0, 4, 50)])
        b = np.column_stack([rng.integers(0, 3, 20), rng.integers(0, 4, 20)])
        left.add_responses(a)
        right.add_responses(b)
        both = FactoredAccumulator((3, 4), subsets)
        both.add_responses(np.vstack([a, b]))
        assert left.merge(right) == right.merge(left) == both

    def test_merge_all_and_snapshot(self):
        subsets = [(0,)]
        shards = []
        for seed in range(4):
            shard = FactoredAccumulator((3,), subsets)
            shard.add_responses(
                np.random.default_rng(seed).integers(0, 3, (10, 1))
            )
            shards.append(shard)
        merged = FactoredAccumulator.merge_all(shards)
        assert merged.num_reports == 40
        frozen = shards[0].snapshot()
        shards[0].add_responses(np.array([[0]]))
        assert frozen.num_reports == 10

    def test_serialization_round_trip(self):
        state = FactoredAccumulator((2, 3), [(0,), (1,), (0, 1)])
        state.add_responses(np.array([[0, 2], [1, 1], [1, 2]]))
        restored = FactoredAccumulator.from_bytes(state.to_bytes())
        assert restored == state

    def test_from_bytes_rejects_garbage_and_wrong_magic(self):
        with pytest.raises(ProtocolError):
            FactoredAccumulator.from_bytes(b"not an npz")
        from repro.protocol import ShardAccumulator

        dense_payload = ShardAccumulator(4).to_bytes()
        with pytest.raises(ProtocolError):
            FactoredAccumulator.from_bytes(dense_payload)

    @pytest.mark.parametrize("num_reports", [50, 2, 0])
    def test_from_bytes_rejects_a_forged_report_count(self, num_reports):
        # Every table is a marginal of the same 3 reports, so sums to 3.
        forged = FactoredAccumulator((2, 2), [(0,), (0, 1)])
        forged.add_responses(np.array([[0, 1], [1, 1], [1, 0]]))
        forged.num_reports = num_reports
        with pytest.raises(ProtocolError, match="table holds 3"):
            FactoredAccumulator.from_bytes(forged.to_bytes())

    def test_rejects_out_of_range_and_bad_shape(self):
        state = FactoredAccumulator((2, 2), [(0,)])
        with pytest.raises(ProtocolError):
            state.add_responses(np.array([[0, 2]]))  # attr 1 out of range
        with pytest.raises(ProtocolError):
            state.add_responses(np.array([[0]]))  # wrong width
        with pytest.raises(ProtocolError):
            state.merge(FactoredAccumulator((2, 2), [(1,)]))


class TestFactoredSessionEquivalence:
    def test_matches_dense_session_on_same_responses(self):
        workload = all_product_marginals(SIZES)
        strategy = make_strategy()
        session = FactoredProtocolSession(strategy, workload)
        rows = random_rows(400, seed=5)
        responses = strategy.sample_attribute_responses(
            rows, np.random.default_rng(9)
        )
        factored = session.finalize(
            session.new_accumulator().add_responses(responses)
        )

        dense_session = ProtocolSession(strategy.materialize(), workload)
        dense_accumulator = dense_session.new_accumulator().add_reports(
            strategy.flatten_responses(responses)
        )
        dense = dense_session.finalize(dense_accumulator)

        scale = max(1.0, float(np.max(np.abs(dense.workload_estimates))))
        assert np.allclose(
            factored.workload_estimates,
            dense.workload_estimates,
            atol=1e-9 * scale,
        )
        assert factored.num_users == dense.num_users == 400

    def test_marginal_estimates_keyed_by_subset(self):
        session = make_session(k_way_product_marginals(SIZES, 1))
        result = session.run(random_rows(100, seed=1), seed=0)
        assert set(result.marginal_estimates) == {(0,), (1,), (2,)}
        assert result.marginal_estimates[(2,)].shape == (4,)
        # Unbiasedness sanity: each marginal estimate sums to ~N exactly
        # (1^T B_i = 1^T makes the total exactly the report count).
        for estimate in result.marginal_estimates.values():
            assert np.isclose(estimate.sum(), 100.0, atol=1e-6)

    def test_estimates_converge_to_truth(self):
        rng = np.random.default_rng(0)
        num_users = 40_000
        rows = np.column_stack(
            [rng.integers(0, size, num_users) for size in SIZES]
        )
        strategy = FactoredStrategy(
            tuple(randomized_response(size, 2.0) for size in SIZES)
        )
        workload = k_way_product_marginals(SIZES, 1)
        session = FactoredProtocolSession(strategy, workload)
        result = session.run(rows, seed=3)
        truth = np.concatenate(
            [
                np.bincount(rows[:, attribute], minlength=SIZES[attribute])
                for attribute in range(len(SIZES))
            ]
        ).astype(float)
        # Loose statistical check: within a few percent of the population.
        assert np.max(np.abs(result.workload_estimates - truth)) < 0.05 * num_users


class TestFactoredSessionExecution:
    def test_sharded_runs_bit_identical_across_backends(self):
        session = make_session()
        rows = random_rows(300, seed=2)
        serial = session.run(rows, num_shards=4, backend="serial", seed=7)
        threaded = session.run(rows, num_shards=4, backend="thread", seed=7)
        assert np.array_equal(
            serial.workload_estimates, threaded.workload_estimates
        )
        assert serial.num_users == threaded.num_users == 300

    def test_more_shards_than_threads_are_bit_identical(self):
        # 16 shards queue behind the CPU-sized thread pool on any runner.
        session = make_session()
        rows = random_rows(400, seed=5)
        serial = session.run(rows, num_shards=16, backend="serial", seed=9)
        threaded = session.run(rows, num_shards=16, backend="thread", seed=9)
        assert np.array_equal(serial.workload_estimates, threaded.workload_estimates)
        assert serial.num_users == threaded.num_users == 400

    def test_shard_count_changes_only_randomness_partition(self):
        session = make_session()
        rows = random_rows(120, seed=4)
        one = session.run(rows, num_shards=1, seed=0)
        many = session.run(rows, num_shards=6, seed=0)
        assert one.num_users == many.num_users
        assert one.workload_estimates.shape == many.workload_estimates.shape

    def test_validation_errors(self):
        session = make_session()
        with pytest.raises(ProtocolError):
            session.run(random_rows(10, seed=0), backend="bogus")
        with pytest.raises(ProtocolError):
            session.run(np.zeros((10, 2), dtype=int))  # wrong width
        with pytest.raises(ProtocolError):
            session.run(
                random_rows(10, seed=0),
                rng=np.random.default_rng(0),
                num_shards=2,
            )
        with pytest.raises(ProtocolError):
            FactoredProtocolSession(
                make_strategy(), k_way_product_marginals((3, 2, 5), 1)
            )

    def test_finalize_rejects_mismatched_accumulator(self):
        session = make_session(k_way_product_marginals(SIZES, 1))
        wrong = FactoredAccumulator(
            tuple(4 * size for size in SIZES), [(0, 1)]
        )
        with pytest.raises(ProtocolError):
            session.finalize(wrong)

    def test_session_with_optimized_factored_strategy(self):
        from repro.optimization import (
            FactoredOptimizerConfig,
            OptimizerConfig,
            optimize_factored_strategy,
        )

        workload = k_way_product_marginals(SIZES, 2)
        result = optimize_factored_strategy(
            workload,
            1.0,
            FactoredOptimizerConfig(
                base=OptimizerConfig(num_iterations=40, seed=0), rounds=1
            ),
        )
        session = FactoredProtocolSession(result.strategy, workload)
        outcome = session.run(random_rows(200, seed=6), seed=1)
        assert outcome.workload_estimates.shape == (workload.num_queries,)


class TestMillionCellSession:
    def test_marginals_over_million_cell_domain(self):
        import tracemalloc
        from math import prod

        sizes = (64, 64, 16, 16)
        assert prod(sizes) > 1_000_000
        strategy = FactoredStrategy(
            tuple(randomized_response(size, 0.5) for size in sizes)
        )
        workload = k_way_product_marginals(sizes, 2)
        rng = np.random.default_rng(0)
        rows = np.column_stack(
            [rng.integers(0, size, 2000) for size in sizes]
        )
        tracemalloc.start()
        session = FactoredProtocolSession(strategy, workload)
        result = session.run(rows, seed=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.num_users == 2000
        assert result.workload_estimates.shape == (workload.num_queries,)
        # Never anything close to a length-n (8 MB) float vector, let
        # alone the m x n joint strategy.
        assert peak < 4 * prod(sizes)
