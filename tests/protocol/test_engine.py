"""Tests for the streaming, shard-parallel protocol engine."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.mechanisms import hadamard_response, randomized_response
from repro.protocol import (
    ProtocolSession,
    ShardAccumulator,
    audit_session,
    empirical_sampler_audit,
    expand_users,
    session_cost_report,
    split_data_vector,
)
from repro.workloads import histogram, prefix


@pytest.fixture
def session() -> ProtocolSession:
    return ProtocolSession(hadamard_response(8, 1.0), prefix(8))


class TestShardAccumulator:
    def test_add_reports_and_counts(self):
        accumulator = ShardAccumulator(4)
        accumulator.add_reports(np.array([0, 1, 1, 3]))
        accumulator.add_reports(np.array([], dtype=int))
        assert np.array_equal(accumulator.histogram, [1, 2, 0, 1])
        assert accumulator.num_reports == 4

    def test_rejects_out_of_range_reports(self):
        with pytest.raises(ProtocolError):
            ShardAccumulator(4).add_reports(np.array([0, 4]))
        with pytest.raises(ProtocolError):
            ShardAccumulator(4).add_reports(np.array([-1]))

    def test_add_histogram_validates(self):
        accumulator = ShardAccumulator(3)
        # Fractional counts would book round(0.8) = 1 report for 0.8 of one.
        for bad in (
            [1.0, 2.0],
            [1.0, -2.0, 0.0],
            [0.4, 0.4, 0.0],
            [np.nan, 0.0, 0.0],
            [np.inf, 0.0, 0.0],
        ):
            with pytest.raises(ProtocolError):
                accumulator.add_histogram(np.array(bad))
        assert accumulator == ShardAccumulator(3)

    def test_merge_is_commutative_and_fresh(self):
        a = ShardAccumulator(3).add_reports(np.array([0, 0, 1]))
        b = ShardAccumulator(3).add_reports(np.array([2]))
        merged = a.merge(b)
        assert merged == b.merge(a)
        assert merged.num_reports == 4
        # merging must not mutate the inputs
        assert a.num_reports == 3 and b.num_reports == 1

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ProtocolError):
            ShardAccumulator(3).merge(ShardAccumulator(4))
        with pytest.raises(ProtocolError):
            ShardAccumulator.merge_all([ShardAccumulator(3), ShardAccumulator(4)])

    def test_merge_all(self):
        parts = [
            ShardAccumulator(3).add_reports(np.array([index]))
            for index in range(3)
        ]
        merged = ShardAccumulator.merge_all(parts)
        assert np.array_equal(merged.histogram, [1, 1, 1])
        assert merged.num_reports == 3
        with pytest.raises(ProtocolError):
            ShardAccumulator.merge_all([])

    def test_snapshot_is_independent(self):
        accumulator = ShardAccumulator(2).add_reports(np.array([0]))
        frozen = accumulator.snapshot()
        accumulator.add_reports(np.array([1, 1]))
        assert frozen.num_reports == 1
        assert np.array_equal(frozen.histogram, [1, 0])

    def test_serialization_round_trip(self):
        accumulator = ShardAccumulator(5).add_reports(np.array([0, 4, 4, 2]))
        restored = ShardAccumulator.from_bytes(accumulator.to_bytes())
        assert restored == accumulator

    def test_from_bytes_rejects_negative_counts(self):
        bad = ShardAccumulator(3)
        bad.histogram = np.array([1.0, -1.0, 0.0])
        with pytest.raises(ProtocolError):
            ShardAccumulator.from_bytes(bad.to_bytes())

    @pytest.mark.parametrize(
        ("histogram", "num_reports", "match"),
        [
            ([np.nan, 0.5, 0.0, 0.0], 1, "non-finite"),
            ([np.inf, 0.0, 0.0, 0.0], 0, "non-finite"),
            ([0.5, 0.5, 0.0, 0.0], 1, "non-integer"),
            ([2.0, 1.0, 0.0, 0.0], 5, "counts 5 reports but its histogram holds 3"),
            ([2.0, 1.0, 0.0, 0.0], 0, "counts 0 reports"),
            ([0.0, 0.0, 0.0, 0.0], -1, "counts -1 reports"),
        ],
        ids=["nan", "inf", "fractional", "over-count", "under-count", "negative"],
    )
    def test_from_bytes_rejects_forged_payloads(self, histogram, num_reports, match):
        forged = ShardAccumulator(4)
        forged.histogram = np.array(histogram)
        forged.num_reports = num_reports
        with pytest.raises(ProtocolError, match=match):
            ShardAccumulator.from_bytes(forged.to_bytes())

    def test_payload_is_version_tagged(self):
        import io

        from repro.protocol import ACCUMULATOR_FORMAT_VERSION, ACCUMULATOR_MAGIC

        payload = ShardAccumulator(3).add_reports(np.array([1])).to_bytes()
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            assert str(archive["format_magic"]) == ACCUMULATOR_MAGIC
            assert int(archive["format_version"]) == ACCUMULATOR_FORMAT_VERSION

    def test_accepts_legacy_untagged_payload(self):
        # Payload layout written before the format tag existed.
        import io

        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            histogram=np.array([2.0, 0.0, 1.0]),
            num_reports=np.asarray(3, dtype=np.int64),
        )
        restored = ShardAccumulator.from_bytes(buffer.getvalue())
        assert restored.num_reports == 3
        assert np.array_equal(restored.histogram, [2.0, 0.0, 1.0])

    def test_rejects_wrong_magic_and_future_version(self):
        import io

        from repro.protocol import ACCUMULATOR_MAGIC

        def payload(magic, version):
            buffer = io.BytesIO()
            np.savez_compressed(
                buffer,
                format_magic=np.asarray(magic),
                format_version=np.asarray(version, dtype=np.int64),
                histogram=np.array([1.0]),
                num_reports=np.asarray(1, dtype=np.int64),
            )
            return buffer.getvalue()

        with pytest.raises(ProtocolError, match="magic"):
            ShardAccumulator.from_bytes(payload("some/other-blob", 1))
        with pytest.raises(ProtocolError, match="format version 99"):
            ShardAccumulator.from_bytes(payload(ACCUMULATOR_MAGIC, 99))

    def test_garbage_bytes_raise_protocol_error(self):
        with pytest.raises(ProtocolError, match="not a serialized"):
            ShardAccumulator.from_bytes(b"definitely not an npz payload")


def round_tagged_payload(histogram, round_id: int) -> bytes:
    """An accumulator payload with the ``round_id`` field older writers
    stored beside the histogram."""
    import io

    from repro.protocol import ACCUMULATOR_FORMAT_VERSION, ACCUMULATOR_MAGIC

    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        format_magic=np.asarray(ACCUMULATOR_MAGIC),
        format_version=np.asarray(ACCUMULATOR_FORMAT_VERSION, dtype=np.int64),
        histogram=np.asarray(histogram, dtype=float),
        num_reports=np.asarray(int(np.sum(histogram)), dtype=np.int64),
        round_id=np.asarray(round_id, dtype=np.int64),
    )
    return buffer.getvalue()


class TestRoundField:
    def test_payload_writes_no_round_field(self):
        import io

        payload = ShardAccumulator(3).add_reports(np.array([1])).to_bytes()
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            assert "round_id" not in archive.files

    @pytest.mark.parametrize(
        "reports,num_outputs",
        [([0, 2, 2], 3), ([], 4), (list(np.arange(600) % 300), 300)],
        ids=["small", "empty", "wide"],
    )
    def test_zero_round_payload_loads(self, reports, num_outputs):
        written = ShardAccumulator(num_outputs).add_reports(
            np.array(reports, dtype=np.int64)
        )
        restored = ShardAccumulator.from_bytes(
            round_tagged_payload(written.histogram, 0)
        )
        assert restored == written
        # What it writes back is today's untagged payload.
        assert restored.to_bytes() == written.to_bytes()

    @pytest.mark.parametrize("round_id", [1, 2, 255, 1 << 40])
    def test_nonzero_round_payload_refused(self, round_id):
        with pytest.raises(ProtocolError, match=f"tagged round {round_id};"):
            ShardAccumulator.from_bytes(round_tagged_payload([1, 0, 2], round_id))


class TestSplitDataVector:
    def test_partition_is_exact_and_even(self):
        x = np.array([10.0, 3.0, 0.0, 7.0])
        shards = split_data_vector(x, 3)
        assert len(shards) == 3
        assert np.array_equal(np.sum(shards, axis=0), x)
        assert max(shard.sum() for shard in shards) <= min(
            shard.sum() for shard in shards
        ) + len(x)

    def test_single_shard_identity(self):
        x = np.array([4.0, 5.0])
        (only,) = split_data_vector(x, 1)
        assert np.array_equal(only, x)

    def test_rejects_bad_input(self):
        with pytest.raises(ProtocolError):
            split_data_vector(np.array([1.0, -1.0]), 2)
        with pytest.raises(ProtocolError):
            split_data_vector(np.array([1.0]), 0)


#: Counts that are not finite, non-negative whole numbers: flooring 2.5
#: would silently drop half a user, and NaN/inf have no user count at all.
BAD_COUNTS = {
    "fractional": [2.5, 1.7, 0.9, 3.2, 1.0, 1.0, 1.0, 1.0],
    "nan": [np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    "inf": [np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    "negative": [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
}


class TestCountValidation:
    @pytest.mark.parametrize("kind", sorted(BAD_COUNTS))
    @pytest.mark.parametrize(
        "run_kwargs",
        [
            dict(fast=True),
            dict(fast=False),
            dict(fast=True, num_shards=3),
            dict(fast=False, num_shards=3, backend="thread"),
        ],
        ids=["fast", "message-level", "sharded", "sharded-message-level"],
    )
    def test_run_refuses_bad_counts(self, session, kind, run_kwargs):
        with pytest.raises(ProtocolError, match="counts"):
            session.run(np.array(BAD_COUNTS[kind]), seed=0, **run_kwargs)

    @pytest.mark.parametrize("kind", sorted(BAD_COUNTS))
    def test_shard_helpers_refuse_bad_counts(self, session, kind):
        counts = np.array(BAD_COUNTS[kind])
        with pytest.raises(ProtocolError, match="counts"):
            split_data_vector(counts, 2)
        with pytest.raises(ProtocolError, match="counts"):
            expand_users(counts)
        with pytest.raises(ProtocolError, match="counts"):
            session.sample_shard(counts, np.random.default_rng(0))

    def test_integer_valued_floats_are_accepted(self, session):
        x = np.full(8, 25.0)
        for fast in (True, False):
            assert session.run(x, seed=0, fast=fast, num_shards=3).num_users == 200
        assert session.sample_shard(x, np.random.default_rng(0)).num_reports == 200
        assert expand_users([2.0, 0.0, 1.0]).tolist() == [0, 0, 2]


class TestProtocolSession:
    def test_rejects_domain_mismatch(self):
        with pytest.raises(ProtocolError):
            ProtocolSession(randomized_response(4, 1.0), prefix(5))

    def test_reuses_precomputed_operator(self, session):
        rebound = ProtocolSession(
            session.strategy, session.workload, session.operator
        )
        assert rebound.operator is session.operator

    def test_rejects_bad_operator_shape(self, session):
        with pytest.raises(ProtocolError):
            ProtocolSession(session.strategy, session.workload, np.eye(3))

    def test_finalize_copies_the_response_vector(self, session):
        accumulator = session.new_accumulator().add_reports(np.array([0, 1]))
        result = session.finalize(accumulator)
        result.response_vector[0] = 99
        assert accumulator.histogram[0] == 1

    def test_finalize_rejects_foreign_accumulator(self, session):
        with pytest.raises(ProtocolError):
            session.finalize(ShardAccumulator(session.num_outputs + 1))

    def test_operator_is_frozen_even_when_supplied(self, session):
        rebound = ProtocolSession(
            session.strategy, session.workload, np.array(session.operator)
        )
        with pytest.raises(ValueError):
            rebound.operator[0, 0] = 1.0

    def test_rejects_nonpositive_chunk_size(self, session):
        x = np.full(8, 10.0)
        for bad in (0, -1):
            with pytest.raises(ProtocolError):
                session.run(x, fast=False, seed=0, chunk_size=bad)
            with pytest.raises(ProtocolError):
                session.randomize_shard(np.zeros(4, dtype=int), chunk_size=bad)

    def test_run_validates_arguments(self, session):
        x = np.full(8, 10.0)
        with pytest.raises(ProtocolError):
            session.run(x, backend="gpu")
        with pytest.raises(ProtocolError):
            session.run(x, rng=np.random.default_rng(0), seed=3)
        with pytest.raises(ProtocolError):
            session.run(x, rng=np.random.default_rng(0), num_shards=2)
        with pytest.raises(ProtocolError):
            session.run(np.full(7, 10.0))

    def test_epsilon_and_shapes(self, session):
        assert session.epsilon == 1.0
        assert session.domain_size == 8
        assert session.num_outputs == session.strategy.num_outputs


class TestShardMergeAssociativity:
    def test_sharded_run_matches_manual_single_pass(self, session):
        """K shards merged in any order == one accumulator fed sequentially."""
        x = (np.arange(8.0) + 1.0) * 25
        seed, num_shards = 42, 5
        result = session.run(x, num_shards=num_shards, seed=seed, fast=False)

        sequences = np.random.SeedSequence(seed).spawn(num_shards)
        shards = split_data_vector(x, num_shards)
        partials = [
            session.randomize_shard(
                expand_users(shard), np.random.default_rng(sequence)
            )
            for shard, sequence in zip(shards, sequences)
        ]
        merged_reversed = ShardAccumulator.merge_all(partials[::-1])
        single_pass = session.new_accumulator()
        for partial in partials:
            single_pass.add_histogram(partial.histogram)

        assert np.array_equal(
            result.response_vector, merged_reversed.histogram
        )
        assert np.array_equal(result.response_vector, single_pass.histogram)
        assert result.num_users == int(x.sum())

    def test_backends_are_bit_identical(self, session):
        x = np.full(8, 500.0)
        kwargs = dict(num_shards=4, seed=7, fast=False)
        serial = session.run(x, backend="serial", **kwargs)
        threaded = session.run(x, backend="thread", **kwargs)
        assert np.array_equal(serial.response_vector, threaded.response_vector)
        assert np.array_equal(
            serial.workload_estimates, threaded.workload_estimates
        )

    def test_more_shards_than_threads_are_bit_identical(self, session):
        # 16 shards outnumber the CPU-sized thread pool on any runner, so
        # threads pick up queued shards; each shard's generator still comes
        # from its own spawned seed, so the merge cannot change.
        x = np.arange(1.0, 9.0) * 60
        kwargs = dict(num_shards=16, seed=5, fast=False)
        serial = session.run(x, backend="serial", **kwargs)
        threaded = session.run(x, backend="thread", **kwargs)
        assert np.array_equal(serial.response_vector, threaded.response_vector)
        assert serial.num_users == threaded.num_users == int(x.sum())

    def test_fast_path_sharded_determinism(self, session):
        x = np.arange(8.0) * 100
        first = session.run(x, num_shards=6, seed=11)
        second = session.run(x, num_shards=6, seed=11, backend="thread")
        assert np.array_equal(first.response_vector, second.response_vector)


class TestEquivalenceContracts:
    @pytest.mark.parametrize(
        "strategy",
        [randomized_response(8, 1.0), hadamard_response(8, 1.0)],
        ids=["rr", "hadamard"],
    )
    def test_operator_reconstructs_expected_responses_exactly(self, strategy):
        """Definition 3.2's unbiasedness, with no sampling: feeding the
        exact expected response vector Q x through the session's operator
        gives W B (Q x) = W x."""
        session = ProtocolSession(strategy, prefix(8))
        x = np.array([7.0, 1.0, 2.0, 0.0, 5.0, 3.0, 0.0, 9.0])
        expected_responses = strategy.probabilities @ x
        assert np.allclose(
            session.workload.matvec(session.operator @ expected_responses),
            session.workload.matvec(x),
            atol=1e-8,
        )

    def test_fast_vs_message_level_same_moments(self, session):
        x = np.array([40.0, 40.0, 20.0, 10.0, 10.0, 5.0, 5.0, 2.0]) * 3
        truth = session.workload.matvec(x)
        fast_mean = np.mean(
            [
                session.run(x, num_shards=3, seed=trial).workload_estimates
                for trial in range(200)
            ],
            axis=0,
        )
        slow_mean = np.mean(
            [
                session.run(
                    x, num_shards=3, seed=1000 + trial, fast=False
                ).workload_estimates
                for trial in range(200)
            ],
            axis=0,
        )
        assert np.allclose(fast_mean, truth, rtol=0.15, atol=10.0)
        assert np.allclose(fast_mean, slow_mean, atol=12.0)

    def test_message_path_chunk_size_invariant(self, session):
        x = np.full(8, 100.0)
        small = session.run(x, seed=2, fast=False, chunk_size=17)
        large = session.run(x, seed=2, fast=False, chunk_size=100_000)
        assert np.array_equal(small.response_vector, large.response_vector)


class TestVectorizedSampler:
    def test_matches_naive_cdf_comparison(self):
        strategy = hadamard_response(16, 1.0)
        types = np.random.default_rng(1).integers(0, 16, size=5000)
        rng_state = np.random.default_rng(9)
        responses = strategy.sample_responses(types, rng_state)
        cumulative = np.cumsum(strategy.probabilities, axis=0)
        reference = (
            np.random.default_rng(9).random(types.shape[0])[None, :]
            > cumulative[:, types]
        ).sum(axis=0)
        assert np.array_equal(responses, reference)

    def test_cdf_is_cached_and_read_only(self):
        strategy = randomized_response(6, 1.0)
        first = strategy.response_cdf()
        assert strategy.response_cdf() is first
        with pytest.raises(ValueError):
            first[0, 0] = 0.5

    def test_empty_batch_gives_no_responses(self):
        strategy = randomized_response(3, 1.0)
        assert strategy.sample_responses(np.array([], dtype=int)).size == 0

    def test_rejects_invalid_input(self):
        strategy = randomized_response(4, 1.0)
        with pytest.raises(ProtocolError):
            strategy.sample_responses(np.array([0, 4]))
        with pytest.raises(ProtocolError):
            strategy.sample_responses(np.array([0]), chunk_size=0)

    def test_empirical_sampler_audit_small_gap(self):
        strategy = randomized_response(5, 1.0)
        gap = empirical_sampler_audit(
            strategy, num_samples=40_000, rng=np.random.default_rng(0)
        )
        assert gap < 0.02


class TestSessionAccounting:
    def test_cost_report_fields(self, session):
        report = session_cost_report(session, num_shards=4)
        assert report.num_shards == 4
        assert report.accumulator_bytes == session.num_outputs * 8
        assert report.merge_traffic_bytes == 4 * report.accumulator_bytes
        assert (
            report.sampler_table_bytes
            == 2 * session.num_outputs * session.domain_size * 8
        )
        with pytest.raises(ValueError):
            session_cost_report(session, num_shards=0)

    def test_audit_session_matches_strategy(self, session):
        report = audit_session(session)
        assert report.satisfied
        assert report.epsilon_claimed == session.epsilon
