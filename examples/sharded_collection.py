"""Sharded collection: one optimized strategy, many concurrent sessions.

Demonstrates the protocol engine's production shape:

1. optimize a strategy ONCE for the analyst's workload (offline, public),
2. bind it to an immutable :class:`ProtocolSession`,
3. randomize disjoint population shards independently — here on a thread
   pool — each producing a mergeable :class:`ShardAccumulator`,
4. ship accumulators as bytes (as a cross-machine aggregation tier would),
5. merge in arbitrary order and reconstruct the estimate.

A fixed root seed makes the merged estimate bit-identical however the
shards are scheduled or merged.

Run:  PYTHONPATH=src python examples/sharded_collection.py
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import OptimizedMechanism, OptimizerConfig, workloads
from repro.data import zipf_data
from repro.experiments.runner import protocol_session
from repro.protocol import ShardAccumulator, expand_users, split_data_vector

DOMAIN_SIZE = 32
EPSILON = 1.0
NUM_USERS = 400_000
NUM_SHARDS = 8


def main() -> None:
    # 1-2. One-time strategy selection, bound into a reusable session.
    workload = workloads.prefix(DOMAIN_SIZE)
    mechanism = OptimizedMechanism(OptimizerConfig(num_iterations=400, seed=0))
    session = protocol_session(mechanism, workload, EPSILON)
    print(
        f"session: {session.strategy.name!r}, n = {session.domain_size}, "
        f"m = {session.num_outputs} outputs, eps = {session.epsilon:g}"
    )

    # 3. Randomize disjoint shards concurrently, one RNG per shard.
    truth = zipf_data(DOMAIN_SIZE, NUM_USERS, seed=1)
    shards = split_data_vector(truth, NUM_SHARDS)
    sequences = np.random.SeedSequence(2026).spawn(NUM_SHARDS)

    def collect(shard, sequence):
        return session.randomize_shard(
            expand_users(shard), np.random.default_rng(sequence)
        )

    with ThreadPoolExecutor(max_workers=4) as pool:
        accumulators = list(pool.map(collect, shards, sequences))

    # 4. Partial aggregates travel as compact bytes between tiers.
    wire = [accumulator.to_bytes() for accumulator in accumulators]
    print(
        f"collected {NUM_SHARDS} shard aggregates "
        f"({sum(len(blob) for blob in wire)} bytes on the wire)"
    )

    # 5. Merge (order does not matter) and reconstruct.
    received = [ShardAccumulator.from_bytes(blob) for blob in reversed(wire)]
    merged = ShardAccumulator.merge_all(received)
    result = session.finalize(merged)

    # One-call equivalent, bit-identical under the same root seed:
    direct = session.run(truth, num_shards=NUM_SHARDS, seed=2026, fast=False)
    assert np.array_equal(result.response_vector, direct.response_vector)

    true_answers = workload.matvec(truth)
    error = np.abs(result.workload_estimates - true_answers)
    print(
        f"merged {result.num_users:,} reports; "
        f"mean |error| = {error.mean():.1f} users over "
        f"{workload.num_queries} prefix queries (of {NUM_USERS:,} total)"
    )


if __name__ == "__main__":
    main()
