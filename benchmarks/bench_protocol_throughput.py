"""Protocol-engine throughput benchmark (users/sec, JSON output).

Compares three ways of collecting one population's reports:

* ``seed``   — the pre-engine message-level path: per-call CDF recomputation
  and an ``O(N x m)`` materialization of every user's response CDF (the
  original batched client randomizer), feeding a single accumulator.
* ``engine`` — the shard-parallel engine's message-level path: cached
  offset-CDF inverse sampling in ``O(chunk)`` scratch, sharded and merged.
* ``fast``   — the engine's per-type multinomial shortcut (``O(n)`` draws).

The seed path is timed on a smaller sub-population (its memory footprint is
``8 N m`` bytes — 4 GB at N = 1e6, m = 512) and reported as users/sec so the
comparison is scale-free.  The script also checks the engine's determinism
contract: a K-shard run must be bit-identical to the same shards folded
sequentially into one accumulator.

Run::

    PYTHONPATH=src python benchmarks/bench_protocol_throughput.py \
        --users 1000000 --domain 512 --shards 4 --json results.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.data import zipf_data
from repro.mechanisms import randomized_response
from repro.protocol import (
    ProtocolSession,
    ShardAccumulator,
    expand_users,
    split_data_vector,
)
from repro.workloads import histogram


def seed_respond_many(strategy, user_types, rng):
    """The pre-engine batched sampler, verbatim: recomputes the CDF every
    call and materializes an ``(m, N)`` comparison matrix."""
    cumulative = np.cumsum(strategy.probabilities, axis=0)
    draws = rng.random(user_types.shape[0])
    columns = cumulative[:, user_types]
    return (draws[None, :] > columns).sum(axis=0)


def time_seed_path(workload, strategy, data_vector, seed):
    start = time.perf_counter()
    session = ProtocolSession(strategy, workload)
    users = expand_users(data_vector)
    accumulator = session.new_accumulator().add_reports(
        seed_respond_many(strategy, users, np.random.default_rng(seed))
    )
    session.finalize(accumulator)
    elapsed = time.perf_counter() - start
    return elapsed, accumulator.num_reports


def time_engine_path(session, data_vector, seed, shards, backend, fast):
    start = time.perf_counter()
    result = session.run(
        data_vector, num_shards=shards, backend=backend, seed=seed, fast=fast
    )
    elapsed = time.perf_counter() - start
    return elapsed, result


def check_shard_determinism(session, data_vector, seed, shards):
    """K-shard run == same shards folded one-by-one, bit for bit."""
    sharded = session.run(data_vector, num_shards=shards, seed=seed, fast=False)
    sequences = np.random.SeedSequence(seed).spawn(shards)
    single_pass = session.new_accumulator()
    for shard, sequence in zip(split_data_vector(data_vector, shards), sequences):
        partial = session.randomize_shard(
            expand_users(shard), np.random.default_rng(sequence)
        )
        single_pass = ShardAccumulator.merge_all([single_pass, partial])
    folded = session.finalize(single_pass)
    return bool(
        np.array_equal(sharded.response_vector, folded.response_vector)
        and np.array_equal(sharded.workload_estimates, folded.workload_estimates)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=float, default=1_000_000)
    parser.add_argument("--domain", type=int, default=512)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--backend", choices=("serial", "thread"), default="serial")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--baseline-users",
        type=float,
        default=100_000,
        help="sub-population for the O(N x m) seed path (memory bound)",
    )
    parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="skip the seed path (e.g. on memory-starved CI)",
    )
    parser.add_argument("--json", default=None, help="write results to this path")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON of users/sec floors; exit 1 on a regression "
        "beyond the baseline's tolerance (default 30%%)",
    )
    arguments = parser.parse_args(argv)

    num_users = int(arguments.users)
    workload = histogram(arguments.domain)
    strategy = randomized_response(arguments.domain, arguments.epsilon)
    data_vector = zipf_data(arguments.domain, num_users, seed=arguments.seed)

    setup_start = time.perf_counter()
    session = ProtocolSession(strategy, workload)
    session_setup_seconds = time.perf_counter() - setup_start

    results = {
        "num_users": num_users,
        "domain_size": arguments.domain,
        "num_outputs": session.num_outputs,
        "epsilon": arguments.epsilon,
        "num_shards": arguments.shards,
        "backend": arguments.backend,
        "session_setup_seconds": round(session_setup_seconds, 6),
    }

    print(
        f"domain n = {arguments.domain}, m = {session.num_outputs} outputs, "
        f"N = {num_users:,} users, K = {arguments.shards} shards "
        f"[{arguments.backend}]"
    )

    if not arguments.skip_baseline:
        baseline_users = int(arguments.baseline_users)
        baseline_vector = zipf_data(
            arguments.domain, baseline_users, seed=arguments.seed
        )
        seconds, reports = time_seed_path(
            workload, strategy, baseline_vector, arguments.seed
        )
        results["seed_users"] = reports
        results["seed_seconds"] = round(seconds, 6)
        results["seed_users_per_sec"] = round(reports / seconds, 1)
        print(
            f"seed message-level path:   {reports:>10,} users in "
            f"{seconds:8.3f} s  ({reports / seconds:>14,.0f} users/sec)"
        )

    seconds, result = time_engine_path(
        session,
        data_vector,
        arguments.seed,
        arguments.shards,
        arguments.backend,
        fast=False,
    )
    results["engine_users"] = result.num_users
    results["engine_seconds"] = round(seconds, 6)
    results["engine_users_per_sec"] = round(result.num_users / seconds, 1)
    print(
        f"engine message-level path: {result.num_users:>10,} users in "
        f"{seconds:8.3f} s  ({result.num_users / seconds:>14,.0f} users/sec)"
    )

    seconds, result = time_engine_path(
        session,
        data_vector,
        arguments.seed,
        arguments.shards,
        arguments.backend,
        fast=True,
    )
    results["fast_users"] = result.num_users
    results["fast_seconds"] = round(seconds, 6)
    results["fast_users_per_sec"] = round(result.num_users / seconds, 1)
    print(
        f"engine fast path:          {result.num_users:>10,} users in "
        f"{seconds:8.3f} s  ({result.num_users / seconds:>14,.0f} users/sec)"
    )

    if "seed_users_per_sec" in results:
        speedup = results["engine_users_per_sec"] / results["seed_users_per_sec"]
        results["engine_speedup_over_seed"] = round(speedup, 2)
        print(f"engine speedup over seed path: {speedup:.1f}x (message-level)")

    deterministic = check_shard_determinism(
        session, zipf_data(arguments.domain, 50_000, seed=1), 7, max(arguments.shards, 4)
    )
    results["sharded_bit_identical"] = deterministic
    print(f"sharded == single-pass (bit-identical): {deterministic}")

    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {arguments.json}")

    if arguments.check_against:
        with open(arguments.check_against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        tolerance = float(baseline.get("tolerance", 0.30))
        regressions = 0
        for key in ("engine_users_per_sec", "fast_users_per_sec"):
            if key not in baseline:
                continue
            floor = float(baseline[key]) * (1.0 - tolerance)
            got = results.get(key, 0.0)
            verdict = "ok" if got >= floor else "REGRESSION"
            if got < floor:
                regressions += 1
            print(
                f"check: {verdict:>10}  {key}: {got:,.0f} users/sec "
                f"(floor {floor:,.0f} = baseline - {tolerance:.0%})"
            )
        if regressions:
            return 1

    if not deterministic:
        return 1
    if "engine_speedup_over_seed" in results and results[
        "engine_speedup_over_seed"
    ] < 5.0:
        print("WARNING: engine speedup below the 5x acceptance floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
