"""Scenario: latency telemetry collection (the paper's motivating setting).

A service collects request-latency buckets from user devices; the SRE team
wants CDFs and arbitrary latency-range counts without the server ever seeing
raw latencies (the Google/Apple/Microsoft deployment model from the
introduction).  The workload mixes every range query with extra weight on
the tail quantiles the team alerts on.

Compares the workload-optimized mechanism against the two natural
off-the-shelf choices (Hierarchical — designed for ranges — and Randomized
Response) at the same privacy budget, both analytically and on a simulated
fleet.

Run:  python examples/telemetry_latency_cdf.py
"""

import numpy as np

from repro import OptimizedMechanism, OptimizerConfig
from repro.data import geometric_data
from repro.mechanisms import StrategyMechanism, hierarchical, randomized_response
from repro.protocol import ProtocolSession
from repro.workloads import all_range, prefix, stack, weighted

LATENCY_BUCKETS = 64  # e.g. exponentially spaced 1ms .. 60s
EPSILON = 1.0
FLEET_SIZE = 200_000


def build_workload():
    """All ranges, plus the tail-alert prefix queries at triple weight."""
    return stack(
        [
            weighted(all_range(LATENCY_BUCKETS), 1.0),
            weighted(prefix(LATENCY_BUCKETS), 3.0),
        ],
        name="LatencyTelemetry",
    )


def main() -> None:
    rng = np.random.default_rng(7)
    workload = build_workload()
    truth = geometric_data(LATENCY_BUCKETS, FLEET_SIZE, decay=0.08, seed=3)

    mechanisms = [
        OptimizedMechanism(OptimizerConfig(num_iterations=600, seed=0)),
        StrategyMechanism("Hierarchical", hierarchical),
        StrategyMechanism("Randomized Response", randomized_response),
    ]

    print(f"workload: {workload.num_queries} linear queries over "
          f"{LATENCY_BUCKETS} latency buckets, eps = {EPSILON}\n")
    print(f"{'mechanism':>22s} {'samples @1%':>12s} {'rmse (sim)':>12s}")
    for mechanism in mechanisms:
        samples = mechanism.sample_complexity(workload, EPSILON)
        strategy = mechanism.strategy_for(workload, EPSILON)
        result = ProtocolSession(strategy, workload).run(truth, rng=rng)
        delta = result.data_vector_estimate - truth
        rmse = np.sqrt(workload.error_quadratic(delta) / workload.num_queries)
        print(f"{mechanism.name:>22s} {samples:>12.0f} {rmse:>12.1f}")

    print(
        "\nThe optimized strategy needs the fewest samples for the 1% "
        "normalized-variance target and shows the lowest realized error on "
        "the simulated fleet — without any range-query-specific design."
    )


if __name__ == "__main__":
    main()
