"""Scenario: an analyst's bespoke query set.

The point of workload adaptivity: you do not need your queries to match a
named family.  Here an e-commerce analyst mixes (a) point queries on a few
hot product categories, (b) a handful of hand-written basket-size ranges,
and (c) a total count at high weight — then gets a mechanism tuned to
exactly that, which no fixed mechanism matches.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import OptimizedMechanism, OptimizerConfig, ReproError
from repro.mechanisms import paper_baselines
from repro.workloads import ExplicitWorkload
from repro.data import zipf_data
from repro.protocol import ProtocolSession

DOMAIN_SIZE = 48
EPSILON = 1.0


def build_workload() -> ExplicitWorkload:
    rows = []
    # (a) hot categories the merchandising team watches daily.
    for category in (0, 1, 2, 5, 13):
        point = np.zeros(DOMAIN_SIZE)
        point[category] = 1.0
        rows.append(point)
    # (b) basket-size bands used in the quarterly report.
    for start, stop in ((0, 9), (10, 19), (20, 35), (36, 47)):
        band = np.zeros(DOMAIN_SIZE)
        band[start : stop + 1] = 1.0
        rows.append(band)
    # (c) the grand total, weighted 5x because it feeds revenue forecasts.
    rows.append(np.full(DOMAIN_SIZE, 5.0))
    return ExplicitWorkload(np.array(rows), name="MerchandisingQueries")


def main() -> None:
    rng = np.random.default_rng(3)
    workload = build_workload()
    truth = zipf_data(DOMAIN_SIZE, 80_000, exponent=1.3, seed=2)

    print(
        f"custom workload: {workload.num_queries} queries over "
        f"{DOMAIN_SIZE} categories, eps = {EPSILON}\n"
    )
    optimized = OptimizedMechanism(OptimizerConfig(num_iterations=600, seed=0))
    contenders = list(paper_baselines()) + [optimized]
    print(f"{'mechanism':>22s} {'samples @1%':>12s}")
    results = []
    for mechanism in contenders:
        try:
            samples = mechanism.sample_complexity(workload, EPSILON)
        except ReproError as error:
            # e.g. Fourier requires a power-of-two domain; 48 is not one.
            print(f"{mechanism.name:>22s} {'n/a':>12s}  ({error})")
            continue
        results.append((samples, mechanism.name))
        print(f"{mechanism.name:>22s} {samples:>12.0f}")
    results.sort()
    best, runner_up = results[0], results[1]
    print(
        f"\n'{best[1]}' wins; the best fixed mechanism ('{runner_up[1]}') "
        f"needs {runner_up[0] / best[0]:.2f}x more samples for the same accuracy."
    )

    strategy = optimized.strategy_for(workload, EPSILON)
    result = ProtocolSession(strategy, workload).run(truth, rng=rng)
    errors = np.abs(result.workload_estimates - workload.matvec(truth))
    print(
        f"simulated run over {int(truth.sum())} users: "
        f"max query error {errors.max():.0f}, mean {errors.mean():.0f} users"
    )


if __name__ == "__main__":
    main()
