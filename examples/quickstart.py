"""Quickstart: answer a workload of range queries under local DP.

Walks the full lifecycle in ~30 lines of API:

1. define the analyst's workload (prefix / CDF queries),
2. optimize an LDP strategy for it (the paper's core contribution),
3. audit the strategy's privacy guarantee,
4. run the client/server protocol on a population,
5. post-process for consistency and compare against the ground truth.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import OptimizedMechanism, OptimizerConfig, workloads
from repro.data import zipf_data
from repro.postprocess import wnnls_from_data_estimate
from repro.protocol import ProtocolSession, audit_strategy

DOMAIN_SIZE = 32
EPSILON = 1.0
NUM_USERS = 50_000


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. The analyst cares about the empirical CDF of a 32-bucket attribute.
    workload = workloads.prefix(DOMAIN_SIZE)
    print(f"workload: {workload}")

    # 2. Optimize a strategy for exactly this workload and privacy budget.
    mechanism = OptimizedMechanism(OptimizerConfig(num_iterations=500, seed=0))
    strategy = mechanism.strategy_for(workload, EPSILON)
    print(f"strategy: {strategy.shape[0]} outputs over {strategy.shape[1]} types")

    # 3. The guarantee is verifiable from the matrix itself.
    report = audit_strategy(strategy)
    print(
        f"audit: claimed eps={report.epsilon_claimed:.3f}, "
        f"realized eps={report.epsilon_realized:.3f}, ok={report.satisfied}"
    )

    # 4. Simulate the whole population reporting through the randomizer.
    truth = zipf_data(DOMAIN_SIZE, NUM_USERS, seed=1)
    result = ProtocolSession(strategy, workload).run(truth, rng=rng)

    # 5. Consistency post-processing (Appendix A) and evaluation.
    consistent = wnnls_from_data_estimate(workload, result.data_vector_estimate)
    true_answers = workload.matvec(truth)
    raw_error = np.abs(result.workload_estimates - true_answers)
    fixed_error = np.abs(workload.matvec(consistent) - true_answers)
    print(f"\n{'quantile':>9s} {'truth':>9s} {'estimate':>9s} {'wnnls':>9s}")
    for index in range(0, DOMAIN_SIZE, 8):
        print(
            f"{index:>9d} {true_answers[index]:>9.0f} "
            f"{result.workload_estimates[index]:>9.0f} "
            f"{workload.matvec(consistent)[index]:>9.0f}"
        )
    print(
        f"\nmean |error| over all {workload.num_queries} queries: "
        f"raw={raw_error.mean():.1f} users, wnnls={fixed_error.mean():.1f} users "
        f"(of {NUM_USERS} total)"
    )


if __name__ == "__main__":
    main()
