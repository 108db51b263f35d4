"""Scenario: private survey release over binary attributes.

A 6-question yes/no survey (employment, smoking, ...) is collected under
LDP; the analyst publishes all 2-way marginals — pairwise contingency
tables.  Binary product domains are where the Fourier mechanism was
designed to shine, so this is the paper's "beats them on their own turf"
comparison (Section 6.2's 3-Way Marginals finding, at 2-way for speed).

Run:  python examples/survey_marginals.py
"""

import numpy as np

from repro import OptimizedMechanism, OptimizerConfig
from repro.domains import BinaryDomain
from repro.mechanisms import StrategyMechanism, fourier, hadamard_response
from repro.protocol import ProtocolSession
from repro.workloads import k_way_marginals

NUM_QUESTIONS = 6
EPSILON = 1.0
NUM_RESPONDENTS = 100_000


def correlated_population(domain: BinaryDomain, size: int, seed: int) -> np.ndarray:
    """Respondents with correlated answers (questions 0/1 agree often)."""
    rng = np.random.default_rng(seed)
    base = rng.random((size, domain.num_attributes)) < 0.3
    base[:, 1] |= base[:, 0] & (rng.random(size) < 0.7)
    types = (base.astype(np.int64) << np.arange(domain.num_attributes)).sum(axis=1)
    return np.bincount(types, minlength=domain.size).astype(float)


def main() -> None:
    rng = np.random.default_rng(11)
    domain = BinaryDomain(NUM_QUESTIONS)
    workload = k_way_marginals(NUM_QUESTIONS, way=2)
    truth = correlated_population(domain, NUM_RESPONDENTS, seed=5)

    mechanisms = [
        OptimizedMechanism(OptimizerConfig(num_iterations=500, seed=0)),
        StrategyMechanism("Fourier", fourier),
        StrategyMechanism("Hadamard", hadamard_response),
    ]

    print(
        f"{workload.num_queries} marginal cells over {NUM_QUESTIONS} binary "
        f"questions ({domain.size} respondent types), eps = {EPSILON}\n"
    )
    print(f"{'mechanism':>12s} {'samples @1%':>12s} {'max |cell error|':>17s}")
    for mechanism in mechanisms:
        samples = mechanism.sample_complexity(workload, EPSILON)
        strategy = mechanism.strategy_for(workload, EPSILON)
        result = ProtocolSession(strategy, workload).run(truth, rng=rng)
        errors = np.abs(result.workload_estimates - workload.matvec(truth))
        print(f"{mechanism.name:>12s} {samples:>12.0f} {errors.max():>17.0f}")

    # Show one released contingency table (questions 0 x 1), estimated
    # privately by the optimized mechanism.
    optimized = mechanisms[0]
    strategy = optimized.strategy_for(workload, EPSILON)
    result = ProtocolSession(strategy, workload).run(truth, rng=rng)
    answers = result.workload_estimates
    true_answers = workload.matvec(truth)
    print("\ncontingency table for questions (0, 1) — estimate (truth):")
    # The (0,1) marginal is the first block of 4 queries in mask order.
    labels = ["no/no", "yes/no", "no/yes", "yes/yes"]
    for cell in range(4):
        print(f"  {labels[cell]:>8s}: {answers[cell]:>9.0f} ({true_answers[cell]:.0f})")


if __name__ == "__main__":
    main()
