"""Ablation: random initialization vs warm starts from baselines.

Section 4 of the paper: "One option is to initialize with the strategy
matrix from an existing mechanism ... We do not take this approach, however,
as we find initializing Q randomly tends to work better."  This bench
reproduces that comparison: warm starts from the symmetric baselines stall
at (or near) the baselines themselves — they are stationary points — while
random initialization descends past them.
"""

from benchmarks.conftest import emit
from repro.experiments.reporting import format_table
from repro.experiments.scale import current_scale
from repro.mechanisms import hadamard_response, randomized_response
from repro.optimization import OptimizerConfig, objective_value, optimize_strategy
from repro.workloads import histogram, prefix

EPSILON = 1.0


def run_comparison():
    scale = current_scale()
    n = scale.init_domain_size
    iterations = scale.optimizer_iterations
    rows = []
    for workload in (histogram(n), prefix(n)):
        gram = workload.gram()
        random_result = optimize_strategy(
            workload, EPSILON, OptimizerConfig(num_iterations=iterations, seed=0)
        )
        for name, baseline in (
            ("Randomized Response", randomized_response(n, EPSILON)),
            ("Hadamard", hadamard_response(n, EPSILON)),
        ):
            seeded = optimize_strategy(
                workload,
                EPSILON,
                OptimizerConfig(
                    num_iterations=iterations,
                    initial_strategy=baseline.probabilities,
                ),
            )
            rows.append(
                [
                    workload.name,
                    name,
                    objective_value(baseline.probabilities, gram),
                    seeded.objective,
                    random_result.objective,
                ]
            )
    return rows


def test_random_init_beats_warm_starts(once):
    rows = once(run_comparison)
    emit(
        "Ablation — initialization (Section 4 remark)",
        format_table(
            ["workload", "seed mechanism", "baseline L(Q)", "warm-start L(Q)", "random-init L(Q)"],
            rows,
        ),
    )
    for workload, seed_name, baseline, warm, random_init in rows:
        # Warm starts never end up meaningfully worse than their seed...
        assert warm <= baseline * 1.01, (workload, seed_name)
        # ...but random initialization finds strictly better strategies,
        # reproducing the paper's design choice.
        assert random_init < warm, (workload, seed_name)
