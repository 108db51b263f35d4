"""Ablation: backtracking line search vs the paper's fixed-step updates.

Both modes implement Algorithm 2; ``optimize_strategy`` replaces the
hyper-searched constant step with an Armijo backtracking rule, and the
paper's loop is the test oracle
``tests/optimization/reference.py::fixed_step_optimize``.  This bench
quantifies the quality/compute trade-off that made line search the only
step rule.
"""

import sys
import time
from pathlib import Path

# The fixed-step loop is a test oracle; make the repo root importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import emit  # noqa: E402
from repro.experiments.reporting import format_table  # noqa: E402
from repro.experiments.scale import current_scale  # noqa: E402
from repro.optimization import OptimizerConfig, optimize_strategy  # noqa: E402
from repro.workloads import prefix  # noqa: E402
from tests.optimization.reference import fixed_step_optimize  # noqa: E402

EPSILON = 1.0


def line_search(workload, iterations):
    result = optimize_strategy(
        workload, EPSILON, OptimizerConfig(num_iterations=iterations, seed=0)
    )
    return result.objective, result.iterations_run


def fixed_step(workload, iterations):
    return fixed_step_optimize(
        workload, EPSILON, iterations, seed=0, search_points=5, search_iterations=25
    )


def run_modes():
    scale = current_scale()
    workload = prefix(scale.init_domain_size)
    rows = []
    for label, mode in (
        ("line search", line_search),
        ("fixed step + grid search (paper)", fixed_step),
    ):
        start = time.perf_counter()
        objective, iterations_run = mode(workload, scale.optimizer_iterations)
        rows.append([label, objective, iterations_run, time.perf_counter() - start])
    return rows


def test_line_search_vs_fixed_step(once):
    rows = once(run_modes)
    emit(
        "Ablation — Algorithm 2 step-size policy",
        format_table(["mode", "L(Q)", "iterations", "seconds"], rows),
    )
    line_search_objective = rows[0][1]
    fixed_objective = rows[1][1]
    # Line search must not be worse than the paper-verbatim loop.
    assert line_search_objective <= fixed_objective * 1.02
