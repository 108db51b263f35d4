"""Hyper-parameter searches around Algorithm 2 (Sections 4 and 6.5).

Strategy quality can be evaluated analytically without touching any private
data, so the sweep below is free in privacy terms:
:func:`search_num_outputs` sweeps the number of strategy rows ``m``
(Figure 3b studies m between n and 16n).  Best-of-K random restarts live in
:func:`repro.optimization.restarts.multi_restart_optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.variance import worst_case_variance
from repro.optimization.pgd import OptimizerConfig, optimize_strategy
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration in a hyper-parameter sweep.

    Examples
    --------
    >>> point = SweepPoint(
    ...     num_outputs=32, seed=0, objective=10.0, worst_case_variance=2.5
    ... )
    >>> point.num_outputs
    32
    """

    num_outputs: int
    seed: int
    objective: float
    worst_case_variance: float


def search_num_outputs(
    workload: Workload,
    epsilon: float,
    output_counts: list[int],
    seeds: list[int],
    config: OptimizerConfig | None = None,
) -> list[SweepPoint]:
    """Optimize for every ``(m, seed)`` pair and report both loss metrics.

    Examples
    --------
    >>> from repro.workloads import histogram
    >>> points = search_num_outputs(
    ...     histogram(4), 1.0, [8, 16], [0],
    ...     OptimizerConfig(num_iterations=20),
    ... )
    >>> [point.num_outputs for point in points]
    [8, 16]
    """
    config = config or OptimizerConfig()
    points = []
    for num_outputs in output_counts:
        for seed in seeds:
            run_config = replace(config, num_outputs=num_outputs, seed=seed)
            result = optimize_strategy(workload, epsilon, run_config)
            points.append(
                SweepPoint(
                    num_outputs=num_outputs,
                    seed=seed,
                    objective=result.objective,
                    worst_case_variance=worst_case_variance(
                        result.strategy.probabilities, workload.gram()
                    ),
                )
            )
    return points
