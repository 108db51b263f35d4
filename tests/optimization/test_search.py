"""Tests for hyper-parameter search helpers."""

import numpy as np

from repro.optimization import (
    OptimizerConfig,
    optimize_strategy,
    sample_complexity_of_result,
    search_num_outputs,
    worst_case_of_result,
)
from repro.workloads import prefix


class TestSearchNumOutputs:
    def test_sweep_covers_grid(self):
        points = search_num_outputs(
            prefix(4),
            1.0,
            output_counts=[8, 16],
            seeds=[0, 1],
            config=OptimizerConfig(num_iterations=40),
        )
        assert len(points) == 4
        assert {point.num_outputs for point in points} == {8, 16}
        assert {point.seed for point in points} == {0, 1}

    def test_metrics_positive(self):
        points = search_num_outputs(
            prefix(4),
            1.0,
            output_counts=[16],
            seeds=[0],
            config=OptimizerConfig(num_iterations=40),
        )
        assert points[0].objective > 0
        assert points[0].worst_case_variance > 0


class TestResultMetrics:
    def test_consistency_between_metrics(self):
        workload = prefix(5)
        result = optimize_strategy(workload, 1.0, OptimizerConfig(num_iterations=60, seed=0))
        worst = worst_case_of_result(result, workload)
        samples = sample_complexity_of_result(result, workload, alpha=0.01)
        assert np.isclose(samples, worst / (workload.num_queries * 0.01))
