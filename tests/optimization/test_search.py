"""Tests for hyper-parameter search helpers."""

from repro.analysis import worst_case_variance
from repro.optimization import OptimizerConfig, optimize_strategy, search_num_outputs
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

    def test_worst_case_variance_is_the_analysis_metric(self):
        workload = prefix(5)
        config = OptimizerConfig(num_iterations=60)
        (point,) = search_num_outputs(workload, 1.0, [20], [0], config)
        result = optimize_strategy(
            workload, 1.0, OptimizerConfig(num_iterations=60, num_outputs=20, seed=0)
        )
        assert point.objective == result.objective
        assert point.worst_case_variance == worst_case_variance(
            result.strategy.probabilities, workload.gram()
        )
