"""Smoke + shape tests for every figure/table experiment at a tiny scale.

These run each experiment end to end with a miniature profile and assert
the paper's *qualitative* findings (orderings and trends), which are what a
scale this small can reproduce.
"""

import numpy as np
import pytest

from repro.experiments import figure1, figure2, figure3a, figure3b, figure3c, figure4, table1
from repro.experiments.scale import Scale

TINY = Scale(
    name="tiny",
    domain_size=16,
    epsilons=(0.5, 2.0),
    domain_sizes=(8, 16),
    init_domain_size=8,
    init_output_factors=(2, 4),
    init_seeds=(0, 1),
    timing_domain_sizes=(8, 16),
    wnnls_num_users=500,
    wnnls_num_simulations=5,
    optimizer_iterations=150,
)


@pytest.fixture(scope="module")
def figure1_rows():
    return figure1.run(TINY)


@pytest.fixture(scope="module")
def figure2_rows():
    return figure2.run(TINY)


class TestFigure1:
    def test_row_count(self, figure1_rows):
        # 6 workloads x 2 epsilons x (7 mechanisms + lower bound).
        assert len(figure1_rows) == 6 * 2 * 8

    def test_optimized_best_everywhere(self, figure1_rows):
        for workload in {row.workload for row in figure1_rows}:
            for epsilon in (0.5, 2.0):
                cells = {
                    row.mechanism: row.samples
                    for row in figure1_rows
                    if row.workload == workload and row.epsilon == epsilon
                }
                bound = cells.pop("Lower Bound (Thm 5.6)")
                optimized = cells.pop("Optimized")
                best_competitor = min(cells.values())
                assert optimized <= best_competitor * 1.01, (workload, epsilon)
                assert optimized >= bound * (1 - 1e-9)

    def test_sample_complexity_decreases_with_epsilon(self, figure1_rows):
        for workload in {row.workload for row in figure1_rows}:
            for mechanism in ("Optimized", "Randomized Response"):
                values = [
                    row.samples
                    for row in figure1_rows
                    if row.workload == workload and row.mechanism == mechanism
                ]
                assert values[0] > values[-1]

    def test_render_contains_all_workloads(self, figure1_rows):
        text = figure1.render(figure1_rows)
        for name in ("Histogram", "Prefix", "AllRange", "Parity"):
            assert name in text


class TestFigure2:
    def test_row_count(self, figure2_rows):
        assert len(figure2_rows) == 6 * 2 * 7

    def test_optimized_best_at_each_size(self, figure2_rows):
        for domain_size in (8, 16):
            for workload in {row.workload for row in figure2_rows}:
                cells = {
                    row.mechanism: row.samples
                    for row in figure2_rows
                    if row.workload == workload and row.domain_size == domain_size
                }
                assert cells["Optimized"] <= min(cells.values()) * 1.01

    def test_slope_helper(self, figure2_rows):
        slope = figure2.loglog_slope(figure2_rows, "Prefix", "Randomized Response")
        assert np.isfinite(slope)
        assert slope > 0

    def test_histogram_flatter_than_prefix_for_optimized(self, figure2_rows):
        flat = figure2.loglog_slope(figure2_rows, "Histogram", "Optimized")
        steep = figure2.loglog_slope(figure2_rows, "Prefix", "Randomized Response")
        assert flat < steep


class TestFigure3a:
    def test_findings(self):
        rows = figure3a.run(TINY)
        datasets = {row.dataset for row in rows}
        assert datasets == {"HEPTH", "MEDCOST", "NETTRACE", "Worst-case"}
        # Optimized best on every dataset.
        for dataset in datasets:
            cells = {
                row.mechanism: row.samples for row in rows if row.dataset == dataset
            }
            assert cells["Optimized"] <= min(cells.values()) * 1.01
        # Data-dependent <= worst case for each mechanism.
        for mechanism in {row.mechanism for row in rows}:
            worst = [
                row.samples
                for row in rows
                if row.mechanism == mechanism and row.dataset == "Worst-case"
            ][0]
            for row in rows:
                if row.mechanism == mechanism and row.dataset != "Worst-case":
                    assert row.samples <= worst * 1.001

    def test_max_deviation_reported(self):
        rows = figure3a.run(TINY)
        assert figure3a.max_deviation(rows, "Optimized") >= 1.0


class TestFigure3b:
    def test_ratios_at_least_one(self):
        rows = figure3b.run(TINY)
        assert all(row.min_ratio >= 1.0 - 1e-9 for row in rows)
        assert all(row.max_ratio >= row.median_ratio >= row.min_ratio for row in rows)

    def test_covers_all_workloads_and_sizes(self):
        rows = figure3b.run(TINY)
        assert {row.workload for row in rows} == {
            "Histogram",
            "Prefix",
            "AllRange",
            "AllMarginals",
            "3-Way Marginals",
            "Parity",
        }
        assert {row.num_outputs for row in rows} == {16, 32}


class TestFigure3c:
    def test_timings_positive_and_growing(self):
        rows = figure3c.run(TINY, repeats=2)
        times = [row.seconds_per_iteration for row in rows]
        assert all(t > 0 for t in times)
        assert times[-1] > times[0] * 0.5  # larger n should not be much faster

    def test_render_mentions_exponent(self):
        rows = figure3c.run(TINY, repeats=1)
        assert "growth exponent" in figure3c.render(rows)


class TestFigure4:
    def test_wnnls_never_hurts(self):
        rows = figure4.run(TINY, seed=0)
        assert len(rows) == 6
        for row in rows:
            assert row.wnnls_variance <= row.default_variance * 1.001
            assert row.improvement >= 0.999

    def test_render(self):
        rows = figure4.run(TINY, seed=0)
        assert "improvement" in figure4.render(rows)


class TestTable1:
    def test_all_encodings_verified(self):
        rows = table1.run(domain_size=6, epsilon=1.0)
        assert len(rows) == 4
        assert all(row.satisfied for row in rows)

    def test_two_level_mechanisms(self):
        rows = {row.mechanism: row for row in table1.run(6, 1.0)}
        assert rows["Randomized Response"].distinct_entry_levels == 2
        assert rows["Hadamard"].distinct_entry_levels == 2
        assert rows["Subset Selection"].distinct_entry_levels == 2
        assert rows["RAPPOR"].distinct_entry_levels == 7  # n + 1 levels
