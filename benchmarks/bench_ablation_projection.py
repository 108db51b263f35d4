"""Ablation: Algorithm 1 (vectorized projection) vs per-column bisection.

Justifies the vectorized multiplier solve: it matches the bisection oracle
to high precision while being orders of magnitude faster on full matrices.
"""

import time

import numpy as np

from benchmarks.conftest import emit
from repro.experiments.reporting import format_table
from repro.optimization import initial_bounds, project_columns
from tests.optimization.reference import project_column_bisection

EPSILON = 1.0


def compare(num_rows: int = 256, num_cols: int = 64, seed: int = 0):
    generator = np.random.default_rng(seed)
    raw = generator.normal(size=(num_rows, num_cols)) * 0.1
    bounds = initial_bounds(num_rows, EPSILON)

    start = time.perf_counter()
    state = project_columns(raw, bounds, EPSILON)
    sweep_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference = np.column_stack(
        [
            project_column_bisection(raw[:, column], bounds, EPSILON)
            for column in range(num_cols)
        ]
    )
    bisection_seconds = time.perf_counter() - start

    max_difference = float(np.abs(state.matrix - reference).max())
    return sweep_seconds, bisection_seconds, max_difference


def test_projection_sweep_vs_bisection(once):
    sweep, bisection, difference = once(compare)
    emit(
        "Ablation — Algorithm 1 vs bisection (m=256, n=64)",
        format_table(
            ["method", "seconds", "max abs diff"],
            [
                ["Algorithm 1 (vectorized sweep)", sweep, 0.0],
                ["bisection reference", bisection, difference],
            ],
        ),
    )
    assert difference < 1e-6
    assert sweep < bisection


def test_projection_throughput(benchmark):
    generator = np.random.default_rng(1)
    raw = generator.normal(size=(512, 128))
    bounds = initial_bounds(512, EPSILON)
    benchmark(project_columns, raw, bounds, EPSILON)
