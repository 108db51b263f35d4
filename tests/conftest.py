"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_gram() -> np.ndarray:
    """A fixed 5x5 PSD Gram matrix (from the Prefix workload)."""
    from repro.workloads import prefix

    return prefix(5).gram()


@pytest.fixture
def feasible_strategy() -> np.ndarray:
    """A random feasible 1-LDP strategy matrix (projected uniform)."""
    from repro.optimization import initial_bounds, project_columns

    generator = np.random.default_rng(7)
    raw = generator.random((20, 5))
    bounds = initial_bounds(20, 1.0)
    return project_columns(raw, bounds, 1.0).matrix


@pytest.fixture
def set_blas_threads():
    """Set every bundled OpenBLAS to a thread count for one test.

    Yields the setter; the process's own counts come back afterwards.  The
    test is skipped when no OpenBLAS with thread-count symbols is found.
    """
    from repro.linalg import blas

    libraries = blas._libraries()
    if not libraries:
        pytest.skip("no bundled OpenBLAS found")
    saved = [get_threads() for _, _, get_threads in libraries]

    def set_threads(count: int) -> None:
        for _, set_count, _ in libraries:
            set_count(count)

    yield set_threads
    for (_, set_count, _), count in zip(libraries, saved):
        set_count(count)
