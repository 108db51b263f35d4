"""Experiment scale profiles.

``REPRO_SCALE=paper`` reruns every experiment at the paper's sizes (hours of
compute on one core); the default ``ci`` profile shrinks domain sizes and
grids so the whole benchmark suite finishes in minutes while preserving the
comparisons' shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ReproError


@dataclass(frozen=True)
class Scale:
    """Sizes and grids for one experiment profile."""

    name: str
    #: Figures 1 / 3a / 4 domain size.
    domain_size: int
    #: Figure 1 epsilon grid.
    epsilons: tuple[float, ...]
    #: Figure 2 domain-size grid (epsilon fixed at 1.0).
    domain_sizes: tuple[int, ...]
    #: Figure 3b settings.
    init_domain_size: int
    init_output_factors: tuple[int, ...]
    init_seeds: tuple[int, ...]
    #: Figure 3c timing grid.
    timing_domain_sizes: tuple[int, ...]
    #: Figure 4 settings.
    wnnls_num_users: int
    wnnls_num_simulations: int
    #: Optimizer budget per strategy.
    optimizer_iterations: int


_PROFILES = {
    "ci": Scale(
        name="ci",
        domain_size=32,
        epsilons=(0.5, 1.0, 2.0, 3.0, 4.0),
        domain_sizes=(8, 16, 32, 64),
        init_domain_size=16,
        init_output_factors=(1, 2, 4, 8),
        init_seeds=(0, 1, 2),
        timing_domain_sizes=(16, 32, 64, 128),
        wnnls_num_users=1_000,
        wnnls_num_simulations=20,
        optimizer_iterations=400,
    ),
    "paper": Scale(
        name="paper",
        domain_size=512,
        epsilons=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
        domain_sizes=(8, 16, 32, 64, 128, 256, 512, 1024),
        init_domain_size=64,
        init_output_factors=(1, 2, 4, 8, 12, 16),
        init_seeds=tuple(range(10)),
        timing_domain_sizes=(64, 128, 256, 512, 1024, 2048, 4096),
        wnnls_num_users=1_000,
        wnnls_num_simulations=100,
        optimizer_iterations=2_000,
    ),
}


def current_scale() -> Scale:
    """The profile selected by the ``REPRO_SCALE`` environment variable."""
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    if name not in _PROFILES:
        raise ReproError(
            f"unknown REPRO_SCALE {name!r}; choose from {sorted(_PROFILES)}"
        )
    return _PROFILES[name]


def scale_by_name(name: str) -> Scale:
    """Look up a profile explicitly (used by the CLI)."""
    if name not in _PROFILES:
        raise ReproError(f"unknown scale {name!r}; choose from {sorted(_PROFILES)}")
    return _PROFILES[name]
