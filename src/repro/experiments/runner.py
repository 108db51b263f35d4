"""Shared plumbing for the figure experiments.

Builds the mechanism roster (six baselines + Optimized) and evaluates sample
complexities defensively: a mechanism that cannot answer a workload (or
cannot even be constructed for a domain) reports ``inf`` instead of
aborting the sweep, mirroring how the paper's figures simply omit infeasible
points.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError, ReproError
from repro.mechanisms import Mechanism, paper_baselines
from repro.mechanisms.interface import StrategyMechanism
from repro.optimization import OptimizedMechanism, OptimizerConfig
from repro.protocol.engine import ProtocolSession
from repro.workloads import PAPER_WORKLOADS, Workload, by_name

#: Legend order of Figures 1-3.
MECHANISM_ORDER = (
    "Randomized Response",
    "Hadamard",
    "Hierarchical",
    "Fourier",
    "Matrix Mechanism (L1)",
    "Matrix Mechanism (L2)",
    "Optimized",
)


def mechanism_roster(
    optimizer_iterations: int,
    seed: int = 0,
    store=None,
    restarts: int = 1,
) -> list[Mechanism]:
    """The paper's seven mechanisms, Optimized last (legend order).

    Parameters
    ----------
    optimizer_iterations:
        PGD iteration budget for the Optimized mechanism.
    seed:
        Root seed for the optimizer's random initialization.
    store:
        Optional :class:`~repro.store.StrategyStore`; when given, the
        Optimized mechanism reads strategies through it, so repeated sweeps
        (and repeated processes) skip re-optimization entirely.
    restarts:
        Best-of-K restarts for the Optimized mechanism.
    """
    config = OptimizerConfig(num_iterations=optimizer_iterations, seed=seed)
    return list(paper_baselines()) + [
        OptimizedMechanism(config, store=store, restarts=restarts)
    ]


def paper_workloads(domain_size: int) -> list[Workload]:
    """The six evaluation workloads at a common (power-of-two) domain size."""
    return [by_name(name, domain_size) for name in PAPER_WORKLOADS]


def protocol_session(
    mechanism: Mechanism, workload: Workload, epsilon: float
) -> ProtocolSession:
    """Bind a mechanism's strategy to a reusable collection session.

    Strategy selection (possibly an expensive optimization) runs once here;
    the returned session can then serve any number of sequential or sharded
    collection runs.  The mechanism's cached reconstruction operator is
    reused so the engine does not recompute the pseudo-inverse.

    Raises
    ------
    ProtocolError
        If the mechanism is not strategy-matrix based (additive-noise
        mechanisms have no client-side randomizer to shard).
    """
    if not isinstance(mechanism, StrategyMechanism):
        raise ProtocolError(
            f"{mechanism.name!r} is not a strategy-matrix mechanism; the "
            "protocol engine needs an explicit local randomizer"
        )
    strategy = mechanism.strategy_for(workload, epsilon)
    operator = mechanism.reconstruction_for(workload, epsilon)
    return ProtocolSession(strategy, workload, operator)


def safe_sample_complexity(
    mechanism: Mechanism,
    workload: Workload,
    epsilon: float,
    distribution: np.ndarray | None = None,
) -> float:
    """Sample complexity, or ``inf`` when the mechanism cannot answer.

    ``distribution`` switches to the data-dependent variant of Section 6.4.
    """
    try:
        if distribution is None:
            return mechanism.sample_complexity(workload, epsilon)
        return mechanism.sample_complexity_on_distribution(
            workload, epsilon, distribution
        )
    except ReproError:
        return float("inf")
