"""The paper's "Optimized" mechanism: strategy optimization as a Mechanism.

Wraps the multi-restart driver (and through it
:func:`repro.optimization.pgd.optimize_strategy`) behind the common
comparison interface so the experiment harness treats it exactly like the
fixed baselines.  Unlike those, its strategy depends on the workload, so
results are cached per :class:`~repro.store.StrategyKey` (Gram content
hash, epsilon, and a fingerprint of the config plus this mechanism's own
knobs) — the same key the persistent store uses, so when a
:class:`~repro.store.StrategyStore` is attached the in-memory dict is a
read-through layer over it.  Strategy optimization consumes no privacy
budget (it only uses the public workload), so all of this caching is
purely a compute optimization.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.reconstruction import reconstruction_operator
from repro.analysis.variance import per_user_variances
from repro.exceptions import OptimizationError
from repro.mechanisms.base import StrategyMatrix
from repro.mechanisms.interface import StrategyMechanism
from repro.mechanisms.randomized_response import randomized_response
from repro.optimization.pgd import OptimizationResult, OptimizerConfig
from repro.optimization.restarts import multi_restart_optimize
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.store import StrategyKey


class OptimizedMechanism(StrategyMechanism):
    """Workload-adaptive factorization mechanism (Sections 3-4).

    Parameters
    ----------
    config:
        Optimizer configuration shared by all strategies this instance
        produces.  The seed, if set, makes results reproducible.
    floor_baselines:
        Also warm-start the optimizer from randomized response and keep
        whichever strategy has lower worst-case variance on the workload.
        This realizes Section 4's remark that seeding from an existing
        mechanism makes the result "never worse" than it — in particular at
        large epsilon, where RR is optimal and hard for a random init to
        reach.
    store:
        Optional :class:`~repro.store.StrategyStore`; optimization results
        are read through it (exact-key hits skip PGD entirely) and written
        back, so strategies persist across processes.
    restarts:
        Best-of-K random restarts per strategy (>= 1); restart 0 always
        runs ``config`` verbatim, so more restarts never hurt.

    Examples
    --------
    >>> from repro.workloads import prefix
    >>> mech = OptimizedMechanism(OptimizerConfig(num_iterations=50, seed=0))
    >>> variance = mech.worst_case_variance(prefix(8), epsilon=1.0)
    >>> variance > 0
    True
    """

    def __init__(
        self,
        config: OptimizerConfig | None = None,
        floor_baselines: bool = True,
        store=None,
        restarts: int = 1,
    ) -> None:
        super().__init__("Optimized", factory=None)
        if restarts < 1:
            raise OptimizationError(f"need >= 1 restart, got {restarts}")
        self.config = config or OptimizerConfig()
        self.floor_baselines = floor_baselines
        self.store = store
        self.restarts = restarts
        self._results: dict[StrategyKey, OptimizationResult] = {}
        self._operators: dict[StrategyKey, np.ndarray] = {}

    def _store_key(self, workload: Workload, epsilon: float) -> StrategyKey:
        # The Gram content hash keeps two distinct workloads that share a
        # name and domain from silently reusing each other's strategy, and
        # the extras keep instances with different knobs apart.
        from repro.store import key_for

        return key_for(
            workload.gram(),
            epsilon,
            self.config,
            floor_baselines=self.floor_baselines,
            restarts=self.restarts,
        )

    def optimization_result(
        self, workload: Workload, epsilon: float
    ) -> OptimizationResult:
        """Run (or recall) the strategy optimization for this workload.

        Lookup order: the in-memory dict, then the persistent store (exact
        key), then a fresh multi-restart optimization whose winner is
        written back to the store.

        Examples
        --------
        >>> from repro.workloads import histogram
        >>> mech = OptimizedMechanism(OptimizerConfig(num_iterations=30, seed=0))
        >>> result = mech.optimization_result(histogram(4), 1.0)
        >>> result is mech.optimization_result(histogram(4), 1.0)  # cached
        True
        """
        key = self._store_key(workload, epsilon)
        if key in self._results:
            return self._results[key]
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self._results[key] = stored
                return stored
        report = multi_restart_optimize(
            workload,
            epsilon,
            self.config,
            restarts=self.restarts,
            store=self.store,
            write=False,
        )
        result = report.result
        if self.floor_baselines and workload.domain_size >= 2:
            result = self._floor_with_randomized_response(
                workload, epsilon, result
            )
        if self.store is not None:
            self.store.put(
                key, result, workload=workload.name, config=self.config
            )
        self._results[key] = result
        return result

    def _floor_with_randomized_response(
        self, workload: Workload, epsilon: float, result: OptimizationResult
    ) -> OptimizationResult:
        from repro.optimization.objective import objective_value
        from repro.optimization.pgd import optimize_strategy

        gram = workload.gram()
        baseline = randomized_response(workload.domain_size, epsilon)
        candidates = [result]
        warm_config = replace(
            self.config,
            initial_strategy=baseline.probabilities,
            num_outputs=None,
            num_iterations=min(200, self.config.num_iterations),
        )
        try:
            candidates.append(optimize_strategy(workload, epsilon, warm_config))
        except OptimizationError:
            pass
        # Raw RR itself: the warm start's corridor slack can cost a little,
        # so the unmodified baseline stays in the running.
        candidates.append(
            OptimizationResult(
                strategy=StrategyMatrix(
                    baseline.probabilities, epsilon, name="Optimized"
                ),
                bounds=baseline.probabilities.min(axis=1),
                objective=objective_value(baseline.probabilities, gram),
                step_size=0.0,
                iterations_run=0,
            )
        )
        return min(
            candidates,
            key=lambda item: per_user_variances(
                item.strategy.probabilities, gram
            ).max(),
        )

    def strategy_for(self, workload: Workload, epsilon: float) -> StrategyMatrix:
        """The optimized strategy for a workload (cached).

        Examples
        --------
        >>> from repro.workloads import histogram
        >>> mech = OptimizedMechanism(OptimizerConfig(num_iterations=30, seed=0))
        >>> mech.strategy_for(histogram(4), 1.0).epsilon
        1.0
        """
        return self.optimization_result(workload, epsilon).strategy

    def reconstruction_for(self, workload: Workload, epsilon: float) -> np.ndarray:
        """The Theorem 3.10 reconstruction operator for the optimized
        strategy (cached alongside it)."""
        key = self._store_key(workload, epsilon)
        if key not in self._operators:
            strategy = self.strategy_for(workload, epsilon)
            self._operators[key] = reconstruction_operator(strategy.probabilities)
        return self._operators[key]
