"""Kronecker-factorized strategy optimization for product domains.

The objective of Theorem 3.11 splits over a Kronecker structure: for a
factored strategy ``Q = Q_{k-1} (x) ... (x) Q_0`` the core factorizes,
``A(Q) = A(Q_{k-1}) (x) ... (x) A(Q_0)``, the pseudo-inverse distributes,
and the trace of a Kronecker product is the product of traces, so

* for a pure Kron workload (``C = C_{k-1} (x) ... (x) C_0``)::

      L(Q) = prod_i tr[A(Q_i)^+ C_i] = prod_i L_i(Q_i)

  — the factors decouple completely and each ``Q_i`` is optimized
  independently by the PR-5 PGD engine against its own ``d_i``-sized Gram
  (scaling a Gram by a positive constant scales the objective linearly, so
  the other factors' values do not move factor ``i``'s argmin);

* for a sum of Kron blocks — product marginals,
  ``C = sum_S (x)_i C_{S,i}`` — the objective is
  ``L(Q) = sum_S prod_i v_{S,i}`` with ``v_{S,i} = tr[A(Q_i)^+ C_{S,i}]``,
  and factor ``i``'s subproblem given the others is an ordinary
  single-factor optimization against the *effective Gram*
  ``C_i^eff = sum_S (prod_{j != i} v_{S,j}) C_{S,i}`` — solved by
  alternating minimization (block coordinate descent over factors, each
  round warm-starting from the previous factor strategy).

Either way no ``n x n`` object is ever formed: memory is
``O(sum_i (m_i d_i + d_i^2))`` and per-iteration work drops from
``O(n^2 m)`` to ``O(sum_i d_i^2 m_i)`` — the "single biggest unlock"
called out in the roadmap.  The driver reuses
:class:`~repro.optimization.pgd.OptimizerConfig` for the per-factor solves,
and the test suite pins the composed objective against the dense engine at
small sizes to rtol <= 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod

import numpy as np

from repro.analysis.reconstruction import scaled_gram
from repro.exceptions import OptimizationError
from repro.linalg import psd_pinv
from repro.mechanisms.base import StrategyMatrix
from repro.mechanisms.factored import FactoredStrategy
from repro.optimization.pgd import (
    DEFAULT_OUTPUT_FACTOR,
    OptimizationResult,
    OptimizerConfig,
    check_config,
    optimize_strategy,
)
from repro.optimization.restarts import (
    RestartReport,
    _best_of,
    _cached_report,
    restart_seeds,
)
from repro.workloads.kron import KronWorkload, ProductMarginalsWorkload

#: Workload types the factored optimizer accepts.
FACTORED_WORKLOADS = (KronWorkload, ProductMarginalsWorkload)


@dataclass
class FactoredOptimizerConfig:
    """Knobs of the factored driver.

    Every factor gets an equal share of the budget and ``m_i = 4 d_i``
    outputs (the paper's ``m = 4n`` applied factor-wise).

    Attributes
    ----------
    base:
        The per-factor :class:`~repro.optimization.pgd.OptimizerConfig`
        (iterations, seed, ...).  ``num_outputs``, ``prior`` and
        ``initial_strategy`` must be unset — they are ambiguous across
        factors (only the uniform prior factorizes over a product domain).
    rounds:
        Alternating-minimization passes over the factors for sum-of-Kron
        workloads (product marginals).  Pure Kron workloads decouple and
        always run a single pass.

    Examples
    --------
    >>> config = FactoredOptimizerConfig(
    ...     base=OptimizerConfig(num_iterations=100, seed=0)
    ... )
    >>> config.rounds
    2
    """

    base: OptimizerConfig = field(default_factory=OptimizerConfig)
    rounds: int = 2


@dataclass
class FactoredOptimizationResult:
    """Outcome of a factored optimization run.

    Attributes
    ----------
    strategy:
        The composed :class:`~repro.mechanisms.factored.FactoredStrategy`
        (per-factor budgets sum to the requested epsilon).
    objective:
        The *joint* objective ``L(Q_{k-1} (x) ... (x) Q_0)`` on the full
        workload — directly comparable to the dense optimizer's objective.
    factor_objectives:
        Final per-factor subproblem objectives, in attribute order.
    rounds_run:
        Alternating passes executed (1 for pure Kron workloads).
    iterations_run:
        Total PGD iterations summed over every factor solve.
    factor_results:
        The per-factor :class:`~repro.optimization.pgd.OptimizationResult`
        objects of the final pass (empty when loaded from the store).
    """

    strategy: FactoredStrategy
    objective: float
    factor_objectives: list[float]
    rounds_run: int
    iterations_run: int
    factor_results: list[OptimizationResult] = field(default_factory=list)


def _factor_gram_blocks(workload) -> list[list[np.ndarray]]:
    """The workload's Gram as a sum of per-factor Kron blocks."""
    if isinstance(workload, ProductMarginalsWorkload):
        return workload.gram_factor_blocks()
    if isinstance(workload, KronWorkload):
        return [workload.factor_grams()]
    raise OptimizationError(
        "factored optimization needs a KronWorkload or "
        f"ProductMarginalsWorkload, got {type(workload).__name__}"
    )


def _factor_block_values(
    probabilities: np.ndarray, factor_blocks: list[np.ndarray]
) -> list[float]:
    """``v_b = tr[A(Q)^+ C_b]`` for one factor against each block's Gram."""
    pinv = psd_pinv(scaled_gram(probabilities))
    # Both matrices are symmetric, so the trace is an elementwise sum.
    return [float(np.sum(pinv * block)) for block in factor_blocks]


def factored_objective_value(strategies, workload) -> float:
    """The joint objective of per-factor strategies on a factored workload.

    ``L = sum_S prod_i tr[A(Q_i)^+ C_{S,i}]`` — exactly the dense
    ``L(Q, C)`` of Theorem 3.11 evaluated at the (never materialized)
    Kronecker products.

    Parameters
    ----------
    strategies:
        Per-factor probability matrices (or
        :class:`~repro.mechanisms.base.StrategyMatrix` instances),
        attribute 0 first.
    workload:
        A :class:`~repro.workloads.kron.KronWorkload` or
        :class:`~repro.workloads.kron.ProductMarginalsWorkload`.

    Examples
    --------
    The product identity against the dense objective:

    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> from repro.optimization.objective import objective_value
    >>> from repro.workloads import k_way_product_marginals
    >>> workload = k_way_product_marginals((3, 2, 2), 2)
    >>> factors = [randomized_response(size, 0.4).probabilities
    ...            for size in (3, 2, 2)]
    >>> joint = np.kron(factors[2], np.kron(factors[1], factors[0]))
    >>> factored = factored_objective_value(factors, workload)
    >>> dense = objective_value(joint, workload.gram())
    >>> bool(np.isclose(factored, dense, rtol=1e-9))
    True
    """
    matrices = [
        strategy.probabilities
        if isinstance(strategy, StrategyMatrix)
        else np.asarray(strategy, dtype=float)
        for strategy in strategies
    ]
    blocks = _factor_gram_blocks(workload)
    values = np.array(
        [
            _factor_block_values(matrix, [block[i] for block in blocks])
            for i, matrix in enumerate(matrices)
        ]
    )  # shape (k, num_blocks)
    return float(np.sum(np.prod(values, axis=0)))


def _factor_seeds(seed: int | None, num_factors: int) -> list[int | None]:
    """Independent deterministic seeds for the per-factor initializations."""
    if seed is None:
        return [None] * num_factors
    spawned = np.random.SeedSequence(seed).spawn(num_factors)
    return [int(sequence.generate_state(1)[0]) for sequence in spawned]


def optimize_factored_strategy(
    workload,
    epsilon: float,
    config: FactoredOptimizerConfig | None = None,
) -> FactoredOptimizationResult:
    """Optimize a Kronecker-factorized strategy for a product-domain workload.

    Runs the PGD engine per factor (independently for pure Kron workloads,
    by alternating minimization for sums of Kron blocks) and composes a
    :class:`~repro.mechanisms.factored.FactoredStrategy` whose factor
    budgets sum to ``epsilon``.  No ``n x n`` matrix is formed at any
    point, so domains far beyond the dense optimizer's reach (millions of
    cells) are handled in seconds.

    Examples
    --------
    >>> from repro.optimization import OptimizerConfig
    >>> from repro.workloads import k_way_product_marginals
    >>> workload = k_way_product_marginals((3, 2, 2), 2)
    >>> result = optimize_factored_strategy(
    ...     workload, 1.0,
    ...     FactoredOptimizerConfig(
    ...         base=OptimizerConfig(num_iterations=40, seed=0), rounds=1
    ...     ),
    ... )
    >>> result.strategy.domain_size
    12
    >>> abs(result.strategy.epsilon - 1.0) < 1e-12
    True
    """
    config = config or FactoredOptimizerConfig()
    base = config.base
    check_config(base, epsilon)
    if config.rounds < 1:
        raise OptimizationError(f"need >= 1 round, got {config.rounds}")
    if base.num_outputs is not None:
        raise OptimizationError(
            "num_outputs is ambiguous across factors; each factor gets "
            f"{DEFAULT_OUTPUT_FACTOR} outputs per domain element"
        )
    if base.prior is not None:
        raise OptimizationError(
            "only the uniform prior factorizes over a product domain; "
            "run the dense optimizer for a non-uniform prior"
        )
    if base.initial_strategy is not None:
        raise OptimizationError(
            "initial_strategy is ambiguous across factors; warm starts are "
            "managed per factor by the alternating rounds"
        )

    blocks = _factor_gram_blocks(workload)
    num_factors = len(blocks[0])
    sizes = [blocks[0][i].shape[0] for i in range(num_factors)]
    budgets = [epsilon * (1.0 / num_factors)] * num_factors
    seeds = _factor_seeds(base.seed, num_factors)

    # Pure Kron workloads decouple (block weights only rescale the Gram,
    # which cannot move a factor's argmin), so one pass suffices.
    rounds = 1 if len(blocks) == 1 or num_factors == 1 else config.rounds

    # values[b][i] = tr[A(Q_i)^+ C_{b,i}]; ones before a factor is solved,
    # so round 0's effective Grams are the unweighted block sums.
    values = np.ones((len(blocks), num_factors))
    results: list[OptimizationResult | None] = [None] * num_factors
    iterations_total = 0
    best: tuple[float, list[OptimizationResult], int] | None = None
    for round_index in range(rounds):
        for i in range(num_factors):
            weights = [
                prod(values[b, j] for j in range(num_factors) if j != i)
                for b in range(len(blocks))
            ]
            effective = np.zeros((sizes[i], sizes[i]))
            for b, block in enumerate(blocks):
                effective += weights[b] * block[i]
            if results[i] is None:
                factor_config = replace(
                    base,
                    seed=seeds[i],
                    num_outputs=DEFAULT_OUTPUT_FACTOR * sizes[i],
                )
            else:
                factor_config = replace(
                    base,
                    seed=seeds[i],
                    initial_strategy=results[i].strategy.probabilities,
                    num_outputs=None,
                )
            result = optimize_strategy(effective, budgets[i], factor_config)
            iterations_total += result.iterations_run
            results[i] = result
            values[:, i] = _factor_block_values(
                result.strategy.probabilities, [block[i] for block in blocks]
            )
        total = float(np.sum(np.prod(values, axis=1)))
        if best is None or total < best[0]:
            best = (total, list(results), round_index + 1)

    total, final_results, best_round = best
    factors = tuple(
        StrategyMatrix(
            result.strategy.probabilities,
            budgets[i],
            name=f"OptimizedFactor{i}",
        )
        for i, result in enumerate(final_results)
    )
    strategy = FactoredStrategy(factors, name="OptimizedFactored")
    return FactoredOptimizationResult(
        strategy=strategy,
        objective=total,
        factor_objectives=[float(result.objective) for result in final_results],
        rounds_run=best_round,
        iterations_run=iterations_total,
        factor_results=final_results,
    )


def _run_factored_restart(
    workload, epsilon: float, config: FactoredOptimizerConfig
) -> FactoredOptimizationResult | None:
    """One restart; divergence is reported as ``None``, as in the dense
    schedule."""
    try:
        return optimize_factored_strategy(workload, epsilon, config)
    except OptimizationError:
        return None


def multi_restart_optimize_factored(
    workload,
    epsilon: float,
    config: FactoredOptimizerConfig | None = None,
    *,
    restarts: int = 4,
    store=None,
    write: bool = True,
    workload_name: str | None = None,
) -> RestartReport:
    """Best-of-K factored optimization with store read-through.

    The restart schedule reuses
    :func:`~repro.optimization.restarts.restart_seeds` (restart 0 runs the
    caller's config verbatim), the winner is picked as in
    :func:`~repro.optimization.restarts.multi_restart_optimize`, and a
    :class:`~repro.store.StrategyStore` — addressed by the *structural*
    factored fingerprint, never a materialized Gram — short-circuits exact
    hits and persists the winner.  Restarts run in the calling process,
    and there is no warm start.

    Examples
    --------
    >>> from repro.optimization import OptimizerConfig
    >>> from repro.workloads import k_way_product_marginals
    >>> workload = k_way_product_marginals((3, 2, 2), 2)
    >>> config = FactoredOptimizerConfig(
    ...     base=OptimizerConfig(num_iterations=30, seed=0), rounds=1
    ... )
    >>> single = multi_restart_optimize_factored(
    ...     workload, 1.0, config, restarts=1
    ... )
    >>> multi = multi_restart_optimize_factored(
    ...     workload, 1.0, config, restarts=2
    ... )
    >>> multi.objective <= single.objective
    True
    """
    config = config or FactoredOptimizerConfig()
    check_config(config.base, epsilon)
    if not isinstance(workload, FACTORED_WORKLOADS):
        raise OptimizationError(
            "factored optimization needs a KronWorkload or "
            f"ProductMarginalsWorkload, got {type(workload).__name__}"
        )
    if workload_name is None:
        workload_name = workload.name

    key = None
    if store is not None:
        from repro.store import key_for_factored

        key = key_for_factored(workload, epsilon, config, restarts=restarts)
        cached = _cached_report(store, key)
        if cached is not None:
            return cached

    seeds = restart_seeds(config.base.seed, restarts)
    configs = [
        replace(config, base=replace(config.base, seed=seed)) for seed in seeds
    ]
    results = [
        _run_factored_restart(workload, epsilon, run_config)
        for run_config in configs
    ]
    report = _best_of(results, seeds, epsilon)
    if store is not None and write:
        store.put(key, report.result, workload=workload_name, config=config)
    return report
