"""Tests for Kronecker-factorized strategy optimization.

The load-bearing checks: the factored objective/gradient/reconstruction
machinery agrees with the dense path to rtol <= 1e-9 on small product
domains, and the factored path handles >10^6-cell domains the dense path
cannot materialize, with peak allocation far below n^2.
"""

import tempfile
import tracemalloc
from dataclasses import replace
from math import prod

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.mechanisms import FactoredStrategy, StrategyMatrix, randomized_response
from repro.optimization import (
    FactoredOptimizerConfig,
    OptimizerConfig,
    factored_objective_value,
    multi_restart_optimize,
    multi_restart_optimize_factored,
    objective_value,
    optimize_factored_strategy,
    optimize_strategy,
    pgd,
)
from repro.store import StrategyStore, key_for, key_for_factored
from repro.telemetry import get_registry
from repro.workloads import (
    KronWorkload,
    all_product_marginals,
    k_way_product_marginals,
)
from tests.optimization.reference import ReferenceEngine

RTOL = 1e-9


def materialized(strategy: FactoredStrategy) -> np.ndarray:
    return strategy.materialize().probabilities


class TestFactoredObjectiveAgreement:
    """factored L == dense L, pinned to rtol <= 1e-9."""

    def test_two_factor_kron(self):
        workload = KronWorkload([np.tril(np.ones((3, 3))), np.eye(4)])
        strategy = FactoredStrategy(
            (randomized_response(3, 0.4), randomized_response(4, 0.6))
        )
        dense = objective_value(materialized(strategy), workload.gram())
        factored = factored_objective_value(strategy.factors, workload)
        assert np.isclose(factored, dense, rtol=RTOL)

    def test_three_factor_marginals(self):
        workload = k_way_product_marginals((3, 2, 4), 2)
        strategy = FactoredStrategy(
            tuple(randomized_response(size, 0.3) for size in (3, 2, 4))
        )
        dense = objective_value(materialized(strategy), workload.gram())
        factored = factored_objective_value(strategy.factors, workload)
        assert np.isclose(factored, dense, rtol=RTOL)

    def test_all_marginals_with_optimized_factors(self):
        workload = all_product_marginals((3, 2, 2))
        result = optimize_factored_strategy(
            workload,
            1.0,
            FactoredOptimizerConfig(
                base=OptimizerConfig(num_iterations=80, seed=0), rounds=1
            ),
        )
        dense = objective_value(
            materialized(result.strategy), workload.gram()
        )
        assert np.isclose(result.objective, dense, rtol=RTOL)

    def test_optimizer_reports_joint_objective(self):
        workload = k_way_product_marginals((3, 3, 2), 2)
        result = optimize_factored_strategy(
            workload,
            1.0,
            FactoredOptimizerConfig(
                base=OptimizerConfig(num_iterations=100, seed=3), rounds=2
            ),
        )
        helper = factored_objective_value(result.strategy.factors, workload)
        assert np.isclose(result.objective, helper, rtol=RTOL)


class TestFactoredGradientAgreement:
    """The per-factor effective-Gram gradient is the true partial gradient
    of the joint objective (checked against central finite differences)."""

    def test_effective_gram_gradient_matches_joint_fd(self):
        from repro.optimization import objective_and_gradient
        from repro.optimization.factored import (
            _factor_block_values,
            _factor_gram_blocks,
        )

        workload = k_way_product_marginals((3, 2, 2), 2)
        rng = np.random.default_rng(7)
        strategies = [
            randomized_response(size, 0.5).probabilities for size in (3, 2, 2)
        ]
        blocks = _factor_gram_blocks(workload)
        target = 0  # differentiate with respect to factor 0
        values = np.array(
            [
                _factor_block_values(matrix, [block[i] for block in blocks])
                for i, matrix in enumerate(strategies)
            ]
        ).T  # (num_blocks, k)
        weights = [
            prod(values[b, j] for j in range(len(strategies)) if j != target)
            for b in range(len(blocks))
        ]
        effective = sum(
            weight * block[target] for weight, block in zip(weights, blocks)
        )
        _, gradient = objective_and_gradient(strategies[target], effective)

        def joint(q0_flat):
            trial = [q0_flat.reshape(strategies[target].shape)] + strategies[1:]
            return factored_objective_value(trial, workload)

        base = strategies[target].ravel()
        step = 1e-6
        rng_indices = rng.choice(base.size, size=5, replace=False)
        for index in rng_indices:
            bumped_up = base.copy()
            bumped_up[index] += step
            bumped_down = base.copy()
            bumped_down[index] -= step
            fd = (joint(bumped_up) - joint(bumped_down)) / (2 * step)
            assert np.isclose(gradient.ravel()[index], fd, rtol=1e-4, atol=1e-4)


class TestFactoredReconstructionAgreement:
    def test_factored_operator_composes_to_dense(self):
        from repro.analysis import (
            factored_reconstruction_operators,
            reconstruction_operator,
        )

        factors = [
            randomized_response(3, 0.4).probabilities,
            randomized_response(2, 0.7).probabilities,
            randomized_response(4, 0.5).probabilities,
        ]
        joint = np.kron(factors[2], np.kron(factors[1], factors[0]))
        operators = factored_reconstruction_operators(factors)
        composed = np.kron(operators[2], np.kron(operators[1], operators[0]))
        dense = reconstruction_operator(joint)
        assert np.allclose(composed, dense, rtol=RTOL, atol=1e-12)

    def test_strategy_reconstruction_operator_matvec(self):
        strategy = FactoredStrategy(
            (randomized_response(3, 0.5), randomized_response(4, 0.5))
        )
        from repro.analysis import reconstruction_operator

        dense = reconstruction_operator(materialized(strategy))
        histogram = np.arange(12, dtype=float)
        assert np.allclose(
            strategy.reconstruction_operator().matvec(histogram),
            dense @ histogram,
            rtol=RTOL,
        )


class TestFactoredOptimizerDriver:
    def test_kron_workload_runs_single_round(self):
        workload = KronWorkload([np.eye(4), np.eye(3)])
        result = optimize_factored_strategy(
            workload,
            1.0,
            FactoredOptimizerConfig(
                base=OptimizerConfig(num_iterations=50, seed=0), rounds=3
            ),
        )
        assert result.rounds_run == 1  # factors decouple; one pass suffices

    def test_epsilon_split_sums_to_budget(self):
        workload = k_way_product_marginals((3, 2, 2), 2)
        result = optimize_factored_strategy(
            workload,
            2.0,
            FactoredOptimizerConfig(
                base=OptimizerConfig(num_iterations=40, seed=0), rounds=1
            ),
        )
        # Equal per-factor budgets summing to epsilon, and m_i = 4 d_i
        # outputs per factor.
        factors = result.strategy.factors
        assert [factor.epsilon for factor in factors] == pytest.approx([2 / 3] * 3)
        assert sum(factor.epsilon for factor in factors) == pytest.approx(2.0)
        assert result.strategy.epsilon == pytest.approx(2.0)
        assert [factor.num_outputs for factor in factors] == [12, 8, 8]

    def test_deterministic_given_seed(self):
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=40, seed=11), rounds=1
        )
        a = optimize_factored_strategy(workload, 1.0, config)
        b = optimize_factored_strategy(workload, 1.0, config)
        assert a.objective == b.objective
        for left, right in zip(a.strategy.factors, b.strategy.factors):
            assert np.array_equal(left.probabilities, right.probabilities)

    def test_reference_engine_matches(self, monkeypatch):
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=40, seed=0), rounds=1
        )
        fast = optimize_factored_strategy(workload, 1.0, config)
        monkeypatch.setattr(pgd, "FastEngine", ReferenceEngine)
        reference = optimize_factored_strategy(workload, 1.0, config)
        assert np.isclose(fast.objective, reference.objective, rtol=1e-6)

    def test_rejects_ambiguous_base_config(self):
        workload = KronWorkload([np.eye(3), np.eye(2)])
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=10, num_outputs=12)
        )
        with pytest.raises(OptimizationError):
            optimize_factored_strategy(workload, 1.0, config)
        with pytest.raises(OptimizationError):
            optimize_factored_strategy(
                workload,
                1.0,
                FactoredOptimizerConfig(
                    base=OptimizerConfig(num_iterations=10, prior=np.ones(6) / 6)
                ),
            )

    def test_rejects_non_factored_workloads(self):
        from repro.workloads import histogram

        with pytest.raises(OptimizationError):
            optimize_factored_strategy(histogram(6), 1.0)

    def test_factored_tracks_dense_on_single_attribute(self):
        # One factor: the factored driver degenerates to a dense solve of
        # the same problem (the per-factor seed is spawned from the root
        # seed, so the inits differ — compare converged quality, not bits).
        workload = KronWorkload([np.eye(6)])
        config = OptimizerConfig(num_iterations=80, seed=0)
        factored = optimize_factored_strategy(
            workload, 1.0, FactoredOptimizerConfig(base=config)
        )
        dense = optimize_strategy(workload.gram(), 1.0, replace(config))
        assert np.isclose(factored.objective, dense.objective, rtol=0.02)
        # And the reported objective is the true joint objective.
        evaluated = objective_value(
            materialized(factored.strategy), workload.gram()
        )
        assert np.isclose(factored.objective, evaluated, rtol=RTOL)


class TestMultiRestart:
    def test_best_of_k_never_worse(self):
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=30, seed=0), rounds=1
        )
        single = multi_restart_optimize_factored(
            workload, 1.0, config, restarts=1
        )
        multi = multi_restart_optimize_factored(
            workload, 1.0, config, restarts=3
        )
        assert multi.objective <= single.objective
        assert multi.best_index == int(np.argmin(multi.objectives))

    def test_store_round_trip_and_hit(self):
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=30, seed=0), rounds=1
        )
        store = StrategyStore(tempfile.mkdtemp())
        miss = multi_restart_optimize_factored(
            workload, 1.0, config, restarts=2, store=store
        )
        assert not miss.store_hit
        hit = multi_restart_optimize_factored(
            workload, 1.0, config, restarts=2, store=store
        )
        assert hit.store_hit
        assert hit.objective == miss.objective
        for left, right in zip(
            hit.result.strategy.factors, miss.result.strategy.factors
        ):
            assert np.array_equal(left.probabilities, right.probabilities)

    def test_fingerprints_distinguish_factored_from_dense(self):
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=30, seed=0)
        )
        factored_key = key_for_factored(workload, 1.0, config)
        dense_key = key_for(workload.gram(), 1.0, config.base)
        assert factored_key.gram_hash != dense_key.gram_hash
        assert factored_key.entry_id != dense_key.entry_id

    def test_one_store_api_keeps_kinds_apart(self):
        from repro.exceptions import StoreError

        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=30, seed=0), rounds=1
        )
        store = StrategyStore(tempfile.mkdtemp())
        multi_restart_optimize(workload, 1.0, config.base, restarts=1, store=store)
        multi_restart_optimize_factored(
            workload, 1.0, config, restarts=1, store=store
        )
        dense_key = key_for(workload.gram(), 1.0, config.base, restarts=1)
        factored_key = key_for_factored(workload, 1.0, config, restarts=1)
        assert {record.kind for record in store.records()} == {"dense", "factored"}
        # The Gram lookups answer with the dense row only.
        assert store.best_for(workload.gram(), 1.0).entry_id == dense_key.entry_id
        assert store.nearest(workload.gram(), 1.0).entry_id == dense_key.entry_id
        # One load() decodes either kind.
        dense = store.load(dense_key.entry_id)
        factored = store.load(factored_key.entry_id)
        assert isinstance(dense.strategy, StrategyMatrix)
        assert isinstance(factored.strategy, FactoredStrategy)
        # An index row whose kind disagrees with its payload is damage.
        entries = store._read_index()
        entries[factored_key.entry_id]["kind"] = "dense"
        store._write_index(entries)
        with pytest.raises(StoreError, match="kind"):
            store.load(factored_key.entry_id)
        assert store.get(factored_key) is None
        assert factored_key not in store
        assert store.get(dense_key) is not None

    def test_cold_build_and_hit_are_counted(self):
        # Factored builds share the dense builds' counters: one completed
        # run, K restarts, then one store hit.
        names = (
            "repro_optimizer_multi_restart_runs_total",
            "repro_optimizer_restarts_total",
            "repro_optimizer_store_hits_total",
        )
        workload = k_way_product_marginals((3, 2, 2), 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=20, seed=0), rounds=1
        )
        store = StrategyStore(tempfile.mkdtemp())
        before = get_registry().to_json()
        for _ in range(2):
            multi_restart_optimize_factored(
                workload, 1.0, config, restarts=3, store=store
            )
        after = get_registry().to_json()
        moved = [after.get(name, 0) - before.get(name, 0) for name in names]
        assert moved == [1, 3, 1]


class TestMillionCellSmoke:
    """The headline capability: optimize over >10^6 cells without ever
    allocating anything close to n^2 (or even n)."""

    def test_million_cell_domain_stays_factor_sized(self):
        sizes = (64, 64, 16, 16)
        domain_size = prod(sizes)
        assert domain_size > 1_000_000
        workload = k_way_product_marginals(sizes, 2)
        config = FactoredOptimizerConfig(
            base=OptimizerConfig(num_iterations=12, seed=0), rounds=1
        )
        tracemalloc.start()
        result = optimize_factored_strategy(workload, 1.0, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.strategy.domain_size == domain_size
        assert np.isfinite(result.objective) and result.objective > 0
        # Peak must be far below one float64 copy of the flat domain
        # (8 MB), let alone the n x n Gram (8 TB).
        assert peak < 4 * domain_size  # < half of one length-n vector
        # And the dense path must refuse this domain outright.
        with pytest.raises(ValueError):
            workload.gram()
