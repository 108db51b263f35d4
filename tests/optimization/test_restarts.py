"""Multi-restart driver: determinism, dominance, store integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimization import (
    OptimizedMechanism,
    OptimizerConfig,
    multi_restart_optimize,
    optimize_strategy,
    restart_seeds,
)
from repro.store import StrategyStore
from repro.telemetry import get_registry
from repro.workloads import histogram, prefix

CONFIG = OptimizerConfig(num_iterations=50, seed=0)


@pytest.fixture
def store(tmp_path) -> StrategyStore:
    return StrategyStore(tmp_path / "strategies")


class TestRestartSchedule:
    def test_first_seed_is_the_base_seed(self):
        assert restart_seeds(17, 4)[0] == 17

    def test_deterministic_and_distinct(self):
        schedule = restart_seeds(0, 8)
        assert schedule == restart_seeds(0, 8)
        assert len(set(schedule)) == 8

    def test_none_seed_spawns_fresh_entropy(self):
        assert restart_seeds(None, 3) == [None, None, None]

    def test_invalid_count(self):
        with pytest.raises(OptimizationError):
            restart_seeds(0, 0)


class TestDeterminism:
    def test_fixed_seed_bit_identical(self):
        a = multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=3)
        b = multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=3)
        assert a.objectives == b.objectives
        assert a.best_index == b.best_index
        assert np.array_equal(
            a.result.strategy.probabilities, b.result.strategy.probabilities
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(OptimizationError, match="backend"):
            multi_restart_optimize(prefix(8), 1.0, CONFIG, backend="fleet")

    def test_only_the_serial_backend_remains(self):
        # Restarts always run in-process; the keyword survives for callers
        # that pass backend="serial", and any other value is refused.
        with pytest.raises(OptimizationError, match="backend"):
            multi_restart_optimize(prefix(8), 1.0, CONFIG, backend="process")
        serial = multi_restart_optimize(
            prefix(8), 1.0, CONFIG, restarts=2, backend="serial"
        )
        default = multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=2)
        assert serial.objectives == default.objectives


class TestDominance:
    @pytest.mark.parametrize("workload", [histogram(8), prefix(8)])
    def test_multi_restart_never_worse_than_single(self, workload):
        single = optimize_strategy(workload, 1.0, CONFIG)
        multi = multi_restart_optimize(workload, 1.0, CONFIG, restarts=4)
        assert multi.objective <= single.objective * (1.0 + 1e-12)
        # Restart 0 IS the single run, so equality holds when it wins.
        assert multi.objectives[0] == pytest.approx(single.objective)

    def test_winner_is_argmin(self):
        report = multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=4)
        assert report.objective == min(report.objectives)
        assert report.best_index == int(np.argmin(report.objectives))


class TestStoreIntegration:
    def test_exact_hit_skips_pgd(self, store, monkeypatch):
        first = multi_restart_optimize(
            prefix(8), 1.0, CONFIG, restarts=2, store=store
        )
        assert not first.store_hit

        def forbidden(*args, **kwargs):  # pragma: no cover
            raise AssertionError("PGD ran despite a store hit")

        import repro.optimization.restarts as restarts_module

        monkeypatch.setattr(restarts_module, "optimize_strategy", forbidden)
        second = multi_restart_optimize(
            prefix(8), 1.0, CONFIG, restarts=2, store=store
        )
        assert second.store_hit
        assert second.objectives == []
        assert np.array_equal(
            second.result.strategy.probabilities,
            first.result.strategy.probabilities,
        )

    def test_restart_count_is_part_of_the_key(self, store):
        multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=1, store=store)
        report = multi_restart_optimize(
            prefix(8), 1.0, CONFIG, restarts=2, store=store
        )
        assert not report.store_hit
        assert len(store) == 2

    def test_warm_start_from_nearby_epsilon(self, store):
        multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=1, store=store)
        report = multi_restart_optimize(
            prefix(8), 1.25, CONFIG, restarts=2, store=store
        )
        assert report.warm_started
        assert report.seeds[-1] == "warm"
        assert len(report.objectives) == 3  # 2 random + 1 warm

    def test_no_warm_start_beyond_log_ratio(self, store):
        multi_restart_optimize(prefix(8), 0.1, CONFIG, restarts=1, store=store)
        report = multi_restart_optimize(
            prefix(8), 5.0, CONFIG, restarts=1, store=store
        )
        assert not report.warm_started

    def test_cold_build_and_hit_are_counted(self, store):
        names = (
            "repro_optimizer_multi_restart_runs_total",
            "repro_optimizer_restarts_total",
            "repro_optimizer_store_hits_total",
        )
        before = get_registry().to_json()
        multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=2, store=store)
        multi_restart_optimize(prefix(8), 1.0, CONFIG, restarts=2, store=store)
        after = get_registry().to_json()
        moved = [after[name] - before.get(name, 0) for name in names]
        assert moved == [1, 2, 1]

    def test_write_false_leaves_store_untouched(self, store):
        multi_restart_optimize(
            prefix(8), 1.0, CONFIG, restarts=1, store=store, write=False
        )
        assert len(store) == 0


class TestMechanismReadThrough:
    def test_fresh_instance_hits_store(self, store, monkeypatch):
        mech = OptimizedMechanism(CONFIG, store=store)
        first = mech.strategy_for(prefix(8), 1.0)

        def forbidden(*args, **kwargs):  # pragma: no cover
            raise AssertionError("PGD ran despite a store hit")

        import repro.optimization.restarts as restarts_module

        monkeypatch.setattr(restarts_module, "optimize_strategy", forbidden)
        again = OptimizedMechanism(CONFIG, store=store).strategy_for(
            prefix(8), 1.0
        )
        assert np.array_equal(first.probabilities, again.probabilities)

    def test_config_fingerprint_separates_instances(self, store):
        # The historical collision: same workload name + domain + epsilon
        # but different iteration budgets must not share a cache slot.
        a = OptimizedMechanism(OptimizerConfig(num_iterations=30, seed=0))
        b = OptimizedMechanism(OptimizerConfig(num_iterations=60, seed=0))
        assert a._store_key(prefix(8), 1.0) != b._store_key(prefix(8), 1.0)
        # Same config in two instances: keys agree.
        c = OptimizedMechanism(OptimizerConfig(num_iterations=30, seed=0))
        assert a._store_key(prefix(8), 1.0) == c._store_key(prefix(8), 1.0)

    def test_floor_flag_separates_store_entries(self, store):
        floored = OptimizedMechanism(CONFIG, floor_baselines=True, store=store)
        raw = OptimizedMechanism(CONFIG, floor_baselines=False, store=store)
        assert (
            floored._store_key(prefix(8), 1.0).entry_id
            != raw._store_key(prefix(8), 1.0).entry_id
        )

    def test_restarts_never_hurt_the_mechanism(self):
        single = OptimizedMechanism(CONFIG)
        multi = OptimizedMechanism(CONFIG, restarts=3)
        workload = prefix(8)
        assert multi.optimization_result(
            workload, 1.0
        ).objective <= single.optimization_result(workload, 1.0).objective * (
            1.0 + 1e-12
        )


class TestSessionFromStore:
    def test_round_trip_into_protocol_session(self, store):
        from repro.protocol import ProtocolSession

        workload = prefix(8)
        built = multi_restart_optimize(
            workload, 1.0, CONFIG, restarts=1, store=store
        )
        session = ProtocolSession.from_store(store, workload, 1.0)
        assert np.array_equal(
            session.strategy.probabilities,
            built.result.strategy.probabilities,
        )
        result = session.run([20.0] * 8, num_shards=2, seed=0)
        assert result.num_users == 160

    def test_missing_entry_raises_protocol_error(self, store):
        from repro.exceptions import ProtocolError
        from repro.protocol import ProtocolSession

        with pytest.raises(ProtocolError, match="no strategy"):
            ProtocolSession.from_store(store, prefix(8), 1.0)
