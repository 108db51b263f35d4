"""Tests for the OptimizedMechanism wrapper."""

import numpy as np
import pytest

from repro.mechanisms import paper_baselines
from repro.optimization import OptimizedMechanism, OptimizerConfig
from repro.workloads import histogram, parity, prefix


@pytest.fixture
def quick_mechanism() -> OptimizedMechanism:
    return OptimizedMechanism(OptimizerConfig(num_iterations=150, seed=0))


class TestCaching:
    def test_strategy_cached_per_workload(self, quick_mechanism):
        first = quick_mechanism.strategy_for(prefix(6), 1.0)
        second = quick_mechanism.strategy_for(prefix(6), 1.0)
        assert first is second

    def test_different_workloads_different_strategies(self, quick_mechanism):
        a = quick_mechanism.strategy_for(prefix(6), 1.0)
        b = quick_mechanism.strategy_for(histogram(6), 1.0)
        assert a is not b

    def test_reconstruction_cached(self, quick_mechanism):
        first = quick_mechanism.reconstruction_for(prefix(6), 1.0)
        second = quick_mechanism.reconstruction_for(prefix(6), 1.0)
        assert first is second

    def test_same_name_distinct_content_not_conflated(self, quick_mechanism):
        # Two different workloads sharing a name and domain must not reuse
        # each other's cached strategy: the key hashes the Gram matrix.
        from repro.workloads.base import ExplicitWorkload

        impostor = ExplicitWorkload(prefix(6).matrix[::-1] * 2.0, name="Prefix")
        genuine = prefix(6)
        assert genuine.name == impostor.name
        key_a = quick_mechanism._store_key(genuine, 1.0)
        key_b = quick_mechanism._store_key(impostor, 1.0)
        assert key_a != key_b

    def test_equal_content_shares_cache_entry(self, quick_mechanism):
        first = quick_mechanism.strategy_for(prefix(6), 1.0)
        second = quick_mechanism.strategy_for(prefix(6), 1.0)
        key = quick_mechanism._store_key(prefix(6), 1.0)
        assert key == quick_mechanism._store_key(prefix(6), 1.0)
        assert first is second


class TestAdaptivity:
    def test_beats_every_baseline_on_prefix(self, quick_mechanism):
        workload = prefix(16)
        ours = quick_mechanism.sample_complexity(workload, 1.0)
        for baseline in paper_baselines():
            assert ours <= baseline.sample_complexity(workload, 1.0) * 1.001

    def test_matches_rr_at_large_epsilon(self):
        # Section 6.2: at eps >> 1 randomized response is optimal; the
        # baseline floor guarantees we do not do worse.
        mechanism = OptimizedMechanism(OptimizerConfig(num_iterations=100, seed=0))
        workload = parity(4, 3)
        rr = [m for m in paper_baselines() if m.name == "Randomized Response"][0]
        assert (
            mechanism.sample_complexity(workload, 6.0)
            <= rr.sample_complexity(workload, 6.0) * 1.01
        )

    def test_floor_disabled_still_valid(self):
        mechanism = OptimizedMechanism(
            OptimizerConfig(num_iterations=80, seed=0), floor_baselines=False
        )
        strategy = mechanism.strategy_for(prefix(5), 1.0)
        assert strategy.realized_ratio() <= np.e * (1 + 1e-8)

    def test_run_end_to_end(self, quick_mechanism, rng):
        workload = histogram(4)
        x = np.array([200.0, 100.0, 50.0, 50.0])
        average = np.mean(
            [quick_mechanism.run(workload, x, 2.0, rng) for _ in range(100)], axis=0
        )
        assert np.allclose(average, x, rtol=0.25, atol=15.0)
