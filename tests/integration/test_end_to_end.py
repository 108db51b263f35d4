"""End-to-end integration tests: optimize -> audit -> simulate -> post-process.

These walk the full pipeline a real deployment would run, for each of the
paper's workloads, and check the pieces agree with each other.
"""

import numpy as np
import pytest

from repro.analysis import total_variance
from repro.data import hepth_like
from repro.optimization import OptimizedMechanism, OptimizerConfig
from repro.postprocess import wnnls_from_data_estimate
from repro.protocol import ProtocolSession, audit_strategy
from repro.workloads import PAPER_WORKLOADS, by_name

DOMAIN_SIZE = 16
EPSILON = 1.0


@pytest.fixture(scope="module")
def mechanism() -> OptimizedMechanism:
    return OptimizedMechanism(OptimizerConfig(num_iterations=200, seed=0))


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
class TestFullPipeline:
    def test_pipeline(self, name, mechanism):
        workload = by_name(name, DOMAIN_SIZE)
        rng = np.random.default_rng(0)

        # 1. Optimize and audit the strategy.
        strategy = mechanism.strategy_for(workload, EPSILON)
        report = audit_strategy(strategy)
        assert report.satisfied, f"{name}: optimized strategy violates LDP"

        # 2. Run the protocol on a realistic dataset.
        dataset = hepth_like(DOMAIN_SIZE, num_users=2_000)
        result = ProtocolSession(strategy, workload).run(
            dataset.data_vector, rng=rng
        )
        assert result.num_users == 2_000

        # 3. The realized squared error is within sane bounds of the
        #    analytic prediction (single run: allow a wide band).
        predicted = total_variance(
            strategy.probabilities, workload.gram(), dataset.data_vector
        )
        truth_delta = result.data_vector_estimate - dataset.data_vector
        realized = workload.error_quadratic(truth_delta)
        assert realized < predicted * 10

        # 4. WNNLS keeps answers close while restoring consistency.
        consistent = wnnls_from_data_estimate(
            workload, result.data_vector_estimate
        )
        assert (consistent >= 0).all()
        error_after = workload.error_quadratic(consistent - dataset.data_vector)
        assert error_after <= realized * 1.2


class TestHeadlineClaim:
    """The paper's abstract: the optimized mechanism outperforms every
    competitor, even on the workloads those competitors were designed for."""

    def test_beats_designed_for_baselines(self, mechanism):
        from repro.mechanisms import paper_baselines

        matchups = {
            "Histogram": "Randomized Response",
            "Prefix": "Hierarchical",
            "AllRange": "Hierarchical",
            "3-Way Marginals": "Fourier",
        }
        baselines = {m.name: m for m in paper_baselines()}
        for workload_name, baseline_name in matchups.items():
            workload = by_name(workload_name, DOMAIN_SIZE)
            ours = mechanism.sample_complexity(workload, EPSILON)
            theirs = baselines[baseline_name].sample_complexity(workload, EPSILON)
            assert ours < theirs, f"lost to {baseline_name} on {workload_name}"

    def test_average_variance_statistically_matches_protocol(self, mechanism):
        # Simulated mean squared error ~= Theorem 3.4 prediction.
        workload = by_name("Prefix", 8)
        strategy = mechanism.strategy_for(workload, EPSILON)
        operator = mechanism.reconstruction_for(workload, EPSILON)
        x = np.full(8, 50.0)
        predicted = total_variance(strategy.probabilities, workload.gram(), x)
        rng = np.random.default_rng(1)
        errors = []
        for _ in range(300):
            y = strategy.sample_histogram(x, rng)
            delta = operator @ y - x
            errors.append(workload.error_quadratic(delta))
        assert np.isclose(np.mean(errors), predicted, rtol=0.2)
