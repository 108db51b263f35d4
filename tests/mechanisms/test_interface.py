"""Tests for the Mechanism comparison interface."""

import numpy as np
import pytest

from repro.exceptions import FactorizationError, ProtocolError
from repro.mechanisms import (
    StrategyMechanism,
    fourier,
    hadamard_response,
    hierarchical,
    randomized_response,
)
from repro.workloads import histogram, parity, prefix


class TestStrategyMechanism:
    def test_caches_per_domain_and_epsilon(self):
        mechanism = StrategyMechanism("RR", randomized_response)
        first = mechanism.strategy_for(histogram(8), 1.0)
        second = mechanism.strategy_for(prefix(8), 1.0)
        assert first is second  # same (n, eps) -> shared strategy
        third = mechanism.strategy_for(histogram(8), 2.0)
        assert third is not first

    def test_sample_complexity_positive_and_finite(self):
        mechanism = StrategyMechanism("RR", randomized_response)
        value = mechanism.sample_complexity(prefix(8), 1.0)
        assert 0 < value < np.inf

    def test_infeasible_workload_reports_infinity(self):
        limited = StrategyMechanism(
            "Fourier(deg=1)", lambda n, eps: fourier(n, eps, degree=1)
        )
        assert limited.sample_complexity(histogram(8), 1.0) == np.inf

    def test_feasible_low_rank_workload(self):
        limited = StrategyMechanism(
            "Fourier(deg=2)", lambda n, eps: fourier(n, eps, degree=2)
        )
        assert limited.sample_complexity(parity(3, 2), 1.0) < np.inf

    def test_worst_at_least_average(self):
        mechanism = StrategyMechanism("RR", randomized_response)
        workload = prefix(8)
        worst = mechanism.worst_case_variance(workload, 1.0)
        average = mechanism.average_case_variance(workload, 1.0)
        assert worst >= average - 1e-9

    def test_data_dependent_at_most_worst_case(self, rng):
        mechanism = StrategyMechanism("RR", randomized_response)
        workload = prefix(8)
        distribution = rng.dirichlet(np.ones(8))
        data_dependent = mechanism.sample_complexity_on_distribution(
            workload, 1.0, distribution
        )
        assert data_dependent <= mechanism.sample_complexity(workload, 1.0) + 1e-9

    def test_run_produces_estimates(self, rng):
        mechanism = StrategyMechanism("RR", randomized_response)
        estimates = mechanism.run(prefix(4), np.array([5.0, 5.0, 5.0, 5.0]), 1.0, rng)
        assert estimates.shape == (4,)


    def test_run_refuses_workload_outside_row_space(self):
        limited = StrategyMechanism(
            "Fourier(deg=1)", lambda n, eps: fourier(n, eps, degree=1)
        )
        with pytest.raises(FactorizationError, match="row space"):
            limited.run(histogram(8), np.full(8, 10.0), 1.0)

    @pytest.mark.parametrize(
        "factory",
        [randomized_response, hadamard_response, hierarchical],
        ids=["rr", "hadamard", "hierarchical"],
    )
    def test_run_is_sample_reconstruct_answer(self, factory):
        """At a fixed generator, run() is exactly W (B (M_Q(x))): one
        multinomial histogram through the cached operator."""
        mechanism = StrategyMechanism("m", factory)
        workload, x = prefix(8), np.arange(8.0) * 5
        strategy = mechanism.strategy_for(workload, 1.0)
        operator = mechanism.reconstruction_for(workload, 1.0)
        by_hand = workload.matvec(
            operator @ strategy.sample_histogram(x, np.random.default_rng(9))
        )
        run = mechanism.run(workload, x, 1.0, np.random.default_rng(9))
        assert np.array_equal(run, by_hand)

    def test_run_is_unbiased(self, rng):
        mechanism = StrategyMechanism("RR", randomized_response)
        x = np.array([100.0, 50.0, 25.0, 25.0])
        average = np.mean(
            [mechanism.run(histogram(4), x, 2.0, rng) for _ in range(200)], axis=0
        )
        assert np.allclose(average, x, atol=6.0)

    def test_run_refuses_malformed_counts(self, rng):
        mechanism = StrategyMechanism("RR", randomized_response)
        for bad in ([2.5, 1.7, 0.9, 3.2], [-3.0, 1.0, 1.0, 1.0]):
            with pytest.raises(ProtocolError, match="counts"):
                mechanism.run(histogram(4), np.array(bad), 1.0, rng)
