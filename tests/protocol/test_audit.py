"""Tests for privacy audits."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.mechanisms import (
    StrategyMatrix,
    hadamard_response,
    hierarchical,
    randomized_response,
)
from repro.protocol import audit_strategy, empirical_ratio_audit


class TestExactAudit:
    def test_randomized_response_tight(self):
        report = audit_strategy(randomized_response(5, 1.0))
        assert report.satisfied
        assert np.isclose(report.epsilon_realized, 1.0)
        assert np.isclose(report.slack, 0.0, atol=1e-9)

    def test_mixture_reports_slack(self):
        # A mixture never exceeds the component ratio; realized <= claimed.
        report = audit_strategy(hierarchical(8, 1.5))
        assert report.satisfied
        assert report.epsilon_realized <= 1.5 + 1e-9

    def test_violation_detected(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])
        rogue = StrategyMatrix(matrix, 1.0, validate=False)
        report = audit_strategy(rogue)
        assert not report.satisfied
        assert report.epsilon_realized > 1.0

    def test_identity_fails_where_exp_epsilon_overflows(self):
        rogue = StrategyMatrix(np.eye(4), 710.0, validate=False)
        report = audit_strategy(rogue)
        assert not report.satisfied
        assert report.epsilon_realized == np.inf

    def test_worst_output_identified(self):
        # Build a strategy where row 1 has the largest ratio.
        matrix = np.array([[0.5, 0.5], [0.3, 0.2], [0.2, 0.3]])
        strategy = StrategyMatrix(matrix, 1.0)
        report = audit_strategy(strategy)
        assert report.worst_output in (1, 2)


class TestEmpiricalAudit:
    def test_within_budget_for_honest_mechanism(self, rng):
        strategy = randomized_response(4, 1.0)
        ratio = empirical_ratio_audit(strategy, 0, 1, num_samples=100_000, rng=rng)
        assert ratio <= np.exp(1.0) * 1.1

    def test_detects_blatant_violation(self, rng):
        matrix = np.array([[0.99, 0.01], [0.01, 0.99]])
        rogue = StrategyMatrix(matrix, 1.0, validate=False)
        ratio = empirical_ratio_audit(rogue, 0, 1, num_samples=100_000, rng=rng)
        assert ratio > np.exp(1.0) * 2

    def test_rejects_bad_types(self, rng):
        strategy = hadamard_response(4, 1.0)
        with pytest.raises(ProtocolError):
            empirical_ratio_audit(strategy, 0, 7, rng=rng)
