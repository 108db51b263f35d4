"""Tests for StrategyMatrix and the mixture combinator."""

import numpy as np
import pytest

from repro.exceptions import (
    PrivacyViolationError,
    ProtocolError,
    StochasticityError,
)
from repro.mechanisms import StrategyMatrix, randomized_response, stack_strategies


class TestValidation:
    def test_accepts_valid_strategy(self):
        strategy = randomized_response(4, 1.0)
        assert strategy.shape == (4, 4)

    def test_rejects_non_stochastic(self):
        matrix = np.full((2, 2), 0.4)
        with pytest.raises(StochasticityError):
            StrategyMatrix(matrix, 1.0)

    def test_rejects_negative_entries(self):
        matrix = np.array([[1.2, 0.5], [-0.2, 0.5]])
        with pytest.raises(StochasticityError):
            StrategyMatrix(matrix, 1.0)

    def test_rejects_privacy_violation(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])  # ratio 9 > e
        with pytest.raises(PrivacyViolationError):
            StrategyMatrix(matrix, 1.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(PrivacyViolationError):
            StrategyMatrix(np.full((2, 2), 0.5), 0.0)

    @pytest.mark.parametrize(
        "epsilon, match",
        [
            (710.0, "violates"),
            (800.0, "violates"),
            (float("inf"), "finite and positive"),
            (float("nan"), "finite and positive"),
        ],
    )
    def test_identity_refused_at_every_epsilon(self, epsilon, match):
        # The identity reveals every input; e^eps overflowing to inf above
        # eps ~709.78 must not make its infinite ratio pass.
        with pytest.raises(PrivacyViolationError, match=match):
            StrategyMatrix(np.eye(4), epsilon)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), -1.0])
    def test_epsilon_checked_without_validation(self, epsilon):
        with pytest.raises(PrivacyViolationError, match="finite and positive"):
            StrategyMatrix(np.full((2, 2), 0.5), epsilon, validate=False)

    def test_randomized_response_accepted_at_large_epsilon(self):
        strategy = StrategyMatrix(randomized_response(4, 700.0).probabilities, 700.0)
        assert np.isclose(np.log(strategy.realized_ratio()), 700.0)

    def test_rejects_non_2d(self):
        with pytest.raises(StochasticityError):
            StrategyMatrix(np.full(4, 0.25), 1.0)

    def test_validate_false_skips_checks(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])
        strategy = StrategyMatrix(matrix, 1.0, validate=False)
        assert strategy.realized_ratio() == 9.0

    def test_error_message_contains_numbers(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(PrivacyViolationError, match="ratio"):
            StrategyMatrix(matrix, 1.0)


class TestStructure:
    def test_row_sums(self):
        strategy = randomized_response(3, 1.0)
        assert np.allclose(strategy.row_sums(), np.ones(3))

    def test_condensed_drops_dead_rows(self):
        matrix = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])
        strategy = StrategyMatrix(matrix, 1.0)
        condensed = strategy.condensed()
        assert condensed.shape == (2, 2)

    def test_condensed_noop_when_all_live(self):
        strategy = randomized_response(3, 1.0)
        assert strategy.condensed() is strategy


class TestSampling:
    def test_sample_response_in_range(self, rng):
        strategy = randomized_response(5, 2.0)
        for user_type in range(5):
            assert 0 <= strategy.sample_response(user_type, rng) < 5

    @pytest.mark.parametrize(
        ("user_type", "match"),
        [
            (-1, "outside domain"),
            (4, "outside domain"),
            (1.5, "not a whole number"),
            (np.nan, "not a whole number"),
        ],
        ids=["-1", "4", "1.5", "nan"],
    )
    def test_sample_response_refuses_types_outside_domain(
        self, rng, user_type, match
    ):
        # A negative type would index from the end: -1 randomizes as n-1.
        with pytest.raises(ProtocolError, match=match):
            randomized_response(4, 1.0).sample_response(user_type, rng)

    @pytest.mark.parametrize(
        ("user_types", "match"),
        [
            ([1.5, 2.7], "1.5 is not a whole number"),
            ([0.0, 3.99], "3.99 is not a whole number"),
            ([1.0, np.inf], "inf is not a whole number"),
            ([0, 4], "4 outside domain"),
            ([-1, 2], "-1 outside domain"),
            (["1"], "must be numbers"),
        ],
    )
    def test_sample_responses_refuses_malformed_types(self, rng, user_types, match):
        # Truncating 1.5 and 2.7 would randomize them as types 1 and 2.
        with pytest.raises(ProtocolError, match=match):
            randomized_response(4, 1.0).sample_responses(np.array(user_types), rng)

    def test_samplers_accept_whole_floats(self):
        strategy = randomized_response(4, 1.0)
        assert strategy.sample_response(
            2.0, np.random.default_rng(0)
        ) == strategy.sample_response(2, np.random.default_rng(0))
        assert np.array_equal(
            strategy.sample_responses([0.0, 3.0], np.random.default_rng(0)),
            strategy.sample_responses([0, 3], np.random.default_rng(0)),
        )

    @pytest.mark.parametrize(
        "counts",
        [[2.5, 1.7, 0.9, 3.2], [np.nan, 1.0, 1.0, 1.0], [-3.0, 1.0, 1.0, 1.0]],
        ids=["fractional", "nan", "negative"],
    )
    def test_sample_histogram_refuses_malformed_counts(self, rng, counts):
        # Flooring or skipping such counts would silently change who is
        # in the population (6 users from the first vector, 3 from the last).
        with pytest.raises(ProtocolError, match="counts"):
            randomized_response(4, 1.0).sample_histogram(np.array(counts), rng)

    def test_sample_histogram_total(self, rng):
        strategy = randomized_response(4, 1.0)
        x = np.array([5.0, 0.0, 3.0, 2.0])
        histogram = strategy.sample_histogram(x, rng)
        assert histogram.sum() == 10
        assert (histogram >= 0).all()

    def test_sample_histogram_shape_check(self, rng):
        strategy = randomized_response(4, 1.0)
        with pytest.raises(StochasticityError):
            strategy.sample_histogram(np.ones(3), rng)

    def test_high_epsilon_mostly_truthful(self, rng):
        strategy = randomized_response(4, 8.0)
        histogram = strategy.sample_histogram(np.array([0, 1000, 0, 0]), rng)
        assert histogram[1] > 900

    def test_empirical_frequencies_match_column(self, rng):
        strategy = randomized_response(3, 1.0)
        histogram = strategy.sample_histogram(np.array([0, 50_000, 0]), rng)
        frequencies = histogram / histogram.sum()
        assert np.allclose(frequencies, strategy.probabilities[:, 1], atol=0.01)


class TestStackStrategies:
    def test_uniform_mixture_valid(self):
        rr = randomized_response(4, 1.0).probabilities
        stacked = stack_strategies([(0.5, rr), (0.5, rr)], 1.0, name="Mix")
        assert stacked.shape == (8, 4)
        assert np.allclose(stacked.probabilities.sum(axis=0), 1.0)

    def test_rejects_bad_weights(self):
        rr = randomized_response(3, 1.0).probabilities
        with pytest.raises(StochasticityError):
            stack_strategies([(0.7, rr), (0.7, rr)], 1.0, name="Bad")

    def test_mixture_preserves_privacy_ratio(self):
        rr = randomized_response(3, 1.0).probabilities
        stacked = stack_strategies([(0.3, rr), (0.7, rr)], 1.0, name="Mix")
        assert stacked.realized_ratio() <= np.exp(1.0) * (1 + 1e-9)
