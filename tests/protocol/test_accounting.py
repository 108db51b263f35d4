"""Tests for protocol resource accounting."""

import pytest

from repro.mechanisms import hadamard_response, randomized_response, rappor
from repro.protocol import communication_bits, compare_costs, cost_report


class TestCommunicationBits:
    @pytest.mark.parametrize("outputs,bits", [(2, 1), (3, 2), (16, 4), (17, 5)])
    def test_values(self, outputs, bits):
        assert communication_bits(outputs) == bits

    def test_minimum_one_bit(self):
        assert communication_bits(1) == 1


class TestCostReport:
    def test_randomized_response(self):
        report = cost_report(randomized_response(16, 1.0))
        assert report.num_outputs == 16
        assert report.communication_bits == 4
        assert report.client_distinct_levels == 2
        assert report.reconstruction_entries == 256

    def test_rappor_exponential_communication(self):
        # The reason the paper omits RAPPOR from large-domain experiments.
        small = cost_report(randomized_response(8, 1.0))
        heavy = cost_report(rappor(8, 1.0))
        assert heavy.communication_bits == 8
        assert heavy.num_outputs == 256
        assert heavy.num_outputs > small.num_outputs

    def test_compare_sorted_by_bits(self):
        reports = compare_costs(
            [rappor(8, 1.0), randomized_response(8, 1.0), hadamard_response(8, 1.0)]
        )
        bits = [report.communication_bits for report in reports]
        assert bits == sorted(bits)

