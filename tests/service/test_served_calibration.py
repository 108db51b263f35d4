"""Calibration of the served answer over seeded repeated cohorts.

Every trial draws a fresh cohort from one fixed population and asks
:meth:`CampaignManager.query` for 90% intervals, for a campaign of each
kind of strategy (closed-form and optimized).  Per workload query, over
the trials:

* the mean standardized error ``(est − truth) / se`` is near 0;
* the variance of the estimates over the mean served ``se²`` is near 1;
* the intervals cover the truth 85–95% of the time.
"""

import numpy as np
import pytest

from repro.service import CampaignManager

TRIALS = 400
CONFIDENCE = 0.9
DOMAIN = 16
#: The population every cohort is drawn from: 4,080 users over 16 types.
POPULATION = 30.0 * np.arange(1, DOMAIN + 1)


def trials(mechanism):
    manager = CampaignManager()
    campaign = manager.create(
        "plain",
        workload="Prefix",
        domain_size=DOMAIN,
        epsilon=1.0,
        mechanism=mechanism,
        iterations=30,
    )
    rng = np.random.default_rng(1)
    answers = []
    for _ in range(TRIALS):
        campaign.accumulator = campaign.session.new_accumulator()
        histogram = campaign.session.strategy.sample_histogram(POPULATION, rng)
        campaign.accumulator.add_histogram(histogram)
        answers.append(manager.query("plain", CONFIDENCE).intervals)
    return campaign.session.workload.matvec(POPULATION), answers


@pytest.mark.parametrize(
    "mechanism", ["Hadamard", "Randomized Response", "Optimized"]
)
def test_served_intervals_are_calibrated(mechanism):
    truth, answers = trials(mechanism)
    estimates = np.array([answer.estimates for answer in answers])
    errors = np.array([answer.standard_errors for answer in answers])
    lower = np.array([answer.lower for answer in answers])
    upper = np.array([answer.upper for answer in answers])

    covered = (lower <= truth) & (truth <= upper)
    # The total count is fixed by the cohort size, so the mechanism answers
    # it exactly: its standard error is the round-off floor, which must
    # still cover the truth.
    exact = errors.max(axis=0) <= 1e-9 * (1.0 + np.abs(estimates).max(axis=0))
    assert exact.sum() == 1 and covered[:, exact].all()

    standardized = (estimates - truth) / errors
    assert np.abs(standardized[:, ~exact].mean(axis=0)).max() < 0.2
    ratio = estimates.var(axis=0, ddof=1) / (errors**2).mean(axis=0)
    assert ratio[~exact].min() > 0.75 and ratio[~exact].max() < 1.3, ratio
    coverage = covered[:, ~exact].mean(axis=0)
    assert coverage.min() >= 0.85 and coverage.max() <= 0.95, coverage
