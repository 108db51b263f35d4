"""Fixtures shared by the service tests."""

import pytest


@pytest.fixture
def builds(monkeypatch) -> list:
    """The strategy of every session the campaigns module builds a variance
    matrix for, in build order."""
    from repro.service import campaigns

    built = []
    build = campaigns.variance_matrix

    def spy(workload, strategy, operator):
        built.append(strategy)
        return build(workload, strategy, operator)

    monkeypatch.setattr(campaigns, "variance_matrix", spy)
    return built
