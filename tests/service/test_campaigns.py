"""Tests for the campaign registry."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ReproError, ServiceError
from repro.mechanisms import randomized_response
from repro.protocol import ProtocolSession
from repro.service import (
    Campaign,
    CampaignManager,
    CheckpointStore,
    validate_campaign_name,
)
from repro.workloads import histogram


@pytest.fixture
def manager() -> CampaignManager:
    manager = CampaignManager()
    manager.create(
        "demo",
        workload="Histogram",
        domain_size=8,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    return manager


class TestCampaignNames:
    @pytest.mark.parametrize("name", ["a", "latency-v2", "A.b_c-9", "x" * 64])
    def test_accepts_safe_names(self, name):
        assert validate_campaign_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["", "../etc", "a/b", "a b", ".hidden", "-lead", "x" * 65, 7, None,
         "prod\n", "a\nb"],
    )
    def test_rejects_unsafe_names(self, name):
        with pytest.raises(ServiceError):
            validate_campaign_name(name)


class TestCampaignManager:
    def test_create_and_lookup(self, manager):
        campaign = manager.get("demo")
        assert campaign.session.epsilon == 1.0
        assert campaign.num_reports == 0
        assert "demo" in manager and len(manager) == 1
        assert [c.name for c in manager.campaigns()] == ["demo"]

    def test_case_colliding_name_rejected(self, manager):
        # 'Demo' and 'demo' would share a checkpoint file stem on
        # case-insensitive filesystems.
        with pytest.raises(ServiceError, match="case-insensitive"):
            manager.create(
                "DEMO",
                workload="Histogram",
                domain_size=8,
                epsilon=1.0,
                mechanism="Randomized Response",
            )

    def test_duplicate_name_rejected(self, manager):
        with pytest.raises(ServiceError, match="already exists"):
            manager.create(
                "demo",
                workload="Histogram",
                domain_size=8,
                epsilon=1.0,
                mechanism="Randomized Response",
            )

    def test_unknown_campaign_lists_known(self, manager):
        with pytest.raises(ServiceError, match="demo"):
            manager.get("nope")

    def test_unknown_mechanism(self):
        with pytest.raises(ServiceError, match="unknown mechanism"):
            CampaignManager().create(
                "x",
                workload="Histogram",
                domain_size=4,
                epsilon=1.0,
                mechanism="Quantum",
            )

    def test_store_mechanism_requires_store(self):
        with pytest.raises(ServiceError, match="store"):
            CampaignManager().create(
                "x",
                workload="Histogram",
                domain_size=4,
                epsilon=1.0,
                mechanism="store",
            )

    def test_create_from_store(self, tmp_path):
        from repro.optimization import OptimizerConfig, multi_restart_optimize
        from repro.store import StrategyStore
        from repro.workloads import histogram as histogram_workload

        store = StrategyStore(tmp_path)
        multi_restart_optimize(
            histogram_workload(4),
            1.0,
            OptimizerConfig(num_iterations=30, seed=0),
            restarts=1,
            store=store,
        )
        campaign = CampaignManager().create(
            "stored",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="store",
            store=store,
        )
        assert campaign.source == "store"
        assert campaign.session.epsilon == 1.0

    def test_unanswerable_workload_refused_before_strategy_resolution(
        self, monkeypatch
    ):
        # AllRange at n=1024 has 524,800 queries: its p x n variance matrix
        # is over MAX_EXPLICIT_ENTRIES, so no query could be answered.
        def resolve(*args):
            raise AssertionError("strategy resolved for a refused campaign")

        monkeypatch.setattr(CampaignManager, "_session_from_mechanism", resolve)
        manager = CampaignManager()
        with pytest.raises(ServiceError, match="variance matrix"):
            manager.create(
                "wide",
                workload="AllRange",
                domain_size=1024,
                epsilon=1.0,
                mechanism="Randomized Response",
            )
        assert len(manager) == 0

    def test_oversized_explicit_workload_refused_before_allocation(self):
        # Prefix-7500 needs a 7500 x 7500 matrix, over MAX_EXPLICIT_ENTRIES;
        # building it just to refuse it would allocate n^2 floats (450 MB).
        manager = CampaignManager()
        tracemalloc.start()
        try:
            with pytest.raises(ReproError, match="entry limit"):
                manager.build(
                    "big",
                    workload="Prefix",
                    domain_size=7500,
                    epsilon=1.0,
                    mechanism="Randomized Response",
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7500 * 7500 * 8 / 1000

    def test_adopt_rejects_mismatched_accumulator(self):
        from repro.protocol import ShardAccumulator

        session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        with pytest.raises(ServiceError, match="does not match"):
            Campaign(
                name="bad",
                session=session,
                workload_name="Histogram",
                epsilon=1.0,
                source="test",
                accumulator=ShardAccumulator(7),
            )

    def test_describe_is_json_ready(self, manager):
        import json

        description = manager.get("demo").describe()
        assert json.loads(json.dumps(description)) == description
        assert description["workload"] == "Histogram"
        assert description["source"] == "Randomized Response"


class TestQuery:
    def test_live_query_matches_batch_finalize(self, manager):
        campaign = manager.get("demo")
        rng = np.random.default_rng(0)
        reports = rng.integers(0, campaign.session.num_outputs, size=2000)
        campaign.accumulator.add_reports(reports)
        answer = manager.query("demo", confidence=0.9)
        batch = campaign.session.finalize(campaign.accumulator)
        assert answer.num_reports == 2000
        assert np.array_equal(
            answer.intervals.estimates, batch.workload_estimates
        )
        assert answer.intervals.confidence == 0.9
        assert np.all(answer.intervals.lower <= answer.intervals.upper)

    def test_query_folds_pending_partials(self, manager):
        campaign = manager.get("demo")
        campaign.accumulator.add_reports([0, 1])
        pending = campaign.session.new_accumulator().add_reports([2, 3, 3])
        answer = manager.query("demo", pending=[pending])
        assert answer.num_reports == 5
        # the campaign's live accumulator must not be mutated by the query
        assert campaign.num_reports == 2

    def test_query_payload_round_trips_json(self, manager):
        import json

        manager.get("demo").accumulator.add_reports([0, 0, 5])
        payload = manager.query("demo").to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["num_reports"] == 3
        assert len(payload["estimates"]) == 8

    def test_answer_runs_on_one_blas_thread(
        self, manager, set_blas_threads, monkeypatch
    ):
        from repro.linalg.blas import thread_counts
        from repro.postprocess import intervals

        set_blas_threads(2)
        seen = []
        per_query_variances = intervals.per_query_variances

        def spy(matrix, data_vector):
            seen.append(thread_counts())
            return per_query_variances(matrix, data_vector)

        monkeypatch.setattr(intervals, "per_query_variances", spy)
        manager.get("demo").accumulator.add_reports([0, 1, 1, 5])
        manager.query("demo")
        assert seen == [{name: 1 for name in thread_counts()}]
        assert set(thread_counts().values()) == {2}


class TestVarianceMatrixReuse:
    def test_twenty_queries_build_it_once(self, manager, builds):
        campaign = manager.get("demo")
        assert builds == []  # nobody queried yet
        rng = np.random.default_rng(0)
        for _ in range(20):
            campaign.accumulator.add_reports(rng.integers(0, 8, size=50))
            manager.query("demo")
        assert len(builds) == 1
        assert builds[0] is campaign.session.strategy

    def test_recovered_campaign_builds_it_at_first_query(
        self, manager, builds, tmp_path
    ):
        manager.get("demo").accumulator.add_reports([0, 1, 1, 5])
        before = manager.query("demo")
        CheckpointStore(tmp_path).save(manager)
        recovered = CheckpointStore(tmp_path).load()
        assert len(builds) == 1  # loading builds none
        answers = [recovered.query("demo") for _ in range(3)]
        assert len(builds) == 2
        assert builds[1] is recovered.get("demo").session.strategy
        for answer in answers:
            assert np.array_equal(
                answer.intervals.standard_errors, before.intervals.standard_errors
            )
