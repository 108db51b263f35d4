"""Round-level harness for adaptive multi-round campaigns.

Covers deterministic round advancement, exact budget conservation through
the campaign lifecycle, round-tag rejection of stale cohorts, crash
recovery between the round checkpoint and the strategy swap, and the
cross-round query combination rule.
"""

import shutil

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ServiceError
from repro.postprocess import variance_matrix, workload_confidence_intervals
from repro.service import (
    AdaptivePlan,
    CampaignManager,
    CheckpointStore,
    CollectionService,
    ServiceClient,
    ServiceThread,
)
from repro.service.ingest import resolve_round


def make_plan(num_rounds=3, **overrides) -> AdaptivePlan:
    options = dict(
        num_rounds=num_rounds,
        num_groups=2,
        selector_share=0.05,
        boost=4.0,
        iterations=15,
        restarts=1,
        seed=0,
    )
    options.update(overrides)
    return AdaptivePlan(**options)


def make_adaptive_manager(num_rounds=3, epsilon=2.0) -> CampaignManager:
    manager = CampaignManager()
    manager.create(
        "demo",
        workload="Prefix",
        domain_size=8,
        epsilon=epsilon,
        mechanism="Randomized Response",
        adaptive=make_plan(num_rounds),
    )
    return manager


def skewed_reports(session, count=400, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, session.num_outputs, size=count)


class TestAdaptivePlan:
    def test_json_round_trip(self):
        plan = make_plan(4, selector_share=0.1, boost=2.0)
        assert AdaptivePlan.from_json(plan.to_json()) == plan

    def test_from_json_accepts_short_aliases(self):
        plan = AdaptivePlan.from_json({"rounds": 2, "groups": 3})
        assert plan.num_rounds == 2
        assert plan.num_groups == 3

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ServiceError, match="unknown"):
            AdaptivePlan.from_json({"rounds": 2, "surprise": 1})

    def test_validation(self):
        with pytest.raises(ServiceError):
            make_plan(num_rounds=1)
        with pytest.raises(ServiceError):
            make_plan(selector_share=1.5)
        with pytest.raises(ServiceError):
            make_plan(boost=0.0)
        with pytest.raises(ServiceError):
            make_plan(num_groups=0)

    def test_budgets_conserve_campaign_epsilon(self):
        from fractions import Fraction

        budgets = make_plan(3).budgets(1.7)
        assert sum(b.total for b in budgets) == Fraction(1.7)


class TestAdaptiveLifecycle:
    def test_creation_opens_round_one_with_ledger_debit(self):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        assert campaign.current_round == 1
        assert campaign.accumulator.round_id == 1
        assert len(campaign.ledger) == 1
        assert campaign.ledger.round_spent(1) == campaign.ledger.spent
        # the round-1 strategy runs at round 1's collect budget, while the
        # campaign's advertised epsilon stays the full-campaign total
        budgets = campaign.adaptive.budgets(campaign.epsilon)
        assert campaign.session.epsilon == float(budgets[0].collect_epsilon)
        assert campaign.epsilon == 2.0

    def test_full_campaign_drains_the_ledger_exactly(self):
        manager = make_adaptive_manager(num_rounds=3)
        campaign = manager.get("demo")
        for _ in range(2):
            campaign.accumulator.add_reports(
                skewed_reports(campaign.session, seed=campaign.current_round)
            )
            manager.advance_round("demo")
        assert campaign.current_round == 3
        assert campaign.ledger.spent == campaign.ledger.total
        assert campaign.ledger.remaining == 0
        assert [record.round_id for record in campaign.rounds] == [1, 2]
        with pytest.raises(ServiceError, match="final round"):
            manager.advance_round("demo")

    def test_advance_reports_selection_and_budget(self):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session))
        report = manager.advance_round("demo")
        assert report.from_round == 1
        assert report.to_round == 2
        assert 0 <= report.selected_group < 2
        assert len(report.scores) == 2
        document = report.to_json()
        assert document["round"] == 2
        assert document["selected_group"] == report.selected_group

    def test_advance_is_deterministic_across_managers(self):
        """Satellite: seeded round advancement is fully deterministic —
        same selection, same strategy, bit for bit."""
        outcomes = []
        for _ in range(2):
            manager = make_adaptive_manager()
            campaign = manager.get("demo")
            campaign.accumulator.add_reports(skewed_reports(campaign.session))
            report = manager.advance_round("demo")
            outcomes.append((report, campaign.session.strategy.probabilities))
        first, second = outcomes
        assert first[0].to_json() == second[0].to_json()
        assert np.array_equal(first[1], second[1])

    def test_stale_plan_commit_refused(self):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session))
        stale = manager.plan_advance("demo")
        manager.advance_round("demo")
        session = manager.optimize_round_strategy(stale)
        with pytest.raises(ServiceError, match="stale advance"):
            manager.commit_advance(stale, session)

    def test_non_adaptive_campaign_refuses_rounds(self):
        manager = CampaignManager()
        manager.create(
            "plain",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="Randomized Response",
        )
        with pytest.raises(ServiceError, match="not adaptive"):
            manager.advance_round("plain")
        assert manager.get("plain").current_round == 0
        assert manager.get("plain").accumulator.round_id == 0

    def test_query_combines_rounds_with_independent_errors(self):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=1))
        manager.advance_round("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=2))

        parts = [
            (record.session, record.accumulator) for record in campaign.rounds
        ] + [(campaign.session, campaign.accumulator)]
        parts = [(s, a) for s, a in parts if a.num_reports]
        assert len(parts) == 2
        per_round = [
            workload_confidence_intervals(
                session.workload,
                session.operator,
                variance_matrix(session.workload, session.strategy, session.operator),
                accumulator.histogram,
                confidence=0.95,
            )
            for session, accumulator in parts
        ]
        answer = manager.query("demo")
        assert answer.round == 2
        assert answer.num_reports == 800
        assert np.array_equal(
            answer.intervals.estimates,
            np.asarray(per_round[0].estimates) + np.asarray(per_round[1].estimates),
        )
        assert np.array_equal(
            answer.intervals.standard_errors,
            np.sqrt(
                np.asarray(per_round[0].standard_errors) ** 2
                + np.asarray(per_round[1].standard_errors) ** 2
            ),
        )

    def test_completed_round_answer_is_computed_once(self, builds):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=1))
        manager.advance_round("demo")
        first = campaign.rounds[0].session.strategy
        assert len(builds) == 1 and builds[0] is first  # the advance's query
        del builds[:]
        for seed in range(5):
            campaign.accumulator.add_reports(
                skewed_reports(campaign.session, count=50, seed=10 + seed)
            )
            manager.query("demo")
        # The live round's matrix once, and round 1's once for its answer.
        assert len(builds) == 2
        assert sum(strategy is first for strategy in builds) == 1
        assert sum(strategy is campaign.session.strategy for strategy in builds) == 1

    def test_describe_exposes_round_state(self):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session))
        manager.advance_round("demo")
        document = campaign.describe()
        assert document["round"] == 2
        adaptive = document["adaptive"]
        assert adaptive["current_round"] == 2
        assert len(adaptive["rounds"]) == 1
        assert adaptive["rounds"][0]["round"] == 1
        assert adaptive["ledger"]["total_epsilon"] == 2.0
        assert document["epsilon"] == 2.0


class TestRoundResolution:
    class Stub:
        name = "stub"

        def __init__(self, adaptive, current_round):
            self.adaptive = adaptive
            self.current_round = current_round

    def test_untagged_folds_into_current_round(self):
        adaptive = self.Stub(adaptive=object(), current_round=2)
        assert resolve_round(adaptive, None) == 2
        assert resolve_round(adaptive, 0) == 2
        assert resolve_round(adaptive, 2) == 2

    def test_stale_and_unknown_tags_raise(self):
        adaptive = self.Stub(adaptive=object(), current_round=2)
        with pytest.raises(ProtocolError, match="stale round tag 1"):
            resolve_round(adaptive, 1)
        with pytest.raises(ProtocolError, match="unknown round tag 3"):
            resolve_round(adaptive, 3)

    def test_tags_on_non_adaptive_campaigns_raise(self):
        plain = self.Stub(adaptive=None, current_round=0)
        assert resolve_round(plain, None) == 0
        with pytest.raises(ProtocolError, match="not adaptive"):
            resolve_round(plain, 1)

    def test_non_integer_tags_raise(self):
        plain = self.Stub(adaptive=None, current_round=0)
        with pytest.raises(ProtocolError, match="integer"):
            resolve_round(plain, True)
        with pytest.raises(ProtocolError, match="integer"):
            resolve_round(plain, "2")


class TestCheckpointRecovery:
    def test_mid_campaign_recovery_is_bit_identical(self, tmp_path):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=1))
        manager.advance_round("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=2))
        store = CheckpointStore(tmp_path)
        store.save(manager)

        recovered = CheckpointStore(tmp_path).load()
        restored = recovered.get("demo")
        assert restored.current_round == 2
        assert restored.ledger == campaign.ledger
        assert restored.adaptive == campaign.adaptive
        assert restored.accumulator == campaign.accumulator
        assert len(restored.rounds) == 1
        assert restored.rounds[0].accumulator == campaign.rounds[0].accumulator
        assert restored.rounds[0].selected_group == campaign.rounds[0].selected_group
        assert np.array_equal(
            restored.rounds[0].session.strategy.probabilities,
            campaign.rounds[0].session.strategy.probabilities,
        )
        original_answer = manager.query("demo")
        recovered_answer = recovered.query("demo")
        assert np.array_equal(
            recovered_answer.intervals.estimates,
            original_answer.intervals.estimates,
        )
        assert np.array_equal(
            recovered_answer.intervals.standard_errors,
            original_answer.intervals.standard_errors,
        )

    def test_recovered_campaign_replays_the_next_advance_identically(
        self, tmp_path
    ):
        manager = make_adaptive_manager()
        campaign = manager.get("demo")
        campaign.accumulator.add_reports(skewed_reports(campaign.session, seed=1))
        CheckpointStore(tmp_path).save(manager)

        recovered = CheckpointStore(tmp_path).load()
        original = manager.advance_round("demo")
        replayed = recovered.advance_round("demo")
        assert replayed.to_json() == original.to_json()
        assert np.array_equal(
            recovered.get("demo").session.strategy.probabilities,
            manager.get("demo").session.strategy.probabilities,
        )


@pytest.fixture
def adaptive_live(tmp_path):
    """A checkpointing service + client with a 2-round adaptive campaign."""
    service = CollectionService(
        checkpoint_dir=tmp_path,
        checkpoint_interval=3600.0,
    )
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    client.create_campaign(
        "demo",
        workload="Prefix",
        domain_size=8,
        epsilon=2.0,
        mechanism="Randomized Response",
        adaptive={"rounds": 2, "groups": 2, "iterations": 15, "seed": 0},
    )
    try:
        yield thread, client, tmp_path
    finally:
        client.close()
        thread.stop()


class TestServiceAdvance:
    def test_http_advance_rotates_the_round(self, adaptive_live):
        _, client, _ = adaptive_live
        rng = np.random.default_rng(0)
        client.send_reports("demo", rng.integers(0, 8, size=300))
        assert client.query("demo", sync=True)["round"] == 1

        report = client.advance_campaign("demo")
        assert report["round"] == 2
        assert report["from_round"] == 1
        assert 0 <= report["selected_group"] < 2

        document = client.campaign("demo")
        assert document["round"] == 2
        client.send_reports("demo", rng.integers(0, 8, size=100))
        answer = client.query("demo", sync=True)
        assert answer["round"] == 2
        assert answer["num_reports"] == 400

    def test_stale_round_reports_rejected_loudly(self, adaptive_live):
        """Satellite: a cohort still randomizing against a retired
        strategy gets a clear error, never a silent fold."""
        _, client, _ = adaptive_live
        rng = np.random.default_rng(0)
        client.send_reports("demo", rng.integers(0, 8, size=50))
        client.query("demo", sync=True)
        client.advance_campaign("demo")

        with pytest.raises(ServiceError, match="stale round"):
            client.send_reports("demo", [1, 2, 3], round_id=1)
        with pytest.raises(ServiceError, match="unknown round"):
            client.send_reports("demo", [1, 2, 3], round_id=9)
        # tagged with the live round: accepted
        assert client.send_reports("demo", [1, 2, 3], round_id=2)["accepted"] == 3
        # nothing from the rejected batches leaked into the histogram
        assert client.query("demo", sync=True)["num_reports"] == 53

    def test_stale_round_rejected_on_binary_transport(self, adaptive_live):
        _, client, _ = adaptive_live
        rng = np.random.default_rng(0)
        client.send_reports("demo", rng.integers(0, 8, size=20))
        client.query("demo", sync=True)
        client.advance_campaign("demo")

        binary = ServiceClient(client.host, client.port, transport="binary")
        try:
            with pytest.raises(ServiceError, match="stale round"):
                binary.send_reports("demo", [1, 2], round_id=1)
            accepted = binary.send_reports("demo", [1, 2], round_id=2)
            assert accepted["accepted"] == 2
        finally:
            binary.close()

    def test_adaptive_campaigns_rejected_in_cluster_mode(self):
        service = CollectionService(cluster_workers=1)
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            with pytest.raises(ServiceError, match="cluster"):
                client.create_campaign(
                    "demo",
                    workload="Histogram",
                    domain_size=4,
                    epsilon=1.0,
                    mechanism="Randomized Response",
                    adaptive={"rounds": 2},
                )
        finally:
            client.close()
            thread.stop()

    def test_recovered_adaptive_campaign_refused_in_cluster_mode(
        self, tmp_path, capsys, monkeypatch
    ):
        """A checkpoint that already holds an adaptive campaign cannot be
        restarted as a cluster: refused before any worker spawns, both by
        the constructor and by ``repro serve`` (exit 2)."""
        from repro.cli import main

        # Keep the CLI from pointing the process-wide logger at capsys.
        monkeypatch.setattr("repro.telemetry.configure_logging", lambda _: None)
        CheckpointStore(tmp_path).save(make_adaptive_manager())
        with pytest.raises(ServiceError, match="without --workers"):
            CollectionService(checkpoint_dir=tmp_path, cluster_workers=1)
        arguments = ["serve", "--port", "0", "--checkpoint-dir", str(tmp_path)]
        assert main([*arguments, "--workers", "1"]) == 2
        assert "cluster mode" in capsys.readouterr().err
        # The same checkpoint still serves single-process.
        assert CollectionService(checkpoint_dir=tmp_path).recovered

    def test_round_tags_on_non_adaptive_campaigns_rejected(self, adaptive_live):
        _, client, _ = adaptive_live
        client.create_campaign(
            "plain",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="Randomized Response",
        )
        with pytest.raises(ServiceError, match="not adaptive"):
            client.send_reports("plain", [1], round_id=1)

    def test_advance_refused_for_non_adaptive_and_unknown(self, adaptive_live):
        _, client, _ = adaptive_live
        client.create_campaign(
            "plain",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="Randomized Response",
        )
        with pytest.raises(ServiceError, match="not adaptive"):
            client.advance_campaign("plain")
        with pytest.raises(ServiceError, match="404"):
            client.advance_campaign("ghost")

    def test_reporter_pins_its_round_and_refreshes_across_advance(
        self, adaptive_live
    ):
        _, client, _ = adaptive_live
        rng = np.random.default_rng(5)
        reporter = client.reporter("demo", batch_size=1000, rng=rng)
        assert reporter.round_id == 1
        reporter.report_many([1, 2, 3] * 20)
        reporter.flush_all()
        client.query("demo", sync=True)
        client.advance_campaign("demo")

        # the pinned round-1 reporter now randomizes against a retired
        # strategy; shipping must fail loudly, not fold silently
        reporter.report(4)
        with pytest.raises(ServiceError, match="stale round"):
            reporter.flush_all()

        # refresh drops the unshippable stale report and rotates the round
        assert reporter.refresh() == 2
        assert reporter.round_id == 2
        assert reporter.reports_dropped == 1
        assert reporter.pending == 0
        reporter.report_many([5, 6])
        reporter.flush_all()
        answer = client.query("demo", sync=True)
        assert answer["num_reports"] == 62
        assert answer["round"] == 2

    def test_crash_between_round_checkpoint_and_swap_recovers(
        self, adaptive_live, tmp_path_factory
    ):
        """The service dies after the round checkpoint but before the
        post-commit checkpoint lands; recovery replays into the correct
        round with bit-identical accumulators and strategy."""
        thread, client, checkpoint_dir = adaptive_live
        rng = np.random.default_rng(3)
        client.send_reports("demo", rng.integers(0, 8, size=250))
        before = client.query("demo", sync=True)

        # A checkpoint now holds what the advance's own round checkpoint
        # writes.  Putting a copy of it back after the crash leaves the
        # disk in the window: round 1 on disk, round 2 in memory.
        client.checkpoint()
        round_checkpoint = tmp_path_factory.mktemp("crash") / "round"
        shutil.copytree(checkpoint_dir, round_checkpoint)
        report = client.advance_campaign("demo")
        strategy = client.strategy("demo")
        client.close()
        thread.stop(final_checkpoint=False)  # crash
        shutil.rmtree(checkpoint_dir)
        shutil.copytree(round_checkpoint, checkpoint_dir)

        service = CollectionService(
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=3600.0,
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            assert client.healthz()["recovered"] is True
            recovered = client.query("demo", sync=True)
            assert recovered["round"] == 1
            assert recovered["num_reports"] == 250
            assert recovered["estimates"] == before["estimates"]

            replayed = client.advance_campaign("demo")
            assert replayed == report
            assert np.array_equal(
                client.strategy("demo").probabilities, strategy.probabilities
            )
        finally:
            client.close()
            thread.stop()
