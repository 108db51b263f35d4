"""Checkpoint write/recover tests, including the crash round-trip."""

import json

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import CampaignManager, CheckpointStore


def add_round_state(store: CheckpointStore, name: str) -> None:
    """Give one manifest entry the multi-round state older releases wrote
    beside it: the plan, the exact budget ledger and the live round."""
    manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
    manifest["campaigns"][name]["adaptive"] = {
        "plan": {"num_rounds": 2, "num_groups": 4, "selector_share": 0.05,
                 "boost": 4.0, "iterations": 150, "restarts": 1, "seed": 0},
        "ledger": {"total_epsilon": "1",
                   "entries": [{"round": 1, "purpose": "collect",
                                "epsilon": "1/2"}]},
        "current_round": 1,
        "rounds": [],
    }
    store.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def make_manager() -> CampaignManager:
    manager = CampaignManager()
    manager.create(
        "alpha",
        workload="Histogram",
        domain_size=8,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    manager.create(
        "beta",
        workload="Prefix",
        domain_size=16,
        epsilon=0.5,
        mechanism="Hadamard",
    )
    return manager


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        manager = make_manager()
        rng = np.random.default_rng(0)
        manager.get("alpha").accumulator.add_reports(
            rng.integers(0, 8, size=500)
        )
        manager.get("beta").accumulator.add_reports(
            rng.integers(0, manager.get("beta").session.num_outputs, size=700)
        )
        store = CheckpointStore(tmp_path)
        assert not store.exists()
        store.save(manager)
        assert store.exists()

        recovered = CheckpointStore(tmp_path).load()
        assert sorted(c.name for c in recovered.campaigns()) == ["alpha", "beta"]
        for name in ("alpha", "beta"):
            original, restored = manager.get(name), recovered.get(name)
            assert restored.accumulator == original.accumulator
            assert np.array_equal(
                restored.session.strategy.probabilities,
                original.session.strategy.probabilities,
            )
            assert restored.epsilon == original.epsilon
            assert restored.workload_name == original.workload_name
            # recovered estimates are bit-identical, not merely close
            assert np.array_equal(
                recovered.query(name).intervals.estimates,
                manager.query(name).intervals.estimates,
            )

    def test_kill_and_restart_restores_accumulator_bits(self, tmp_path):
        """Satellite: checkpoint → lose the process → restart → identical."""
        store = CheckpointStore(tmp_path)
        manager = make_manager()
        rng = np.random.default_rng(1)
        # several checkpoint cycles with growth in between, like a live
        # service; only the last checkpoint counts.
        for _ in range(3):
            manager.get("alpha").accumulator.add_reports(
                rng.integers(0, 8, size=200)
            )
            store.save(manager)
        pre_kill = manager.get("alpha").accumulator.snapshot()
        # un-checkpointed growth after the last save is lost by a crash
        manager.get("alpha").accumulator.add_reports([0, 0, 0])
        del manager

        recovered = CheckpointStore(tmp_path).load()
        assert recovered.get("alpha").accumulator == pre_kill
        assert recovered.get("alpha").num_reports == 600

    def test_save_with_pretaken_snapshots_ignores_later_growth(self, tmp_path):
        """The service snapshots on the event loop before the threaded file
        write; reports folded after the snapshot must not leak into the
        manifest (a count/payload mismatch would poison recovery)."""
        store = CheckpointStore(tmp_path)
        manager = make_manager()
        manager.get("alpha").accumulator.add_reports([0, 1])
        snapshots = {
            campaign.name: campaign.accumulator.snapshot()
            for campaign in manager.campaigns()
        }
        # a flush lands "mid-save"
        manager.get("alpha").accumulator.add_reports([2, 2, 2])
        manifest = store.save(manager, snapshots)
        assert manifest["campaigns"]["alpha"]["num_reports"] == 2
        recovered = store.load()
        assert recovered.get("alpha").num_reports == 2

    def test_stale_strategy_file_from_prior_deployment_is_rewritten(
        self, tmp_path
    ):
        """Crash window: strategies/<name>.npz exists from an older
        deployment but the manifest never recorded it.  A new campaign with
        the same name and a *different* strategy must not get the stale
        file checksummed into its manifest."""
        store = CheckpointStore(tmp_path)
        old = CampaignManager()
        old.create(
            "latency",
            workload="Histogram",
            domain_size=8,
            epsilon=1.0,
            mechanism="Randomized Response",
        )
        store.save(old)
        store.manifest_path.unlink()  # crash before the manifest landed

        new = CampaignManager()
        new.create(
            "latency",
            workload="Histogram",
            domain_size=8,
            epsilon=2.0,  # different budget => different strategy
            mechanism="Randomized Response",
        )
        store.save(new)
        recovered = store.load()
        assert recovered.get("latency").epsilon == 2.0
        assert np.array_equal(
            recovered.get("latency").session.strategy.probabilities,
            new.get("latency").session.strategy.probabilities,
        )

    def test_save_is_idempotent_and_overwrites(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manager = make_manager()
        store.save(manager)
        manager.get("alpha").accumulator.add_reports([1, 2])
        manifest = store.save(manager)
        assert manifest["campaigns"]["alpha"]["num_reports"] == 2
        assert CheckpointStore(tmp_path).load().get("alpha").num_reports == 2


class TestDamage:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ServiceError, match="no checkpoint manifest"):
            CheckpointStore(tmp_path).load()

    def test_corrupt_manifest_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        store.manifest_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ServiceError, match="unreadable"):
            store.load()

    def test_wrong_manifest_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        manifest["manifest_version"] = 99
        store.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ServiceError, match="version"):
            store.load()

    def test_tampered_accumulator_fails_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manager = make_manager()
        manager.get("alpha").accumulator.add_reports([0, 1])
        store.save(manager)
        path = store.accumulator_path("alpha")
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ServiceError, match="checksum"):
            store.load()

    def test_tampered_strategy_fails_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        path = store.strategy_path("beta")
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(ServiceError, match="checksum"):
            store.load()

    def test_missing_payload_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        store.accumulator_path("alpha").unlink()
        with pytest.raises(ServiceError, match="missing"):
            store.load()

    def test_manifest_report_count_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manager = make_manager()
        manager.get("alpha").accumulator.add_reports([0])
        store.save(manager)
        manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        manifest["campaigns"]["alpha"]["num_reports"] = 12345
        # keep checksums valid; only the count lies
        store.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ServiceError, match="disagrees"):
            store.load()


class TestOlderCheckpoints:
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_zero_round_payload_recovers_bit_identically(self, tmp_path, name):
        """Older releases stored a zero ``round_id`` in every accumulator
        payload; such a checkpoint still recovers bit for bit."""
        import hashlib

        from tests.protocol.test_engine import round_tagged_payload

        manager = make_manager()
        campaign = manager.get(name)
        campaign.accumulator.add_reports(
            np.random.default_rng(3).integers(0, campaign.session.num_outputs, 900)
        )
        store = CheckpointStore(tmp_path)
        store.save(manager)
        payload = round_tagged_payload(campaign.accumulator.histogram, 0)
        store.accumulator_path(name).write_bytes(payload)
        manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        manifest["campaigns"][name]["accumulator_sha256"] = hashlib.sha256(
            payload
        ).hexdigest()
        store.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        recovered = CheckpointStore(tmp_path).load()
        assert recovered.get(name).accumulator == campaign.accumulator
        before, after = manager.query(name), recovered.query(name)
        for field in ("estimates", "standard_errors"):
            assert (
                getattr(after.intervals, field).tobytes()
                == getattr(before.intervals, field).tobytes()
            )

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_round_state_is_refused_naming_the_campaign(self, tmp_path, name):
        from repro.service import CollectionService

        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        add_round_state(store, name)
        with pytest.raises(ServiceError, match=f"campaign '{name}'.*multi-round"):
            store.load()
        with pytest.raises(ServiceError, match=f"campaign '{name}'"):
            CollectionService(checkpoint_dir=tmp_path)

    def test_manifest_stays_version_2_without_round_state(self, tmp_path):
        """Older releases read what this one writes: the manifest version
        is unchanged and no entry carries an ``adaptive`` key."""
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        assert manifest["manifest_version"] == 2
        assert sorted(manifest["campaigns"]) == ["alpha", "beta"]
        for entry in manifest["campaigns"].values():
            assert "adaptive" not in entry
