"""Strategy store: keys, round trips, invalidation, corruption, pruning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.reconstruction import reconstruction_operator
from repro.exceptions import StoreError
from repro.optimization import (
    FactoredOptimizerConfig,
    OptimizerConfig,
    optimize_factored_strategy,
    optimize_strategy,
)
from repro.store import (
    StrategyStore,
    config_fingerprint,
    gram_fingerprint,
    key_for,
    key_for_factored,
)
from repro.store.store import _sha256_file
from repro.workloads import histogram, k_way_product_marginals, prefix


CONFIG = OptimizerConfig(num_iterations=40, seed=0)


@pytest.fixture
def store(tmp_path) -> StrategyStore:
    return StrategyStore(tmp_path / "strategies")


@pytest.fixture(scope="module")
def result():
    return optimize_strategy(prefix(8), 1.0, CONFIG)


class TestKeys:
    def test_gram_fingerprint_matches_workload_and_matrix(self):
        assert gram_fingerprint(prefix(8)) == gram_fingerprint(prefix(8).gram())

    def test_gram_fingerprint_distinguishes_workloads(self):
        assert gram_fingerprint(prefix(8)) != gram_fingerprint(histogram(8))

    def test_config_fingerprint_sensitive_to_every_field(self):
        base = config_fingerprint(CONFIG)
        from dataclasses import replace

        assert base == config_fingerprint(OptimizerConfig(num_iterations=40, seed=0))
        assert base != config_fingerprint(replace(CONFIG, num_iterations=41))
        assert base != config_fingerprint(replace(CONFIG, seed=1))
        assert base != config_fingerprint(replace(CONFIG, num_outputs=16))
        assert base != config_fingerprint(replace(CONFIG, track_history=True))
        assert base != config_fingerprint(
            replace(CONFIG, initial_strategy=np.full((4, 2), 0.25))
        )

    def test_config_fingerprint_extras_change_key(self):
        assert config_fingerprint(CONFIG) != config_fingerprint(CONFIG, restarts=4)
        assert config_fingerprint(CONFIG, restarts=4) == config_fingerprint(
            CONFIG, restarts=4
        )

    def test_entry_id_stable_across_processes(self):
        # Pure function of (gram, epsilon, config): no machine salt.
        a = key_for(prefix(8), 1.0, CONFIG).entry_id
        b = key_for(prefix(8).gram(), 1.0, CONFIG).entry_id
        assert a == b

    def test_epsilon_rounding(self):
        assert (
            key_for(prefix(8), 1.0 + 1e-14, CONFIG).entry_id
            == key_for(prefix(8), 1.0, CONFIG).entry_id
        )


class TestRoundTrip:
    def test_bit_identical_strategy_and_operator(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, workload="Prefix", config=CONFIG)
        loaded = store.get(key)
        assert loaded is not None
        assert np.array_equal(
            loaded.strategy.probabilities, result.strategy.probabilities
        )
        assert loaded.strategy.epsilon == result.strategy.epsilon
        # The reconstruction operator is a deterministic function of the
        # strategy, so a bit-identical matrix reconstructs identically.
        assert np.array_equal(
            reconstruction_operator(loaded.strategy.probabilities),
            reconstruction_operator(result.strategy.probabilities),
        )

    def test_provenance_round_trip(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, workload="Prefix", config=CONFIG)
        loaded = store.get(key)
        assert loaded.objective == result.objective
        assert loaded.iterations_run == result.iterations_run
        assert loaded.step_size == result.step_size
        assert np.array_equal(loaded.bounds, result.bounds)
        assert loaded.history == result.history

    def test_record_metadata(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        record = store.put(key, result, workload="Prefix", config=CONFIG)
        assert record.entry_id == key.entry_id
        assert record.workload == "Prefix"
        assert record.domain_size == 8
        assert record.epsilon == 1.0
        assert record.objective == pytest.approx(result.objective)
        assert record.size_bytes > 0

    def test_inspect_provenance_includes_config(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, workload="Prefix", config=CONFIG)
        provenance = store.provenance(key.entry_id)
        assert provenance["config"]["num_iterations"] == 40
        assert provenance["config"]["seed"] == 0
        assert provenance["library_version"]
        assert provenance["notes"] == {}

    def test_notes_round_trip(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(
            key,
            result,
            config=CONFIG,
            notes={"warm_start_won": True, "warm_source_entry": "abc"},
        )
        provenance = store.provenance(key.entry_id)
        assert provenance["notes"]["warm_start_won"] is True
        assert provenance["notes"]["warm_source_entry"] == "abc"


class TestHitMissInvalidation:
    def test_miss_on_empty_store(self, store):
        assert store.get(key_for(prefix(8), 1.0, CONFIG)) is None
        assert len(store) == 0

    def test_hit_requires_exact_key(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, config=CONFIG)
        assert store.get(key) is not None
        assert key in store

    def test_miss_on_gram_change(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.get(key_for(histogram(8), 1.0, CONFIG)) is None

    def test_miss_on_epsilon_change(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.get(key_for(prefix(8), 1.5, CONFIG)) is None

    def test_miss_on_config_change(self, store, result):
        from dataclasses import replace

        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        changed = replace(CONFIG, num_iterations=41)
        assert store.get(key_for(prefix(8), 1.0, changed)) is None

    def test_miss_on_extras_change(self, store, result):
        store.put(
            key_for(prefix(8), 1.0, CONFIG, restarts=1), result, config=CONFIG
        )
        assert store.get(key_for(prefix(8), 1.0, CONFIG, restarts=4)) is None

    def test_put_epsilon_mismatch_rejected(self, store, result):
        with pytest.raises(StoreError):
            store.put(key_for(prefix(8), 2.0, CONFIG), result)

    def test_put_domain_mismatch_rejected(self, store, result):
        with pytest.raises(StoreError):
            store.put(key_for(prefix(16), 1.0, CONFIG), result)


class TestCorruption:
    def _stored_key(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, config=CONFIG)
        return key

    def test_truncated_payload_rejected_and_evicted(self, store, result):
        key = self._stored_key(store, result)
        path = store.entry_path(key.entry_id)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(StoreError, match="checksum"):
            store.load(key.entry_id)
        # get() degrades to a miss and self-heals.
        assert store.get(key) is None
        assert len(store) == 0
        assert not path.exists()

    def test_bitflip_rejected(self, store, result):
        key = self._stored_key(store, result)
        path = store.entry_path(key.entry_id)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        assert store.get(key) is None

    def test_missing_payload_rejected(self, store, result):
        key = self._stored_key(store, result)
        store.entry_path(key.entry_id).unlink()
        with pytest.raises(StoreError, match="missing"):
            store.load(key.entry_id)
        assert store.get(key) is None

    def test_tampered_strategy_cannot_violate_privacy(self, store, result):
        # Rewrite the payload with a privacy-violating matrix and a forged
        # checksum: loading must still fail (StrategyMatrix re-validates).
        key = self._stored_key(store, result)
        path = store.entry_path(key.entry_id)
        bad = np.zeros_like(result.strategy.probabilities)
        bad[0, :] = 1.0
        bad[0, 0] = 0.0
        bad[1, 0] = 1.0  # ratio inf between types 0 and 1 on outputs 0/1
        with np.load(path, allow_pickle=False) as archive:
            fields = {name: archive[name] for name in archive.files}
        fields["probabilities"] = bad
        np.savez_compressed(path, **fields)
        entries = store._read_index()
        entries[key.entry_id]["payload_sha256"] = _sha256_file(path)
        store._write_index(entries)
        with pytest.raises(StoreError, match="corrupt"):
            store.load(key.entry_id)
        assert store.get(key) is None

    def test_unreadable_index_raises(self, store, result):
        self._stored_key(store, result)
        store.index_path.write_text("{not json")
        with pytest.raises(StoreError, match="index"):
            store.records()

    def test_wrong_index_version_raises(self, store, result):
        self._stored_key(store, result)
        document = json.loads(store.index_path.read_text())
        document["store_version"] = 999
        store.index_path.write_text(json.dumps(document))
        with pytest.raises(StoreError, match="version"):
            store.records()


class TestFactoredPayload:
    WORKLOAD = k_way_product_marginals((3, 2, 2), 2)
    CONFIG = FactoredOptimizerConfig(
        base=OptimizerConfig(num_iterations=20, seed=0), rounds=1
    )

    def _stored_key(self, store):
        result = optimize_factored_strategy(self.WORKLOAD, 1.0, self.CONFIG)
        key = key_for_factored(self.WORKLOAD, 1.0, self.CONFIG)
        store.put(key, result, config=self.CONFIG)
        return key, result

    def test_budget_split_not_written(self, store):
        # Each factor_<i>_epsilon already holds its budget.
        key, result = self._stored_key(store)
        with np.load(store.entry_path(key.entry_id)) as archive:
            assert "epsilon_split" not in archive.files
            budgets = [float(archive[f"factor_{index}_epsilon"]) for index in range(3)]
        assert budgets == [factor.epsilon for factor in result.strategy.factors]

    def test_entry_with_old_budget_split_still_loads(self, store):
        # Entries written before the split was dropped carry an
        # ``epsilon_split`` array; reads ignore it.
        key, result = self._stored_key(store)
        path = store.entry_path(key.entry_id)
        with np.load(path, allow_pickle=False) as archive:
            fields = {name: archive[name] for name in archive.files}
        fields["epsilon_split"] = np.full(3, 1 / 3)
        np.savez_compressed(path, **fields)
        entries = store._read_index()
        entries[key.entry_id]["payload_sha256"] = _sha256_file(path)
        store._write_index(entries)
        for loaded in (store.load(key.entry_id), store.get(key)):
            assert loaded.objective == result.objective
            for left, right in zip(loaded.strategy.factors, result.strategy.factors):
                assert np.array_equal(left.probabilities, right.probabilities)
                assert left.epsilon == right.epsilon
        assert key in store


class TestLookupsAndPruning:
    def test_best_for_picks_lowest_objective(self, store, result):
        from dataclasses import replace

        other_config = replace(CONFIG, seed=1)
        other = optimize_strategy(prefix(8), 1.0, other_config)
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        store.put(
            key_for(prefix(8), 1.0, other_config), other, config=other_config
        )
        best = store.best_for(prefix(8), 1.0)
        assert best.objective == min(result.objective, other.objective)

    def test_best_for_none_for_unknown_workload(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.best_for(histogram(8), 1.0) is None

    def test_nearest_prefers_closest_epsilon(self, store):
        for epsilon in (0.5, 2.0):
            run = optimize_strategy(prefix(8), epsilon, CONFIG)
            store.put(key_for(prefix(8), epsilon, CONFIG), run, config=CONFIG)
        near = store.nearest(prefix(8), 1.8)
        assert near is not None and near.epsilon == 2.0

    def test_nearest_respects_log_ratio_cap(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.nearest(prefix(8), 100.0, max_log_ratio=1.0) is None

    def test_prune_lru_order(self, store):
        keys = []
        for epsilon in (0.5, 1.0, 2.0):
            run = optimize_strategy(prefix(8), epsilon, CONFIG)
            keys.append(key_for(prefix(8), epsilon, CONFIG))
            store.put(keys[-1], run, config=CONFIG)
        # Touch the oldest entry so it becomes the most recently used.
        assert store.get(keys[0]) is not None
        evicted = store.prune(max_entries=1)
        assert len(evicted) == 2
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None and store.get(keys[2]) is None

    def test_prune_byte_budget(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.prune(max_bytes=0) != []
        assert len(store) == 0

    def test_prune_noop_without_budgets(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.prune() == []
        assert len(store) == 1

    def test_clear(self, store, result):
        store.put(key_for(prefix(8), 1.0, CONFIG), result, config=CONFIG)
        assert store.clear() == 1
        assert len(store) == 0

    def test_atomic_overwrite(self, store, result):
        key = key_for(prefix(8), 1.0, CONFIG)
        store.put(key, result, config=CONFIG)
        store.put(key, result, config=CONFIG)
        assert len(store) == 1
        assert store.get(key) is not None
