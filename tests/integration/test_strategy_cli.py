"""The ``repro strategy`` CLI family end to end (build/list/inspect/prune)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.store import StrategyStore


def build_args(store, **overrides):
    options = {
        "workload": "Prefix",
        "domain": "8",
        "epsilon": "1.0",
        "iterations": "40",
        "restarts": "2",
        "seed": "0",
    }
    options.update(overrides)
    argv = ["strategy", "build", "--store", str(store)]
    for name, value in options.items():
        argv += [f"--{name}", value]
    return argv


class TestBuild:
    def test_cold_build_then_store_hit(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        assert main(build_args(store)) == 0
        first = capsys.readouterr().out
        assert "store MISS" in first and "restart objectives" in first

        # The acceptance criterion: the identical build is a pure store
        # hit — no PGD iterations run.
        assert main(build_args(store)) == 0
        second = capsys.readouterr().out
        assert "store HIT" in second
        assert "no PGD iterations run" in second

    def test_changed_config_misses(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        assert main(build_args(store)) == 0
        capsys.readouterr()
        assert main(build_args(store, iterations="41")) == 0
        assert "store MISS" in capsys.readouterr().out

    def test_build_persists_entry(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        main(build_args(store))
        records = StrategyStore(store).records()
        assert len(records) == 1
        assert records[0].workload == "Prefix"
        assert records[0].domain_size == 8

    def test_factored_build_then_store_hit(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        argv = [
            "strategy", "build", "--factored",
            "--workload", "Marginals", "--sizes", "3,2,2",
            "--iterations", "20", "--restarts", "1",
            "--store", str(store),
        ]
        assert main(argv) == 0
        assert "store MISS" in capsys.readouterr().out
        assert main(argv) == 0
        assert "store HIT" in capsys.readouterr().out
        records = StrategyStore(store).records()
        assert [record.kind for record in records] == ["factored"]


class TestList:
    def test_empty_store(self, tmp_path, capsys):
        assert main(["strategy", "list", "--store", str(tmp_path / "s")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_lists_entries_with_metadata(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        main(build_args(store))
        main(build_args(store, workload="Histogram", epsilon="0.5"))
        capsys.readouterr()
        assert main(["strategy", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Prefix" in out and "Histogram" in out
        assert "2 entries" in out


class TestInspect:
    def test_provenance_json_by_prefix(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        main(build_args(store))
        entry_id = StrategyStore(store).records()[0].entry_id
        capsys.readouterr()
        assert main(
            ["strategy", "inspect", entry_id[:8], "--store", str(store)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["entry_id"] == entry_id
        assert payload["config"]["num_iterations"] == 40
        # The CLI build records the objective trajectory as provenance.
        assert payload["objective_trajectory_length"] > 0

    def test_unknown_prefix_exits_nonzero(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        main(build_args(store))
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["strategy", "inspect", "zzzz", "--store", str(store)])


class TestPrune:
    def test_prune_to_keep_budget(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        main(build_args(store))
        main(build_args(store, epsilon="2.0"))
        capsys.readouterr()
        assert main(
            ["strategy", "prune", "--keep", "1", "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "pruned 1 of 2" in out
        assert len(StrategyStore(store)) == 1


class TestProtocolRunWithStore:
    def test_optimized_collection_through_store(self, tmp_path, capsys):
        store = tmp_path / "strategies"
        argv = [
            "protocol", "run",
            "--workload", "Prefix", "--domain", "8",
            "--users", "2000", "--mechanism", "Optimized",
            "--iterations", "40", "--shards", "2",
            "--store", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # The strategy was persisted; a second campaign reuses it.
        assert len(StrategyStore(store)) == 1
        assert main(argv) == 0
        assert "collected 2,000 reports" in capsys.readouterr().out

    def test_usage_line_for_bare_strategy_command(self, capsys):
        assert main(["strategy"]) == 2
        assert "usage: repro strategy" in capsys.readouterr().out
