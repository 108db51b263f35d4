"""Tests for the CLI."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_lists_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "figure1",
            "figure2",
            "figure3a",
            "figure3b",
            "figure3c",
            "figure4",
        }

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure9"])

    def test_scale_option(self):
        arguments = build_parser().parse_args(["run", "table1", "--scale", "paper"])
        assert arguments.scale == "paper"

    def test_plan_defaults(self):
        arguments = build_parser().parse_args(["plan"])
        assert arguments.workload == "Prefix"
        assert arguments.domain == 64

    def test_protocol_run_options(self):
        arguments = build_parser().parse_args(
            [
                "protocol",
                "run",
                "--shards",
                "4",
                "--backend",
                "thread",
                "--message-level",
            ]
        )
        assert arguments.command == "protocol"
        assert arguments.protocol_command == "run"
        assert arguments.shards == 4
        assert arguments.backend == "thread"
        assert arguments.message_level

    def test_protocol_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["protocol", "run", "--backend", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["protocol", "run", "--backend", "process"],
            ["protocol", "run", "--workers", "2"],
            ["strategy", "build", "--backend", "serial"],
            ["strategy", "build", "--workers", "2"],
        ],
    )
    def test_process_pool_flags_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestMain:
    def test_runs_table1_shorthand(self, capsys, monkeypatch):
        # `python -m repro table1` still works without the `run` prefix.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "RAPPOR" in output
        assert "scale=ci" in output

    def test_runs_table1_explicit(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["run", "table1"]) == 0
        assert "RAPPOR" in capsys.readouterr().out

    def test_scale_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        main(["run", "table1", "--scale", "ci"])
        import os

        assert os.environ["REPRO_SCALE"] == "ci"

    def test_plan_reports_mechanisms(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--workload",
                    "Histogram",
                    "--domain",
                    "8",
                    "--users",
                    "10000",
                    "--iterations",
                    "60",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Optimized" in output
        assert "min epsilon" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_protocol_run_sharded(self, capsys):
        assert (
            main(
                [
                    "protocol",
                    "run",
                    "--workload",
                    "Histogram",
                    "--domain",
                    "8",
                    "--users",
                    "20000",
                    "--shards",
                    "4",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "20,000 reports over 4 shard(s)" in output
        assert "users/sec" in output
