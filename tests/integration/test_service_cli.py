"""The service CLI family: ``repro report`` / ``repro query`` / ``--version``
against an in-process server (``repro serve`` itself is exercised as a real
subprocess by ``scripts/service_smoke.py`` and CI's service-smoke job)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.service import CollectionService, ServiceThread


@pytest.fixture
def live_server():
    service = CollectionService()
    service.manager.create(
        "cli-demo",
        workload="Histogram",
        domain_size=8,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    thread = ServiceThread(service)
    host, port = thread.start()
    try:
        yield host, port
    finally:
        thread.stop()


class TestVersionFlag:
    def test_version_prints_library_version(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestReportAndQuery:
    def test_report_values_then_query(self, live_server, capsys):
        host, port = live_server
        code = main(
            [
                "report",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-demo",
                "--values", "0,1,2,3,3",
                "--seed", "0",
            ]
        )
        assert code == 0
        assert "sent 5" in capsys.readouterr().out

        code = main(
            [
                "query",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-demo",
                "--sync",
                "--limit", "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "5 reports" in output
        assert "interval" in output

    def test_report_simulate(self, live_server, capsys):
        host, port = live_server
        code = main(
            [
                "report",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-demo",
                "--simulate", "2000",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert "2,000 locally-randomized reports" in capsys.readouterr().out

    def test_report_requires_exactly_one_source(self, live_server, capsys):
        host, port = live_server
        argv = ["report", "--host", host, "--port", str(port),
                "--campaign", "cli-demo"]
        assert main(argv) == 2
        assert main(argv + ["--values", "1", "--simulate", "5"]) == 2

    def test_query_unknown_campaign_raises(self, live_server):
        from repro.exceptions import ServiceError

        host, port = live_server
        with pytest.raises(ServiceError, match="unknown campaign"):
            main(
                [
                    "query",
                    "--host", host,
                    "--port", str(port),
                    "--campaign", "ghost",
                ]
            )

    def test_report_binary_transport(self, live_server, capsys):
        host, port = live_server
        code = main(
            [
                "report",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-demo",
                "--values", "0,1,2",
                "--transport", "binary",
            ]
        )
        assert code == 0
        assert "sent 3" in capsys.readouterr().out


class TestServeFlags:
    def test_serve_parser_accepts_cluster_flags(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--workers", "3", "--transport", "binary", "--port", "0"]
        )
        assert arguments.workers == 3
        assert arguments.transport == "binary"

    def test_serve_parser_rejects_unknown_transport(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--transport", "tcp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_parser_accepts_adaptive_flags(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--adaptive", "3", "--adaptive-groups", "2",
             "--adaptive-seed", "7", "--port", "0"]
        )
        assert arguments.adaptive == 3
        assert arguments.adaptive_groups == 2
        assert arguments.adaptive_seed == 7

    def test_serve_refuses_adaptive_with_cluster_workers(self, capsys, monkeypatch):
        # Keep the CLI from pointing the process-wide logger at capsys.
        monkeypatch.setattr("repro.telemetry.configure_logging", lambda _: None)
        code = main(["serve", "--adaptive", "2", "--workers", "2", "--port", "0"])
        assert code == 2
        assert "cluster mode" in capsys.readouterr().err


class TestCampaignAdvanceCli:
    @pytest.fixture
    def adaptive_server(self):
        from repro.service import AdaptivePlan

        service = CollectionService()
        service.manager.create(
            "cli-adaptive",
            workload="Prefix",
            domain_size=8,
            epsilon=2.0,
            mechanism="Randomized Response",
            adaptive=AdaptivePlan(
                num_rounds=2, num_groups=2, iterations=15, seed=0
            ),
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        try:
            yield host, port
        finally:
            thread.stop()

    def test_advance_prints_the_round_report(self, adaptive_server, capsys):
        host, port = adaptive_server
        assert main(
            [
                "report",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-adaptive",
                "--simulate", "300",
                "--seed", "0",
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "campaign", "advance",
                "--host", host,
                "--port", str(port),
                "--campaign", "cli-adaptive",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "advanced to round 2" in output
        assert "selected sub-workload" in output

    def test_advance_on_non_adaptive_campaign_errors(self, live_server):
        from repro.exceptions import ServiceError

        host, port = live_server
        with pytest.raises(ServiceError, match="not adaptive"):
            main(
                [
                    "campaign", "advance",
                    "--host", host,
                    "--port", str(port),
                    "--campaign", "cli-demo",
                ]
            )

    def test_campaign_without_subcommand_is_usage_error(self, capsys):
        assert main(["campaign"]) == 2
