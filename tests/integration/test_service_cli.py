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

    @pytest.mark.parametrize(
        "flag", ["--adaptive", "--adaptive-groups", "--adaptive-seed"]
    )
    def test_serve_parser_refuses_removed_adaptive_flag(self, capsys, flag):
        # A deployment script still asking for rounds must fail loudly,
        # not start a campaign whose users spend the full epsilon.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", flag, "2"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_campaign_advance_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["campaign", "advance", "--campaign", "demo"])
        assert info.value.code == 2
        assert "invalid choice: 'campaign'" in capsys.readouterr().err

    def test_serve_refuses_checkpoint_with_round_state(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service import CheckpointStore
        from tests.service.test_checkpoint import add_round_state, make_manager

        # Keep the CLI from pointing the process-wide logger at capsys.
        monkeypatch.setattr("repro.telemetry.configure_logging", lambda _: None)
        store = CheckpointStore(tmp_path)
        store.save(make_manager())
        add_round_state(store, "alpha")
        code = main(["serve", "--port", "0", "--checkpoint-dir", str(tmp_path)])
        assert code == 2
        assert "campaign 'alpha'" in capsys.readouterr().err
