"""The drill scripts clean up after themselves, pass or fail.

``scripts/chaos_drill.py`` kills every ``repro serve`` it started together
with that server's cluster workers, and removes its temporary directories;
``scripts/service_smoke.py`` removes its checkpoint directory.  Each exit
path is driven through the script's own ``main`` with the scenario body
replaced, and one drill failure runs against a real server.
"""

import importlib.util
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

#: How the scenario body ends: a return code, or an exception ``main``
#: must let through.
OUTCOMES = [
    0,
    1,
    SystemExit("FAIL: expected >= 3 worker restarts"),
    ConnectionError("server went away"),
]
OUTCOME_IDS = ["pass", "fail-code", "fail-exit", "error"]


def load_script(name: str):
    # chaos_drill imports chaos_serve by name; loading it registers it.
    from tests.service.crash_worker import chaos_serve  # noqa: F401

    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def script_main(monkeypatch, tmp_path):
    """Run a script's ``main`` with no options, its temporary
    directories under ``tmp_path``."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def run(module, outcome):
        monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py"])
        if isinstance(outcome, BaseException):
            with pytest.raises(type(outcome)):
                module.main()
        else:
            assert module.main() == outcome

    return run


def finish(outcome):
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def leave_files_in(directories) -> None:
    for directory in directories:
        (Path(directory) / "left-behind").write_bytes(b"x")


def process_is_gone(pid: int) -> bool:
    """No such process, or a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def all_gone(pids, timeout: float = 10.0) -> bool:
    """A SIGKILLed process takes a moment to exit."""
    deadline = time.monotonic() + timeout
    while not all(process_is_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class FakeServer:
    def __init__(self) -> None:
        self.kills = 0

    def kill(self) -> None:
        self.kills += 1


@pytest.mark.parametrize("outcome", OUTCOMES, ids=OUTCOME_IDS)
def test_chaos_drill_cleans_up_on_every_exit_path(script_main, monkeypatch, outcome):
    drill_script = load_script("chaos_drill")
    started = [FakeServer(), FakeServer()]
    seen = []

    def drill(arguments, checkpoint_dir, wal_dir, markers, servers):
        seen.extend([checkpoint_dir, wal_dir, markers])
        leave_files_in(seen)
        servers.extend(started)
        return finish(outcome)

    monkeypatch.setattr(drill_script, "drill", drill)
    script_main(drill_script, outcome)
    assert [server.kills for server in started] == [1, 1]
    assert len(seen) == 3 and not any(Path(path).exists() for path in seen)


def test_chaos_drill_failure_kills_the_server_and_its_workers(
    script_main, monkeypatch
):
    drill_script = load_script("chaos_drill")
    started = {}

    def drill(arguments, checkpoint_dir, wal_dir, markers, servers):
        server = drill_script.Server(checkpoint_dir, wal_dir)
        servers.append(server)
        port = server.wait_ready()
        client = ServiceClient("127.0.0.1", port)
        workers = client.metrics()["cluster"]["workers"]
        client.close()
        started["server"] = server.process
        started["workers"] = [row["pid"] for row in workers]
        started["directories"] = [checkpoint_dir, wal_dir, markers]
        raise SystemExit("FAIL: expected >= 3 worker restarts")

    monkeypatch.setattr(drill_script, "drill", drill)
    try:
        script_main(drill_script, SystemExit())
        assert started["server"].returncode is not None
        assert len(started["workers"]) == drill_script.WORKERS
        assert all_gone(started["workers"])
        assert not any(Path(path).exists() for path in started["directories"])
    finally:  # a regression must not leave the server running
        if "server" in started and started["server"].poll() is None:
            os.killpg(started["server"].pid, signal.SIGKILL)
            started["server"].wait(timeout=30)


@pytest.mark.parametrize("outcome", OUTCOMES, ids=OUTCOME_IDS)
def test_service_smoke_removes_its_checkpoint_directory(
    script_main, monkeypatch, outcome
):
    smoke_script = load_script("service_smoke")
    seen = []

    def smoke(arguments, checkpoint_dir):
        seen.append(checkpoint_dir)
        leave_files_in(seen)
        return finish(outcome)

    monkeypatch.setattr(smoke_script, "smoke", smoke)
    script_main(smoke_script, outcome)
    assert len(seen) == 1 and not Path(seen[0]).exists()
