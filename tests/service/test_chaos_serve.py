"""The chaos drill's crashes, armed from outside the program.

``scripts/chaos_serve.py`` wraps the program's own functions before the
server starts, and ``tests/service/crash_worker.py`` reuses its worker
crash.  The drill's bit-identical assertions rest on what these tests pin:
a crash fires at exactly its count, exactly once across a worker and its
respawns, and only ops of its kind advance the count.  Process exits are
caught by patching ``os._exit``, except for the torn WAL write, which runs
in a child process so its exit code and the bytes it leaves are real.
"""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.service import WriteAheadLog, cluster, wal
from repro.service.wal import read_segment
from tests.service import crash_worker
from tests.service.crash_worker import chaos_serve

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


class Exited(Exception):
    """Raised in place of ``os._exit``."""


@pytest.fixture
def exits(monkeypatch) -> list:
    """The exit codes the process asked for; each request raises
    :class:`Exited` instead of ending the test process."""
    codes = []

    def fake_exit(code):
        codes.append(code)
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    return codes


class ScriptedPipe:
    """A worker's pipe end fed a fixed list of messages."""

    def __init__(self, messages) -> None:
        self._messages = list(messages)
        self.sent = []
        self.closed = False

    def recv(self):
        if not self._messages:
            raise EOFError
        return self._messages.pop(0)

    def send(self, reply) -> None:
        self.sent.append(reply)

    def close(self) -> None:
        self.closed = True


def serve(connection) -> list:
    """Answer each message like the worker loop, until the pipe ends or the
    process exits; returns the messages handled."""
    handled = []
    try:
        while True:
            message = connection.recv()
            handled.append(message)
            connection.send(("ok", message))
    except (EOFError, Exited):
        return handled


def name_process(monkeypatch, name: str) -> None:
    monkeypatch.setattr(
        multiprocessing, "current_process", lambda: SimpleNamespace(name=name)
    )


class TestDropReply:
    def test_exits_after_the_nth_op_before_replying(self, exits, tmp_path):
        pipe = ScriptedPipe([("cut", 1), ("cut", 2), ("cut", 3)])
        marker = tmp_path / "marker"
        handled = serve(chaos_serve._DropReply(pipe, str(marker), "cut", 2))
        assert exits == [11]
        assert handled == [("cut", 1), ("cut", 2)]  # the second ran ...
        assert pipe.sent == [("ok", ("cut", 1))]  # ... but was never answered
        assert marker.exists()

    def test_other_ops_do_not_advance_the_count(self, exits, tmp_path):
        # "at 2" means the second *cut*, however many other ops pass by
        messages = [("json",), ("json",), ("cut",), ("json",), ("cut",), ("json",)]
        pipe = ScriptedPipe(messages)
        handled = serve(chaos_serve._DropReply(pipe, str(tmp_path / "m"), "cut", 2))
        assert exits == [11]
        assert handled == messages[:5]
        assert pipe.sent == [("ok", message) for message in messages[:4]]

    def test_a_respawn_of_the_dead_worker_lives(self, exits, tmp_path):
        marker = str(tmp_path / "marker")
        messages = [("cut", 1), ("cut", 2), ("cut", 3)]
        dead = ScriptedPipe(messages)
        serve(chaos_serve._DropReply(dead, marker, "cut", 2))
        # the respawn counts from zero, reaches the count again, and finds
        # the death already claimed
        respawn = ScriptedPipe(messages)
        assert serve(chaos_serve._DropReply(respawn, marker, "cut", 2)) == messages
        assert exits == [11]
        assert respawn.sent == [("ok", message) for message in messages]

    def test_claim_succeeds_once(self, tmp_path):
        marker = str(tmp_path / "marker")
        assert chaos_serve._claim(marker)
        assert not chaos_serve._claim(marker)
        assert not chaos_serve._claim(marker)


class TestWorkerFaults:
    def test_drill_arms_only_the_named_worker(self, monkeypatch, exits, tmp_path):
        received = []
        monkeypatch.setattr(cluster, "_worker_main", received.append)
        plan = {
            "markers": str(tmp_path),
            "faults": [
                {"action": "kill_worker", "at": 1, "worker": 0},
                {"action": "drop_reply", "at": 2, "op": "json", "worker": 1},
            ],
        }
        chaos_serve.arm_worker(plan)
        pipes = [ScriptedPipe([("json",)] * 3) for _ in range(2)]
        for index, pipe in enumerate(pipes):
            name_process(monkeypatch, f"repro-cluster-{index}")
            cluster._worker_main(pipe)
        untouched, wrapped = received
        assert untouched is pipes[0]
        assert serve(untouched) == [("json",)] * 3
        assert serve(wrapped) == [("json",)] * 2
        assert exits == [11]
        # the marker is named after the plan entry
        assert sorted(os.listdir(tmp_path)) == ["1"]

    def test_crash_worker_kills_each_worker_once(self, monkeypatch, exits, tmp_path):
        handled = []
        monkeypatch.setattr(
            crash_worker, "_worker_main", lambda pipe: handled.append(serve(pipe))
        )
        messages = [("json",), ("cut",), ("cut",), ("cut",)]
        for name in ("repro-cluster-0", "repro-cluster-1", "repro-cluster-0"):
            name_process(monkeypatch, name)
            crash_worker.drop_reply_main(
                str(tmp_path), "cut", 2, ScriptedPipe(messages)
            )
        # both originals die at their second cut; the respawn of worker 0
        # lives
        assert handled == [messages[:3], messages[:3], messages]
        assert exits == [11, 11]
        assert sorted(os.listdir(tmp_path)) == ["repro-cluster-0", "repro-cluster-1"]


class TestCoordinatorFaults:
    @pytest.fixture
    def pool(self, monkeypatch):
        """Three fake workers behind a round-robin ``_pick_worker``; each
        signal sent lands in ``pool.killed`` as ``(dispatch, pid, signal)``."""
        workers = [
            SimpleNamespace(alive=True, process=SimpleNamespace(pid=100 + i))
            for i in range(3)
        ]
        pool = SimpleNamespace(_workers=workers, picks=0, killed=[])

        async def pick_worker(self):
            self.picks += 1
            return self._workers[self.picks % len(self._workers)]

        monkeypatch.setattr(cluster.WorkerPool, "_pick_worker", pick_worker)
        # arm_coordinator wraps the WAL flush too: undo that after the test
        monkeypatch.setattr(
            wal.WriteAheadLog, "_flush_batch", wal.WriteAheadLog._flush_batch
        )
        monkeypatch.setattr(
            os, "kill", lambda pid, sig: pool.killed.append((pool.picks, pid, sig))
        )
        return pool

    @staticmethod
    def dispatch(pool, faults, count: int) -> list:
        """Arm ``faults`` in this process, then make ``count`` dispatches."""
        chaos_serve.arm_coordinator({"faults": faults})

        async def run():
            return [await cluster.WorkerPool._pick_worker(pool) for _ in range(count)]

        return asyncio.run(run())

    def test_kill_fires_just_before_the_kth_dispatch(self, pool):
        faults = [{"action": "kill_worker", "at": 3, "worker": 1}]
        picked = self.dispatch(pool, faults, 5)
        assert pool.killed == [(3, 101, signal.SIGKILL)]
        # the dispatch itself still goes where the pool sent it
        assert picked == [pool._workers[i % 3] for i in range(1, 6)]

    def test_kill_spares_a_worker_already_dead(self, pool):
        pool._workers[1].alive = False
        self.dispatch(pool, [{"action": "kill_worker", "at": 2, "worker": 1}], 4)
        assert pool.killed == []

    def test_two_kills_fire_at_their_own_dispatches(self, pool):
        faults = [
            {"action": "kill_worker", "at": 2, "worker": 0},
            {"action": "kill_worker", "at": 4, "worker": 2},
        ]
        self.dispatch(pool, faults, 6)
        assert pool.killed == [(2, 100, signal.SIGKILL), (4, 102, signal.SIGKILL)]


TORN_WAL_CHILD = """
import asyncio, sys
from tests.service.crash_worker import chaos_serve
from repro.service import WriteAheadLog
from repro.service.wal import KIND_JSON_BATCH

chaos_serve.arm_coordinator({"faults": [{"action": "torn_wal", "at": 4}]})

async def main(directory):
    log = WriteAheadLog(directory)
    await log.start()
    for index in range(1, 7):
        await log.append(KIND_JSON_BATCH, (b"body-%d" % index) * 40)
        print(index, flush=True)

asyncio.run(main(sys.argv[1]))
"""


def test_torn_wal_exits_17_and_recovery_cuts_the_torn_record(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, str(REPO_ROOT), env.get("PYTHONPATH")])
    )
    directory = tmp_path / "wal"
    completed = subprocess.run(
        [sys.executable, "-c", TORN_WAL_CHILD, str(directory)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 17, completed.stderr
    assert completed.stdout.split() == ["1", "2", "3"]  # acked before the tear
    (segment,) = WriteAheadLog(directory).segment_paths()
    _, valid_bytes = read_segment(segment)
    assert segment.stat().st_size > valid_bytes  # half of record 4 is there

    records = WriteAheadLog(directory).scan()
    assert [record.sequence for record in records] == [1, 2, 3]
    assert [record.body for record in records] == [
        (b"body-%d" % index) * 40 for index in (1, 2, 3)
    ]
    assert segment.stat().st_size == valid_bytes  # the torn tail is cut


def test_entry_script_runs_the_cli():
    script = REPO_ROOT / "scripts" / "chaos_serve.py"
    completed = subprocess.run(
        [sys.executable, str(script), "serve", "--help"],
        env=dict(os.environ, CHAOS_PLAN='{"faults": []}'),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "--checkpoint-dir" in completed.stdout
    assert "--fault-plan" not in completed.stdout
