"""Run ``repro serve`` with the chaos drill's crashes armed from outside.

    CHAOS_PLAN='<json>' python scripts/chaos_serve.py serve [options]

Takes the same arguments as ``python -m repro``; ``scripts/chaos_drill.py``
builds the plan.  Its ``faults`` list arms crashes of three kinds, each
of which fires once:

``{"action": "kill_worker", "at": K, "worker": W}``
    the coordinator SIGKILLs worker ``W`` just before the ``K``-th
    dispatch (a death mid-dispatch);
``{"action": "drop_reply", "at": N, "op": OP, "worker": W}``
    worker ``W`` (one such entry per worker) exits after handling its
    ``N``-th ``OP`` message but before replying, so the coordinator cannot
    know whether it landed;
``{"action": "torn_wal", "at": S}``
    when the batch holding record ``S`` is flushed, the WAL writes half of
    the batch's first record, fsyncs it and exits the process with code 17
    (a power failure mid-write; no record becomes durable unacked).

Cluster workers are spawned, and a spawned child re-runs this file as
``__mp_main__`` before its worker loop starts: that is where the worker
faults go in.  A respawned worker runs them too, so each worker fault
claims an ``O_EXCL`` marker file in the plan's ``markers`` directory when
it fires, and never fires again.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import cluster, wal  # noqa: E402

#: Environment variable holding the plan as JSON.
PLAN_ENV = "CHAOS_PLAN"


def _faults(plan: dict, action: str) -> list[dict]:
    return [fault for fault in plan["faults"] if fault["action"] == action]


def _claim(marker: str) -> bool:
    """Whether this is the first time the fault owning ``marker`` fires,
    in any process."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def arm_coordinator(plan: dict) -> None:
    """Arm the ``kill_worker`` and ``torn_wal`` faults in this process."""
    dispatches = itertools.count(1)
    pick_worker = cluster.WorkerPool._pick_worker

    async def pick_and_kill(self):
        worker = await pick_worker(self)
        dispatch = next(dispatches)
        for fault in _faults(plan, "kill_worker"):
            target = self._workers[fault["worker"]]
            if dispatch == fault["at"] and target.alive:
                os.kill(target.process.pid, signal.SIGKILL)
        return worker

    flush_batch = wal.WriteAheadLog._flush_batch
    torn = {fault["at"] for fault in _faults(plan, "torn_wal")}

    def flush_or_tear(self, batch):
        if any(sequence in torn for _, sequence, _ in batch):
            payload, sequence, _ = batch[0]
            self._ensure_segment(len(payload), sequence)
            self._handle.write(payload[: max(9, len(payload) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            os._exit(17)
        flush_batch(self, batch)

    cluster.WorkerPool._pick_worker = pick_and_kill
    wal.WriteAheadLog._flush_batch = flush_or_tear


class _DropReply:
    """A worker's pipe end that exits instead of sending one reply."""

    def __init__(self, connection, marker: str, op: str, at: int) -> None:
        self._connection = connection
        self._marker = marker
        self._op = op
        self._left = at
        self._handling = None

    def recv(self):
        message = self._connection.recv()
        self._handling = message[0]
        return message

    def send(self, reply) -> None:
        if self._handling == self._op:
            self._left -= 1
            if self._left == 0 and _claim(self._marker):
                os._exit(11)
        self._connection.send(reply)

    def close(self) -> None:
        self._connection.close()


def arm_worker(plan: dict) -> None:
    """Arm this worker's ``drop_reply`` fault (one per worker at most)."""
    worker_main = cluster._worker_main

    def faulted_main(connection):
        name = multiprocessing.current_process().name
        for index, fault in enumerate(plan["faults"]):
            if fault["action"] != "drop_reply":
                continue
            if name == f"repro-cluster-{fault['worker']}":
                marker = os.path.join(plan["markers"], str(index))
                connection = _DropReply(connection, marker, fault["op"], fault["at"])
                break
        worker_main(connection)

    cluster._worker_main = faulted_main


if __name__ == "__main__":
    arm_coordinator(json.loads(os.environ[PLAN_ENV]))
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and PLAN_ENV in os.environ:
    arm_worker(json.loads(os.environ[PLAN_ENV]))
