#!/usr/bin/env python
"""Seeded chaos drill for CI: crash storms with a zero-loss ledger.

Drives a real ``repro serve`` subprocess (cluster tier + WAL) through a
deterministic storm of crashes, in one run:

1. **mid-dispatch** — the coordinator SIGKILLs a worker right before
   sending it a batch (``kill_worker``);
2. **mid-fold** — a worker dies after folding a batch but before acking
   it (``drop_reply`` on ``op=json``): the coordinator re-routes the
   batch, and the respawn rebuilds only the batches the worker acked;
3. **mid-checkpoint** — a worker dies after computing its checkpoint cut
   but before acking it (``drop_reply`` on ``op=cut``), the
   coordinator's worst case: it cannot know whether the cut landed;
4. **torn WAL tail** — the whole server process dies mid-fsync leaving a
   half-written record on disk (``torn_wal``), and is restarted on the
   same directories.

The program has no fault hooks: the faulted server runs through
``scripts/chaos_serve.py``, which wraps the program's own functions from
outside (see its docstring).

The drill keeps a serial ledger: batches are sent one at a time, a batch
counts as *acked* only when the HTTP 200 arrives, and the one
storm-killed in-flight batch (the torn record was never acked) is resent
after the restart.  At the end the pool must report ``healthy`` without
any worker-death process restart, the campaign must hold **exactly** the
acked reports, and the estimates must be **bit-identical** to the same
batches folded serially by an in-process service.

Everything — batch data and fault occurrence points — derives from
``--seed``, so a failure replays exactly.  Exits non-zero on any
violation; ``--out`` writes a JSON artifact with the plan, the ledger,
and both answers.  Pass or fail, the drill kills every server it started
together with that server's workers (each server runs in its own process
group), and removes its temporary directories.  Run::

    PYTHONPATH=src python scripts/chaos_drill.py --seed 7
    PYTHONPATH=src python scripts/chaos_drill.py --seed 7 --out drill.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from chaos_serve import PLAN_ENV  # noqa: E402
from repro.service import (  # noqa: E402
    CollectionService,
    ServiceClient,
    ServiceThread,
)

DOMAIN = 32
EPSILON = 1.0
CAMPAIGN = "chaos"
WORKERS = 3
BATCH_SIZE = 200

_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


class Server:
    """One ``repro serve`` subprocess on an ephemeral port; with a
    ``plan``, started through ``scripts/chaos_serve.py`` with its crashes
    armed."""

    def __init__(self, checkpoint_dir: str, wal_dir: str, plan=None):
        entry = ["-m", "repro"]
        environment = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        if plan is not None:
            entry = [str(REPO_ROOT / "scripts" / "chaos_serve.py")]
            environment[PLAN_ENV] = json.dumps(plan)
        arguments = [
            sys.executable,
            *entry,
            "serve",
            "--port",
            "0",
            "--workers",
            str(WORKERS),
            "--checkpoint-dir",
            checkpoint_dir,
            "--wal-dir",
            wal_dir,
            "--checkpoint-interval",
            "3600",
        ]
        # A session of its own makes the server and the workers it spawns
        # one process group, which kill() ends whole.
        self.process = subprocess.Popen(
            arguments,
            cwd=REPO_ROOT,
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._bound.set()
        self._bound.set()

    def kill(self) -> None:
        """SIGKILL the server and its workers, then reap the server."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group is already gone
        self.process.wait(timeout=30)

    def wait_ready(self, timeout: float = 120.0) -> int:
        deadline = time.time() + timeout
        self._bound.wait(timeout)
        if self.port is None:
            output = "".join(self.lines)
            raise SystemExit(f"[chaos] server never reported its port:\n{output}")
        while time.time() < deadline:
            try:
                ServiceClient("127.0.0.1", self.port, timeout=2.0).healthz()
                return self.port
            except Exception:
                if self.process.poll() is not None:
                    raise SystemExit(
                        "[chaos] server died during startup:\n"
                        + "".join(self.lines)
                    )
                time.sleep(0.1)
        raise SystemExit(f"[chaos] server on :{self.port} never became healthy")


def build_plan(seed: int, phase1: int, phase3: int) -> dict:
    """Derive every fault occurrence point from the seed.

    Worker-side faults target distinct workers so each original process
    hosts exactly one death (a fault fires once, so respawned
    replacements live).  The torn WAL record is pinned to the first
    post-storm send:
    sequences 1..phase1 land before checkpoint A, phase3 more follow, so
    the tear hits sequence ``phase1 + phase3 + 1`` — always the one
    in-flight, never-acked batch.
    """
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "faults": [
            # mid-dispatch: kill worker 1 before batch K reaches it
            {
                "action": "kill_worker",
                "at": int(rng.integers(2, phase1 - 1)),
                "worker": 1,
            },
            # mid-fold: worker 0 dies after folding its first batch,
            # before the ack
            {"action": "drop_reply", "at": 1, "op": "json", "worker": 0},
            # mid-checkpoint: worker 2 dies after computing cut #2
            {"action": "drop_reply", "at": 2, "op": "cut", "worker": 2},
            # torn tail: the first send after the storm dies mid-fsync
            {"action": "torn_wal", "at": phase1 + phase3 + 1},
        ],
    }


def make_batches(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 1)
    return [
        rng.integers(0, DOMAIN, size=BATCH_SIZE).astype(np.int64)
        for _ in range(count)
    ]


def create_campaign(client: ServiceClient) -> None:
    client.create_campaign(
        CAMPAIGN,
        workload="Histogram",
        domain_size=DOMAIN,
        epsilon=EPSILON,
        mechanism="Randomized Response",
    )


def wait_for_health(client: ServiceClient, timeout: float = 60.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            health = client.healthz()
            if health["status"] == "ok":
                return health
        except Exception:
            pass
        time.sleep(0.1)
    raise SystemExit("[chaos] pool never healed back to 'ok'")


def serial_reference(batches: list[np.ndarray]) -> dict:
    """The same batches folded by an in-process service."""
    single = CollectionService()
    with ServiceThread(single) as (host, port):
        client = ServiceClient(host, port)
        create_campaign(client)
        for batch in batches:
            client.send_reports(CAMPAIGN, batch)
        answer = client.query(CAMPAIGN, sync=True)
        client.close()
    return answer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--phase1", type=int, default=8, help="batches before checkpoint A")
    parser.add_argument("--phase3", type=int, default=6, help="batches between checkpoint A and the torn tail")
    parser.add_argument("--phase5", type=int, default=4, help="batches after the restart")
    parser.add_argument("--out", default=None, help="write a JSON artifact here")
    arguments = parser.parse_args()

    directories = [
        tempfile.mkdtemp(prefix=f"repro-chaos-{kind}-")
        for kind in ("ckpt", "wal", "markers")
    ]
    servers: list[Server] = []
    try:
        return drill(arguments, *directories, servers)
    finally:
        for server in servers:
            server.kill()
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)


def drill(
    arguments, checkpoint_dir: str, wal_dir: str, markers: str, servers: list
) -> int:
    """The drill itself; every server it starts goes into ``servers``."""
    total = arguments.phase1 + arguments.phase3 + 1 + arguments.phase5
    batches = make_batches(arguments.seed, total)
    plan = build_plan(arguments.seed, arguments.phase1, arguments.phase3)
    print(f"[chaos] seed {arguments.seed}, {total} batches of {BATCH_SIZE}, plan:")
    for fault in plan["faults"]:
        print(f"[chaos]   {fault}")

    ledger = {"acked": 0, "resent": 0}
    artifact = {"seed": arguments.seed, "plan": plan, "phases": {}}

    server = Server(checkpoint_dir, wal_dir, plan={**plan, "markers": markers})
    servers.append(server)
    port = server.wait_ready()
    client = ServiceClient("127.0.0.1", port)
    create_campaign(client)
    cursor = 0

    # Phase 1: sends through the mid-dispatch kill and the mid-fold death.
    for _ in range(arguments.phase1):
        client.send_reports(CAMPAIGN, batches[cursor])
        ledger["acked"] += 1
        cursor += 1
    print(f"[chaos] phase 1: {ledger['acked']} batches acked through the kill")

    # Phase 2: checkpoint A — the mid-checkpoint death.
    client.checkpoint()
    health = wait_for_health(client)
    if health["worker_restarts"] < 3:
        raise SystemExit(
            f"[chaos] FAIL: expected >= 3 worker restarts (dispatch kill, "
            f"fold death, cut death), saw {health['worker_restarts']}"
        )
    artifact["phases"]["storm"] = {
        "worker_restarts": health["worker_restarts"],
        "wal": client.metrics()["wal"],
    }
    print(
        "[chaos] phase 2: checkpoint survived the mid-cut death after the "
        "mid-dispatch and mid-fold deaths, "
        f"{health['worker_restarts']} worker restarts, pool healthy"
    )

    # Phase 3: more sends on the healed pool.
    for _ in range(arguments.phase3):
        client.send_reports(CAMPAIGN, batches[cursor])
        ledger["acked"] += 1
        cursor += 1

    # Phase 4: this send's WAL record is torn mid-fsync and the whole
    # server dies — the batch was never acked, so the ledger resends it.
    torn_batch = batches[cursor]
    try:
        client.send_reports(CAMPAIGN, torn_batch)
        raise SystemExit("[chaos] FAIL: the torn-WAL send was acked?!")
    except SystemExit:
        raise
    except Exception as error:
        print(f"[chaos] phase 4: send died with the server ({type(error).__name__})")
    client.close()
    server.process.wait(timeout=60)
    if server.process.returncode != 17:
        raise SystemExit(
            f"[chaos] FAIL: expected torn-WAL exit code 17, got "
            f"{server.process.returncode}:\n" + "".join(server.lines[-20:])
        )

    # Restart on the same directories, no faults armed: recovery must cut
    # the torn tail and replay the phase-3 suffix past checkpoint A.
    server = Server(checkpoint_dir, wal_dir)
    servers.append(server)
    port = server.wait_ready()
    client = ServiceClient("127.0.0.1", port)
    client.send_reports(CAMPAIGN, torn_batch)
    ledger["acked"] += 1
    ledger["resent"] = 1
    cursor += 1
    print("[chaos] phase 4: restarted, torn tail cut, unacked batch resent")

    # Phase 5: the recovered server keeps ingesting.
    for _ in range(arguments.phase5):
        client.send_reports(CAMPAIGN, batches[cursor])
        ledger["acked"] += 1
        cursor += 1

    answer = client.query(CAMPAIGN, sync=True)
    metrics = client.metrics()
    artifact["phases"]["recovered"] = {
        "startup_replayed": metrics["wal"]["startup_replayed"],
        "wal": metrics["wal"],
    }
    client.close()
    server.kill()

    reference = serial_reference(batches)
    artifact["ledger"] = ledger
    artifact["answer"] = {
        "num_reports": answer["num_reports"],
        "estimates": answer["estimates"],
    }
    artifact["reference"] = {
        "num_reports": reference["num_reports"],
        "estimates": reference["estimates"],
    }
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(artifact, indent=2))
        print(f"[chaos] artifact written to {arguments.out}")

    expected = ledger["acked"] * BATCH_SIZE
    if answer["num_reports"] != expected:
        raise SystemExit(
            f"[chaos] FAIL: acked-report loss — ledger says {expected} "
            f"reports, campaign holds {answer['num_reports']}"
        )
    if metrics["wal"]["startup_replayed"] != arguments.phase3:
        raise SystemExit(
            f"[chaos] FAIL: recovery replayed "
            f"{metrics['wal']['startup_replayed']} records, expected the "
            f"{arguments.phase3} past checkpoint A"
        )
    if answer["num_reports"] != reference["num_reports"]:
        raise SystemExit("[chaos] FAIL: report count diverges from serial fold")
    if answer["estimates"] != reference["estimates"]:
        raise SystemExit(
            "[chaos] FAIL: estimates are not bit-identical to the serial fold"
        )
    print(
        f"[chaos] PASS: {ledger['acked']} batches ({expected} reports) "
        f"through 3 worker deaths + 1 torn-tail crash, zero acked-report "
        f"loss, estimates bit-identical to the serial fold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
