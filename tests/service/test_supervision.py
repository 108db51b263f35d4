"""Self-healing supervision + WAL recovery: the zero-loss contract.

With a WAL under it the pool stops being loud-but-fragile: a SIGKILLed
worker respawns, restores its shard from the last checkpoint cut plus a
replay of exactly the records routed to it, and the service answers
bit-identically to a serial fold — no acked report lost, none counted
twice.  Budget exhaustion is the only path left to ``degraded``.

Worker processes are spawned (interpreter + numpy import each), so these
tests keep worker counts and batch sizes small.
"""

import functools
import itertools
import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import (
    CheckpointStore,
    CollectionService,
    ServiceClient,
    ServiceThread,
    WorkerPool,
    cluster,
)
from tests.service.crash_worker import drop_reply_main

NUM_OUTPUTS = 8


def batches(seed=0, count=10, size=40):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, NUM_OUTPUTS, size=size).astype(np.int64)
        for _ in range(count)
    ]


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("cluster_workers", 2)
    kwargs.setdefault("checkpoint_dir", tmp_path / "ckpt")
    kwargs.setdefault("checkpoint_interval", 3600.0)
    kwargs.setdefault("wal_dir", tmp_path / "wal")
    return CollectionService(**kwargs)


def create_demo(client):
    client.create_campaign(
        "demo",
        workload="Histogram",
        domain_size=NUM_OUTPUTS,
        epsilon=1.0,
        mechanism="Randomized Response",
    )


def serial_reference(all_batches):
    """The same reports folded by a single-process service."""
    single = CollectionService()
    with ServiceThread(single) as (host, port):
        client = ServiceClient(host, port)
        create_demo(client)
        for batch in all_batches:
            client.send_reports("demo", batch)
        answer = client.query("demo", sync=True)
        client.close()
    return answer


def wait_for_health(client, status="ok", timeout=15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            health = client.healthz()
        except ServiceError:
            health = None  # 503 while degraded
        if health is not None and health["status"] == status:
            return health
        time.sleep(0.05)
    raise AssertionError(f"service never reached health {status!r}")


def test_supervised_flag_requires_wal():
    pool = WorkerPool(1)
    assert not pool.supervised  # WAL-less pools keep the loud behavior


def test_sigkill_heals_without_losing_acked_reports(tmp_path):
    """Kill a worker mid-stream: the pool respawns it, replays its routed
    records from the WAL, and the final answer is bit-identical to a
    serial fold of every acked batch."""
    service = make_service(tmp_path)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    all_batches = batches(seed=11)
    try:
        for index, batch in enumerate(all_batches):
            client.send_reports("demo", batch)
            if index == 4:
                os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
        health = wait_for_health(client)
        assert health["worker_restarts"] >= 1
        assert health["workers_alive"] == 2
        answer = client.query("demo", sync=True)
    finally:
        client.close()
        thread.stop(final_checkpoint=False)

    reference = serial_reference(all_batches)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]
    assert answer["standard_errors"] == reference["standard_errors"]


def test_restart_budget_exhaustion_degrades(tmp_path):
    """A zero restart budget turns the first worker death into permanent
    degradation — supervision never loops forever on a crashing worker."""
    service = make_service(tmp_path, worker_restart_limit=0)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)

    async def pool_health():
        # On the service loop: a poll that notices the death first starts
        # the supervisor task, which needs the running loop.
        return service.pool.health

    try:
        client.send_reports("demo", [0, 1, 2])
        os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
        deadline = time.time() + 15
        while (
            thread.run_coroutine(pool_health()) != "degraded"
            and time.time() < deadline
        ):
            time.sleep(0.05)
        assert thread.run_coroutine(pool_health()) == "degraded"
        with pytest.raises(ServiceError, match="degraded"):
            client.healthz()
        with pytest.raises(ServiceError, match="restart budget"):
            client.send_reports("demo", [3])
    finally:
        client.close()
        thread.stop(final_checkpoint=False)


def test_checkpoint_cuts_and_truncates_wal(tmp_path):
    """A successful checkpoint records its WAL coverage point and removes
    the covered segments; recovery from crash replays only the suffix."""
    service = make_service(tmp_path)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    before = batches(seed=21, count=4)
    after = batches(seed=22, count=3)
    try:
        for batch in before:
            client.send_reports("demo", batch)
        client.checkpoint()
        wal_stats = client.metrics()["wal"]
        assert wal_stats["truncations"] >= 1
        assert wal_stats["segments"] <= 1
        for batch in after:
            client.send_reports("demo", batch)
    finally:
        client.close()
        thread.stop(final_checkpoint=False)  # crash: suffix only in WAL

    recovered = make_service(tmp_path)
    with ServiceThread(recovered) as (host, port):
        replayed = ServiceClient(host, port)
        answer = replayed.query("demo", sync=True)
        replayed.close()
    reference = serial_reference(before + after)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]


def replay_with_older_record(tmp_path, kind, body, campaign=""):
    """Fold three batches through a WAL-backed single-process service,
    stop it without a final checkpoint, append ``body`` as a record an
    older build logged, and recover.  The record must be refused (counted
    in startup_replay_rejected) while every other record folds."""
    import asyncio

    from repro.service.wal import WriteAheadLog

    service = make_service(tmp_path, cluster_workers=0)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    all_batches = batches(seed=41, count=3)
    try:
        for batch in all_batches:
            client.send_reports("demo", batch)
    finally:
        client.close()
        thread.stop(final_checkpoint=False)

    async def append_older_record():
        wal = WriteAheadLog(tmp_path / "wal")
        wal.scan()
        await wal.start()
        await wal.append(kind, body, campaign=campaign)
        await wal.stop()

    asyncio.run(append_older_record())
    recovered = make_service(tmp_path, cluster_workers=0)
    with ServiceThread(recovered) as (host, port):
        replayed = ServiceClient(host, port)
        answer = replayed.query("demo")
        wal_stats = replayed.metrics()["wal"]
        replayed.close()
    assert wal_stats["startup_replayed"] == len(all_batches)
    assert wal_stats["startup_replay_rejected"] == 1
    reference = serial_reference(all_batches)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]


def test_wal_histogram_record_replays_as_rejected(tmp_path):
    """Builds that still accepted pre-aggregated 'histogram' bodies logged
    them like any JSON batch.  Replaying such a log refuses that record
    and folds everything else."""
    import json

    from repro.service.wal import KIND_JSON_BATCH

    body = {"campaign": "demo", "histogram": [5.0] + [0.0] * 7}
    replay_with_older_record(
        tmp_path, KIND_JSON_BATCH, json.dumps(body).encode("utf-8")
    )


def _round_tagged_record(form):
    import base64
    import json

    from repro.service.wal import KIND_FRAMES, KIND_JSON_BATCH, KIND_PARTIAL
    from tests.protocol.test_engine import round_tagged_payload
    from tests.service.test_framing import round_tagged_frame

    if form == "json":
        body = {"campaign": "demo", "reports": [1, 2], "round": 1}
        return KIND_JSON_BATCH, json.dumps(body).encode("utf-8"), ""
    if form == "frames":
        return KIND_FRAMES, round_tagged_frame("demo", [1, 2], 1), ""
    payload = round_tagged_payload([0, 1, 1] + [0] * 5, 1)
    body = {
        "edge": "e1",
        "sequence": 1,
        "accumulator": base64.b64encode(payload).decode("ascii"),
    }
    return KIND_PARTIAL, json.dumps(body).encode("utf-8"), "demo"


@pytest.mark.parametrize("form", ["json", "frames", "partial"])
def test_wal_round_tagged_record_replays_as_rejected(tmp_path, form):
    """Builds with multi-round campaigns logged round-tagged bodies (a
    JSON ``round``, frame byte 7, a partial's ``round_id``).  Replaying
    such a log refuses that record and folds everything else."""
    kind, body, campaign = _round_tagged_record(form)
    replay_with_older_record(tmp_path, kind, body, campaign)


def test_pipeline_mode_wal_crash_recovery_is_bit_identical(tmp_path):
    """The WAL also covers the single-process pipeline: a crash between
    checkpoints loses nothing."""
    service = make_service(tmp_path, cluster_workers=0)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    all_batches = batches(seed=31, count=6)
    try:
        for batch in all_batches:
            client.send_reports("demo", batch)
    finally:
        client.close()
        thread.stop(final_checkpoint=False)

    recovered = make_service(tmp_path, cluster_workers=0)
    with ServiceThread(recovered) as (host, port):
        replayed = ServiceClient(host, port)
        answer = replayed.query("demo", sync=True)
        metrics = replayed.metrics()
        assert metrics["wal"]["startup_replayed"] == len(all_batches)
        replayed.close()
    reference = serial_reference(all_batches)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]


def test_failed_checkpoint_fsync_keeps_wal_coverage(tmp_path, monkeypatch):
    """A checkpoint fsync failure surfaces as a server error but loses
    nothing: the WAL is not truncated past a checkpoint that never became
    durable, and the next checkpoint succeeds."""
    # save #1 is the campaign-creation checkpoint; #2 is ours below, and it
    # fails before any byte is written
    saves = itertools.count(1)
    save_frozen = CheckpointStore.save_frozen

    def failing_save(self, *args, **kwargs):
        if next(saves) == 2:
            raise OSError("checkpoint fsync failed")
        return save_frozen(self, *args, **kwargs)

    monkeypatch.setattr(CheckpointStore, "save_frozen", failing_save)
    service = make_service(tmp_path)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    all_batches = batches(seed=41, count=4)
    try:
        for batch in all_batches:
            client.send_reports("demo", batch)
        with pytest.raises(ServiceError, match="fsync"):
            client.checkpoint()
        # nothing was truncated on the failed save
        assert client.metrics()["wal"]["truncations"] == 0
        client.checkpoint()  # only save #2 fails; this one lands
        assert client.metrics()["wal"]["truncations"] >= 1
    finally:
        client.close()
        thread.stop(final_checkpoint=False)

    recovered = make_service(tmp_path)
    with ServiceThread(recovered) as (host, port):
        replayed = ServiceClient(host, port)
        answer = replayed.query("demo", sync=True)
        replayed.close()
    reference = serial_reference(all_batches)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]


def test_drop_reply_mid_cut_retries_the_checkpoint(tmp_path, monkeypatch):
    """A worker dying *during* the checkpoint cut (after computing it,
    before acking) is the worst case: the coordinator retries the cut
    after the respawn, and the rebuilt shard makes the retry exact.

    Each worker counts its own ops: cut #1 is the campaign-creation
    checkpoint, cut #2 is the explicit one below — every original worker
    dies mid-cut *with real shard data*, and the respawned replacements
    (whose death is already claimed) let the retry land."""
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setattr(
        cluster,
        "_worker_main",
        functools.partial(drop_reply_main, str(markers), "cut", 2),
    )
    service = make_service(tmp_path)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    create_demo(client)
    all_batches = batches(seed=51, count=6)
    try:
        for batch in all_batches:
            client.send_reports("demo", batch)
        client.checkpoint()  # survives the mid-cut death
        health = wait_for_health(client)
        assert health["worker_restarts"] >= 1
        answer = client.query("demo", sync=True)
    finally:
        client.close()
        thread.stop(final_checkpoint=False)

    reference = serial_reference(all_batches)
    assert answer["num_reports"] == reference["num_reports"]
    assert answer["estimates"] == reference["estimates"]

    # and the checkpoint that finally landed recovers bit-identically
    recovered = make_service(tmp_path)
    with ServiceThread(recovered) as (host, port):
        replayed = ServiceClient(host, port)
        final = replayed.query("demo", sync=True)
        assert final["num_reports"] == reference["num_reports"]
        assert final["estimates"] == reference["estimates"]
        replayed.close()
