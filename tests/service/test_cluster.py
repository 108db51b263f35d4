"""Multi-process scale-out tier: fold equivalence, transports, crashes.

The expensive invariants live here: a worker pool folding the same
batches as a single process must answer bit-identically, and killing a
worker mid-stream must degrade loudly and recover exactly from the last
coordinated checkpoint.  Worker processes are spawned (interpreter +
numpy import each), so the tests keep worker counts and batch sizes
small.
"""

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.protocol.engine import ShardAccumulator
from repro.service import (
    CollectionService,
    ServiceClient,
    ServiceThread,
    ShardManager,
    WorkerPool,
)
from repro.service.framing import encode_reports

NUM_OUTPUTS = 8


def batches(seed=0, count=12, size=50):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, NUM_OUTPUTS, size=size).astype(np.int64)
        for _ in range(count)
    ]


def serial_fold(all_batches):
    accumulator = ShardAccumulator(NUM_OUTPUTS)
    for batch in all_batches:
        accumulator.add_reports(batch)
    return accumulator


class TestShardManager:
    def test_open_get_and_idempotent_reopen(self):
        manager = ShardManager()
        manager.open("demo", NUM_OUTPUTS)
        manager.open("demo", NUM_OUTPUTS)  # reopen with same shape is a no-op
        assert len(manager) == 1
        assert manager.get("demo").session.num_outputs == NUM_OUTPUTS
        assert manager.get("demo").session.new_accumulator().num_outputs == 8

    def test_reopen_with_different_shape_rejected(self):
        manager = ShardManager()
        manager.open("demo", NUM_OUTPUTS)
        with pytest.raises(ServiceError, match="already open"):
            manager.open("demo", NUM_OUTPUTS + 1)

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ServiceError, match="unknown campaign"):
            ShardManager().get("ghost")


class TestWorkerPool:
    def test_pool_fold_is_bit_identical_to_serial(self):
        """The tentpole invariant: any worker count, any dispatch mix
        (arrays, packed frames) folds to exactly the serial histogram."""
        all_batches = batches()
        expected = serial_fold(all_batches)

        async def run(num_workers):
            pool = WorkerPool(num_workers)
            await pool.start()
            try:
                await pool.open_campaign("demo", NUM_OUTPUTS)
                for index, batch in enumerate(all_batches):
                    if index % 3 == 2:
                        # Exercise the packed (binary-frame) path too.
                        payload = batch.astype("<u1").tobytes()
                        accepted = await pool.submit_reports_packed(
                            "demo", 1, payload
                        )
                    else:
                        accepted = await pool.submit_reports("demo", batch)
                    assert accepted == batch.shape[0]
                merged = await pool.snapshots()
                stats = await pool.stats()
                assert stats["workers_alive"] == num_workers
                assert stats["dispatched_reports"] == expected.num_reports
                return merged["demo"]
            finally:
                await pool.stop()

        for num_workers in (1, 3):
            merged = asyncio.run(run(num_workers))
            assert merged.num_reports == expected.num_reports
            assert np.array_equal(merged.histogram, expected.histogram)

    def test_worker_validation_errors_travel_back(self):
        async def run():
            pool = WorkerPool(2)
            await pool.start()
            try:
                await pool.open_campaign("demo", NUM_OUTPUTS)
                with pytest.raises(ServiceError, match="output range"):
                    await pool.submit_reports(
                        "demo", np.array([NUM_OUTPUTS + 3], dtype=np.int64)
                    )
                with pytest.raises(ServiceError, match="unknown campaign"):
                    await pool.submit_reports(
                        "ghost", np.array([0], dtype=np.int64)
                    )
                # The pool is still healthy after rejected batches.
                assert await pool.submit_reports(
                    "demo", np.array([0, 1], dtype=np.int64)
                ) == 2
            finally:
                await pool.stop()

        asyncio.run(run())

    def test_sigkilled_worker_degrades_the_pool_loudly(self):
        async def run():
            pool = WorkerPool(2)
            await pool.start()
            try:
                await pool.open_campaign("demo", NUM_OUTPUTS)
                await pool.submit_reports(
                    "demo", np.array([0, 1, 2], dtype=np.int64)
                )
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                deadline = time.time() + 10
                while pool.workers_alive > 1 and time.time() < deadline:
                    await asyncio.sleep(0.05)
                assert pool.workers_alive == 1
                with pytest.raises(ServiceError, match="restart the service"):
                    await pool.snapshots()
                with pytest.raises(ServiceError, match="restart the service"):
                    await pool.submit_reports(
                        "demo", np.array([0], dtype=np.int64)
                    )
                # Metrics stay readable while degraded.
                stats = await pool.stats()
                assert stats["workers_alive"] == 1
            finally:
                await pool.stop()

        asyncio.run(run())

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServiceError, match=">= 1"):
            WorkerPool(0)

    def test_supervised_pool_refuses_unlogged_submit_apis(self):
        """The direct submit APIs carry no WAL sequence, so a supervised
        pool could not replay them after a worker respawn — they must
        refuse up front instead of silently under-counting later."""

        async def run():
            pool = WorkerPool(1, wal=object())  # never started: the
            # guard must fire before any dispatch machinery is touched
            with pytest.raises(ServiceError, match="write-ahead log"):
                await pool.submit_reports("demo", np.array([0], dtype=np.int64))
            with pytest.raises(ServiceError, match="write-ahead log"):
                await pool.submit_reports_packed("demo", 1, b"\x00")

        asyncio.run(run())


@pytest.fixture
def cluster_service(tmp_path):
    """A running 2-worker cluster service with one campaign + client."""
    service = CollectionService(
        cluster_workers=2,
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_interval=3600.0,
    )
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    client.create_campaign(
        "demo",
        workload="Histogram",
        domain_size=NUM_OUTPUTS,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    try:
        yield service, thread, client, tmp_path / "ckpt"
    finally:
        client.close()
        try:
            thread.stop(final_checkpoint=False)
        except Exception:
            pass


class TestClusterService:
    def test_cluster_answers_match_single_process_bit_for_bit(
        self, cluster_service, tmp_path
    ):
        service, _, client, _ = cluster_service
        all_batches = batches(seed=3)
        binary = ServiceClient(client.host, client.port, transport="binary")
        for index, batch in enumerate(all_batches):
            sender = binary if index % 2 else client
            assert sender.send_reports("demo", batch)["accepted"] == len(batch)
        answer = client.query("demo", sync=True)
        binary.close()

        # The same reports through a single-process service.
        single = CollectionService()
        with ServiceThread(single) as (host, port):
            reference_client = ServiceClient(host, port)
            reference_client.create_campaign(
                "demo",
                workload="Histogram",
                domain_size=NUM_OUTPUTS,
                epsilon=1.0,
                mechanism="Randomized Response",
            )
            for batch in all_batches:
                reference_client.send_reports("demo", batch)
            reference = reference_client.query("demo", sync=True)
            reference_client.close()

        assert answer["num_reports"] == reference["num_reports"]
        assert answer["estimates"] == reference["estimates"]
        assert answer["standard_errors"] == reference["standard_errors"]

        health = client.healthz()
        assert health["cluster_workers"] == 2
        assert health["workers_alive"] == 2
        metrics = client.metrics()
        assert metrics["total_reports"] == answer["num_reports"]
        assert metrics["cluster"]["workers_alive"] == 2
        assert metrics["ingest"]["ingested"] == answer["num_reports"]
        # describe() must show live counts even though the reports live
        # on worker shards, not the coordinator's base accumulator.
        assert client.campaign("demo")["num_reports"] == answer["num_reports"]

    @pytest.mark.parametrize("transport", ["json", "binary"])
    def test_workers_refuse_round_tagged_batches(self, cluster_service, transport):
        """Workers parse and validate the bodies the coordinator hands
        them: a round-tagged batch is a 400 in cluster mode too, folds
        nothing, and leaves every worker up."""
        from repro.exceptions import ServiceHTTPError
        from tests.service.test_framing import round_tagged_frame

        _, _, client, _ = cluster_service
        if transport == "json":
            request = {"body": {"campaign": "demo", "reports": [1, 2], "round": 1}}
        else:
            request = {"raw": round_tagged_frame("demo", [1, 2], 1)}
        with pytest.raises(ServiceHTTPError, match="round") as info:
            client._request("POST", "/v1/reports", **request)
        assert info.value.status == 400
        client.send_reports("demo", [3])
        assert client.query("demo", sync=True)["num_reports"] == 1
        assert client.metrics()["ingest"]["rejected_batches"] == 1
        assert client.healthz()["workers_alive"] == 2

    def test_graceful_stop_checkpoints_every_worker_shard(
        self, cluster_service
    ):
        service, thread, client, checkpoint_dir = cluster_service
        for batch in batches(seed=5, count=6):
            client.send_reports("demo", batch)
        expected = client.query("demo", sync=True)
        client.close()
        thread.stop()  # drain + coordinated final checkpoint

        recovered = CollectionService(checkpoint_dir=checkpoint_dir)
        assert recovered.recovered
        with ServiceThread(recovered) as (host, port):
            after = ServiceClient(host, port)
            answer = after.query("demo", sync=True)
            assert answer["num_reports"] == expected["num_reports"]
            assert answer["estimates"] == expected["estimates"]
            after.close()

    def test_worker_sigkill_mid_stream_recovers_from_checkpoint(
        self, cluster_service
    ):
        """SIGKILL a worker between checkpoints: the service refuses to
        answer over the gap, and a restart recovers the coordinated
        checkpoint bit-identically (cluster mode again)."""
        service, thread, client, checkpoint_dir = cluster_service
        for batch in batches(seed=7, count=6):
            client.send_reports("demo", batch)
        client.checkpoint()
        at_checkpoint = client.query("demo", sync=True)

        # More reports after the checkpoint, then a worker dies.
        for batch in batches(seed=8, count=4):
            client.send_reports("demo", batch)
        os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
        deadline = time.time() + 10
        while service.pool.workers_alive > 1 and time.time() < deadline:
            time.sleep(0.05)
        # A dead worker is a server-side failure: 503, not a client 400.
        with pytest.raises(ServiceError, match="503.*restart the service"):
            client.query("demo", sync=True)
        # Liveness probes see the degradation too (503 healthz), so a
        # load balancer drains the instance instead of routing to it.
        with pytest.raises(ServiceError, match="degraded"):
            client.healthz()
        client.close()
        thread.stop(final_checkpoint=False)  # the crash path

        recovered = CollectionService(
            checkpoint_dir=checkpoint_dir,
            cluster_workers=2,
        )
        assert recovered.recovered
        with ServiceThread(recovered) as (host, port):
            after = ServiceClient(host, port)
            answer = after.query("demo", sync=True)
            assert answer["num_reports"] == at_checkpoint["num_reports"]
            assert answer["estimates"] == at_checkpoint["estimates"]
            # The recovered cluster still ingests, on either transport.
            after.send_reports("demo", [0, 1, 2])
            binary = ServiceClient(host, port, transport="binary")
            binary._request(
                "POST", "/v1/reports", raw=encode_reports("demo", [3])
            )
            final = after.query("demo", sync=True)
            assert final["num_reports"] == at_checkpoint["num_reports"] + 4
            binary.close()
            after.close()
