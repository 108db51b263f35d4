"""Live collection service: ingestion, mid-stream queries, crash recovery.

The batch pipeline answered queries after collection finished; the service
answers them *while reports arrive*.  This walkthrough:

1. starts a :class:`CollectionService` in-process (background event-loop
   thread) with checkpointing enabled,
2. creates a campaign over HTTP,
3. simulates 10,000 clients — each value is randomized **on the client**
   against the public strategy; the server never sees a raw value,
4. queries mid-stream (estimates sharpen as reports accumulate) and after
   the last report,
5. verifies the live answer equals the batch engine's ``finalize`` on the
   same reports,
6. checkpoints, kills the server without a graceful shutdown, restarts it
   from the checkpoint, and shows the recovered estimate is bit-identical.

Run:  PYTHONPATH=src python examples/live_service.py
"""

import tempfile

import numpy as np

from repro.data import zipf_data
from repro.protocol import expand_users
from repro.service import CollectionService, ServiceClient, ServiceThread

DOMAIN_SIZE = 32
EPSILON = 1.0
NUM_CLIENTS = 10_000
CHECKPOINT_DIR = tempfile.mkdtemp(prefix="repro-live-service-")


def main() -> None:
    # 1. An always-on server with checkpointing (in-process for the demo;
    #    `repro serve` runs the same thing as a standalone process).
    service = CollectionService(checkpoint_dir=CHECKPOINT_DIR)
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    print(f"service up at http://{host}:{port}  (checkpoints: {CHECKPOINT_DIR})")

    # 2. One standing campaign: prefix queries over a 32-bin domain.
    client.create_campaign(
        "latency",
        workload="Prefix",
        domain_size=DOMAIN_SIZE,
        epsilon=EPSILON,
        mechanism="Hadamard",
    )

    # 3. Simulate 10k clients.  The reporter fetched the *public* strategy,
    #    re-validated its epsilon-LDP ratio locally, and randomizes every
    #    value client-side — only output ids cross the wire.
    truth = zipf_data(DOMAIN_SIZE, NUM_CLIENTS, seed=1)
    values = expand_users(truth)
    rng = np.random.default_rng(0)
    rng.shuffle(values)
    reporter = client.reporter("latency", batch_size=500, rng=rng)

    true_answers = None
    for portion in (0.1, 0.5, 1.0):
        sent_target = int(NUM_CLIENTS * portion)
        reporter.report_many(values[reporter.reports_sent + reporter.pending:sent_target])
        reporter.flush_all()
        # 4. Query while collection is in flight.
        answer = client.query("latency", sync=True)
        if true_answers is None:
            from repro.workloads import prefix

            true_answers = prefix(DOMAIN_SIZE).matvec(truth)
        scaled_truth = true_answers * portion
        error = np.abs(np.asarray(answer["estimates"]) - scaled_truth)
        width = np.mean(
            np.asarray(answer["upper"]) - np.asarray(answer["lower"])
        )
        print(
            f"after {answer['num_reports']:>6,} reports: "
            f"mean |err| = {error.mean():7.1f} users "
            f"({100 * error.mean() / answer['num_reports']:5.1f}% of the "
            f"population), mean 95% CI width = {width:7.1f}"
        )

    # 5. The live answer is exactly what the batch engine would produce on
    #    the same aggregated reports.
    campaign = service.manager.get("latency")
    batch = campaign.session.finalize(campaign.accumulator)
    final = client.query("latency", sync=True)
    assert np.allclose(
        np.asarray(final["estimates"]), batch.workload_estimates, atol=1e-9
    )
    print("live query == batch finalize on the same reports ✓")

    # 6. Crash and recover.  Checkpoint, then kill the server WITHOUT a
    #    graceful drain; the restart rebuilds every campaign from disk.
    client.checkpoint()
    pre_kill = client.query("latency", sync=True)
    client.close()
    thread.stop(final_checkpoint=False)
    print("server killed (no graceful shutdown)")

    recovered = CollectionService(checkpoint_dir=CHECKPOINT_DIR)
    thread2 = ServiceThread(recovered)
    host2, port2 = thread2.start()
    client2 = ServiceClient(host2, port2)
    post_restart = client2.query("latency", sync=True)
    assert post_restart["estimates"] == pre_kill["estimates"]
    assert post_restart["num_reports"] == pre_kill["num_reports"]
    print(
        f"restarted from checkpoint: {post_restart['num_reports']:,} reports "
        "recovered, estimates bit-identical ✓"
    )
    client2.close()
    thread2.stop()


if __name__ == "__main__":
    main()
