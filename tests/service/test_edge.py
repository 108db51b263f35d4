"""Two-tier edge-aggregation tests: partials endpoint + EdgeAggregator.

The root-side ``POST /v1/campaigns/<name>/partials`` endpoint and the
:class:`EdgeAggregator` run over real sockets (via :class:`ServiceThread`),
so every test exercises the same HTTP path production traffic takes.  The
failure-path tests (unreachable root, lost replies, a campaign re-created
upstream, edge restarts) inject faults through the edge's ``upstream_factory`` hook —
deterministic, no monkeypatching of sockets.
"""

import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ServiceError, ServiceHTTPError
from repro.protocol import ShardAccumulator
from repro.service import (
    CampaignManager,
    CollectionService,
    EdgeAggregator,
    ServiceClient,
    ServiceThread,
)
from tests.protocol.test_engine import round_tagged_payload


@pytest.fixture
def root():
    """A running root service + connected client."""
    service = CollectionService()
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    try:
        yield service, thread, client
    finally:
        client.close()
        if thread._thread is not None:
            thread.stop()


def make_campaign(client, name="demo", domain_size=8, **kwargs):
    return client.create_campaign(
        name,
        workload="Histogram",
        domain_size=domain_size,
        epsilon=1.0,
        mechanism="Randomized Response",
        **kwargs,
    )


def fold_serially(reports, num_outputs=8):
    accumulator = ShardAccumulator(num_outputs)
    accumulator.add_reports(np.asarray(reports, dtype=np.int64))
    return accumulator


#: Partial payloads an honest edge can never produce.  Folding one NaN
#: would turn every later estimate of the campaign into NaN, and a
#: checkpoint would persist it.
FORGED_PARTIALS = {
    "nan": ([np.nan, 0.5, 0.0, 0.0], 1),
    "inf": ([np.inf, 0.0, 0.0, 0.0], 0),
    "fractional": ([0.5, 0.5, 0.0, 0.0], 1),
    "over-counted": ([2.0, 1.0, 0.0, 0.0], 50),
    "under-counted": ([2.0, 1.0, 0.0, 0.0], 0),
}


def forged_partial(histogram, num_reports, num_outputs=8):
    """A serialized accumulator with arbitrary counts (bypassing every
    fold-time check), padded to ``num_outputs`` bins."""
    forged = ShardAccumulator(num_outputs)
    forged.histogram = np.zeros(num_outputs)
    forged.histogram[: len(histogram)] = histogram
    forged.num_reports = num_reports
    return forged.to_bytes()


def start_edge(root_thread, **kwargs):
    """An EdgeAggregator on its own background loop thread."""
    edge = EdgeAggregator(root_thread.host, root_thread.port, **kwargs)
    thread = ServiceThread(edge)
    host, port = thread.start()
    return edge, thread, host, port


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestPartialsEndpoint:
    """Root-side semantics of POST /v1/campaigns/<name>/partials."""

    def test_partial_is_folded_bit_identically(self, root):
        service, _, client = root
        make_campaign(client)
        reports = [0, 1, 1, 7, 3, 3, 3]
        payload = fold_serially(reports).to_bytes()
        receipt = client.send_partial(
            "demo", edge_id="edge-a", sequence=1, payload=payload
        )
        assert receipt["duplicate"] is False
        assert receipt["accepted"] == len(reports)
        assert receipt["last_sequence"] == 1
        assert client.query("demo", sync=True)["num_reports"] == len(reports)
        folded = service.manager.get("demo").accumulator.histogram
        assert np.array_equal(folded, fold_serially(reports).histogram)

    def test_duplicate_sequence_is_acknowledged_not_folded(self, root):
        """Satellite: a duplicate forward is rejected by sequence number —
        acked as seen, never double-counted."""
        _, _, client = root
        make_campaign(client)
        payload = fold_serially([1, 2, 3]).to_bytes()
        client.send_partial("demo", edge_id="edge-a", sequence=1, payload=payload)
        retried = client.send_partial(
            "demo", edge_id="edge-a", sequence=1, payload=payload
        )
        assert retried["duplicate"] is True
        assert retried["accepted"] == 0
        assert retried["last_sequence"] == 1
        # Sequences below the ledger are duplicates too (reordered retry).
        stale = client.send_partial(
            "demo", edge_id="edge-a", sequence=0 + 1, payload=payload
        )
        assert stale["duplicate"] is True
        assert client.query("demo", sync=True)["num_reports"] == 3
        # A different edge has an independent ledger.
        other = client.send_partial(
            "demo", edge_id="edge-b", sequence=1, payload=payload
        )
        assert other["duplicate"] is False
        assert client.query("demo", sync=True)["num_reports"] == 6

    def test_partial_validation_errors(self, root):
        _, _, client = root
        make_campaign(client)
        payload = fold_serially([0]).to_bytes()
        with pytest.raises(ServiceHTTPError, match="unknown campaign") as info:
            client.send_partial("ghost", edge_id="e1", sequence=1, payload=payload)
        assert info.value.status == 404
        with pytest.raises(ServiceHTTPError, match="invalid edge id") as info:
            client.send_partial(
                "demo", edge_id="no spaces", sequence=1, payload=payload
            )
        assert info.value.status == 400
        with pytest.raises(ServiceHTTPError, match="sequence") as info:
            client.send_partial("demo", edge_id="e1", sequence=0, payload=payload)
        assert info.value.status == 400
        # Corrupt accumulator bytes are a protocol fault, not a 500.
        with pytest.raises(ServiceHTTPError) as info:
            client.send_partial(
                "demo", edge_id="e1", sequence=1, payload=b"not an accumulator"
            )
        assert info.value.status == 400
        # Output-alphabet mismatch is refused before any folding.
        wrong = ShardAccumulator(5)
        wrong.add_reports(np.array([0, 1]))
        with pytest.raises(ServiceHTTPError, match="outputs") as info:
            client.send_partial(
                "demo", edge_id="e1", sequence=1, payload=wrong.to_bytes()
            )
        assert info.value.status == 400
        # Nothing slipped through.
        assert client.query("demo", sync=True)["num_reports"] == 0

    @pytest.mark.parametrize(
        ("histogram", "num_reports"),
        list(FORGED_PARTIALS.values()),
        ids=list(FORGED_PARTIALS),
    )
    def test_forged_partial_refused_over_http(self, root, histogram, num_reports):
        """A partial whose counts are not whole, finite and consistent is a
        400: nothing folds and the edge's sequence does not advance."""
        service, _, client = root
        make_campaign(client)
        client.send_reports("demo", [3, 3])
        before = service.manager.get("demo").accumulator.snapshot()
        forged = forged_partial(histogram, num_reports)
        with pytest.raises(ServiceHTTPError, match="serialized") as info:
            client.send_partial("demo", edge_id="e1", sequence=1, payload=forged)
        assert info.value.status == 400
        assert service.manager.get("demo").accumulator == before
        assert service.manager.get("demo").edge_sequences == {}
        answer = client.query("demo")
        assert answer["num_reports"] == 2
        assert np.isfinite(answer["estimates"]).all()
        # The refused forward consumed no sequence number.
        receipt = client.send_partial(
            "demo", edge_id="e1", sequence=1, payload=fold_serially([1]).to_bytes()
        )
        assert receipt["duplicate"] is False and receipt["accepted"] == 1

    @pytest.mark.parametrize(
        ("histogram", "num_reports"),
        list(FORGED_PARTIALS.values()),
        ids=list(FORGED_PARTIALS),
    )
    def test_forged_partial_refused_by_apply_partial(self, histogram, num_reports):
        manager = CampaignManager()
        manager.create(
            "demo",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="Randomized Response",
        )
        campaign = manager.get("demo")
        with pytest.raises(ProtocolError, match="serialized"):
            manager.apply_partial(
                "demo",
                edge_id="e1",
                sequence=1,
                payload=forged_partial(histogram, num_reports, num_outputs=4),
            )
        assert campaign.accumulator == campaign.session.new_accumulator()
        assert campaign.edge_sequences == {}
        assert np.isfinite(manager.query("demo").intervals.estimates).all()

    def test_bad_base64_is_a_400(self, root):
        _, _, client = root
        make_campaign(client)
        with pytest.raises(ServiceHTTPError, match="base64") as info:
            client._request(
                "POST",
                "/v1/campaigns/demo/partials",
                {"edge": "e1", "sequence": 1, "accumulator": "!!!not-base64!!!"},
            )
        assert info.value.status == 400

    @pytest.mark.parametrize("round_id", [1, 2, 255, 1 << 40])
    def test_round_tagged_partial_refused_with_400(self, root, round_id):
        """A partial whose payload carries a nonzero round was cut for a
        multi-round campaign's cohort: a 400 that folds nothing and
        consumes no sequence number.  The zero tag older edges wrote is
        accepted."""
        service, _, client = root
        make_campaign(client)
        histogram = fold_serially([1, 1, 2]).histogram
        with pytest.raises(
            ServiceHTTPError, match=f"tagged round {round_id};"
        ) as info:
            client.send_partial(
                "demo",
                edge_id="e1",
                sequence=1,
                payload=round_tagged_payload(histogram, round_id),
            )
        assert info.value.status == 400
        assert service.manager.get("demo").num_reports == 0
        assert service.manager.get("demo").edge_sequences == {}
        receipt = client.send_partial(
            "demo", edge_id="e1", sequence=1, payload=round_tagged_payload(histogram, 0)
        )
        assert receipt["duplicate"] is False and receipt["accepted"] == 3
        assert client.query("demo")["num_reports"] == 3

    def test_edge_sequences_survive_checkpoint_recovery(self, tmp_path):
        """The idempotency ledger is persisted: a forward retried across a
        root restart is still acknowledged as a duplicate."""
        service = CollectionService(
            checkpoint_dir=tmp_path, checkpoint_interval=600.0
        )
        thread = ServiceThread(service)
        thread.start()
        client = ServiceClient(thread.host, thread.port)
        try:
            make_campaign(client)
            payload = fold_serially([2, 2, 5]).to_bytes()
            client.send_partial(
                "demo", edge_id="edge-a", sequence=1, payload=payload
            )
            client.checkpoint()
        finally:
            client.close()
            thread.stop(final_checkpoint=False)  # simulated crash
        recovered = CollectionService(checkpoint_dir=tmp_path)
        thread = ServiceThread(recovered)
        thread.start()
        client = ServiceClient(thread.host, thread.port)
        try:
            retried = client.send_partial(
                "demo", edge_id="edge-a", sequence=1, payload=payload
            )
            assert retried["duplicate"] is True
            assert client.query("demo", sync=True)["num_reports"] == 3
            fresh = client.send_partial(
                "demo", edge_id="edge-a", sequence=2, payload=payload
            )
            assert fresh["duplicate"] is False
            assert client.query("demo", sync=True)["num_reports"] == 6
        finally:
            client.close()
            thread.stop()


class TestEdgeAggregator:
    """The edge tier end to end, over real sockets on both hops."""

    def test_two_tier_matches_serial_fold_bit_identically(self, root):
        service, root_thread, client = root
        make_campaign(client)
        edge, edge_thread, host, port = start_edge(root_thread, forward_interval=0.05)
        rng = np.random.default_rng(7)
        reports = rng.integers(0, 8, size=5000)
        edge_client = ServiceClient(host, port, transport="binary")
        try:
            health = edge_client.healthz()
            assert health["role"] == "edge"
            assert health["edge_id"] == edge.edge_id
            for start in range(0, len(reports), 500):
                edge_client.send_reports("demo", reports[start : start + 500])
        finally:
            edge_client.close()
            edge_thread.stop()  # graceful drain forwards everything buffered
        assert client.query("demo", sync=True)["num_reports"] == len(reports)
        folded = service.manager.get("demo").accumulator.histogram
        assert np.array_equal(folded, fold_serially(reports).histogram)
        assert edge.reports_lost == 0
        assert edge.reports_forwarded == len(reports)

    def test_edge_proxies_campaign_reads_to_the_root(self, root):
        _, root_thread, client = root
        make_campaign(client)
        _, edge_thread, host, port = start_edge(root_thread)
        edge_client = ServiceClient(host, port)
        try:
            assert [c["name"] for c in edge_client.campaigns()] == ["demo"]
            assert edge_client.campaign("demo")["num_outputs"] == 8
            strategy = edge_client.strategy("demo")
            assert strategy.shape == (8, 8)
            with pytest.raises(ServiceHTTPError) as info:
                edge_client.campaign("ghost")
            assert info.value.status == 404
        finally:
            edge_client.close()
            edge_thread.stop()

    def test_unknown_campaign_report_is_rejected_at_the_edge(self, root):
        _, root_thread, client = root
        make_campaign(client)
        _, edge_thread, host, port = start_edge(root_thread)
        edge_client = ServiceClient(host, port)
        try:
            with pytest.raises(ServiceHTTPError) as info:
                edge_client.send_reports("ghost", [1, 2])
            assert info.value.status == 400
        finally:
            edge_client.close()
            edge_thread.stop()

    def test_unreachable_root_buffers_and_retries_without_loss(self, root):
        """Satellite: upstream unreachable at flush time — the partial stays
        in the outbox under backoff and lands once the root returns."""
        service, root_thread, client = root
        make_campaign(client)
        down = {"flag": False}
        real_host, real_port = root_thread.host, root_thread.port

        def factory():
            if down["flag"]:
                raise ConnectionRefusedError("injected: root is down")
            return ServiceClient(real_host, real_port)

        edge, edge_thread, host, port = start_edge(
            root_thread,
            forward_interval=0.05,
            retry_base=0.02,
            retry_cap=0.1,
            upstream_factory=factory,
        )
        edge_client = ServiceClient(host, port)
        try:
            down["flag"] = True
            edge_client.send_reports("demo", [1, 2, 3, 4, 5])
            assert wait_until(lambda: edge._m_forward_retries.value > 0)
            assert len(edge._outbox) >= 1
            assert client.query("demo", sync=True)["num_reports"] == 0
            down["flag"] = False
            # The root counts the reports before the edge's forward returns
            # and bumps its counter, so wait on the edge's side.
            assert wait_until(lambda: edge.forwards_applied == 1)
            assert client.query("demo", sync=True)["num_reports"] == 5
            assert edge.reports_lost == 0
        finally:
            edge_client.close()
            edge_thread.stop()
        folded = service.manager.get("demo").accumulator.histogram
        assert np.array_equal(
            folded, fold_serially([1, 2, 3, 4, 5]).histogram
        )

    def test_lost_reply_retry_is_deduplicated(self, root):
        """The at-most-once half of exactly-once: the root applies a forward
        but the reply is lost; the retry is acked as a duplicate."""
        _, root_thread, client = root
        make_campaign(client)
        real_host, real_port = root_thread.host, root_thread.port
        lose_next_reply = {"flag": False}

        class LostReplyClient(ServiceClient):
            def send_partial(self, campaign, **kwargs):
                receipt = super().send_partial(campaign, **kwargs)
                if lose_next_reply["flag"]:
                    lose_next_reply["flag"] = False
                    raise ConnectionResetError("injected: reply lost")
                return receipt

        edge, edge_thread, host, port = start_edge(
            root_thread,
            forward_interval=0.05,
            retry_base=0.02,
            upstream_factory=lambda: LostReplyClient(real_host, real_port),
        )
        edge_client = ServiceClient(host, port)
        try:
            lose_next_reply["flag"] = True
            edge_client.send_reports("demo", [3, 3, 3])
            assert wait_until(lambda: edge.forwards_duplicate == 1)
            assert client.query("demo", sync=True)["num_reports"] == 3
            assert edge.reports_lost == 0
        finally:
            edge_client.close()
            edge_thread.stop()
        # Not double-counted by the drain either.
        assert client.query("demo", sync=True)["num_reports"] == 3

    def test_graceful_stop_forwards_the_final_partial(self, root):
        """Satellite: the drain path behind SIGTERM — reports buffered at
        the edge when the stop begins still reach the root."""
        _, root_thread, client = root
        make_campaign(client)
        # Forward triggers that never fire during the test: only the
        # graceful stop can ship the partial.
        edge, edge_thread, host, port = start_edge(root_thread, forward_interval=600.0)
        edge_client = ServiceClient(host, port)
        try:
            edge_client.send_reports("demo", [7] * 40)
            assert edge.pipeline.stats.ingested == 40
            assert client.query("demo", sync=True)["num_reports"] == 0
        finally:
            edge_client.close()
            edge_thread.stop()
        assert client.query("demo", sync=True)["num_reports"] == 40
        assert edge.reports_lost == 0

    def test_drain_gives_up_at_its_deadline_and_counts_the_loss(self, root):
        """A graceful stop against an unreachable root retries until
        ``drain_timeout``, then counts every buffered report as lost."""
        _, root_thread, client = root
        make_campaign(client)
        down = {"flag": False}
        real_host, real_port = root_thread.host, root_thread.port

        def factory():
            if down["flag"]:
                raise ConnectionRefusedError("injected: root is down")
            return ServiceClient(real_host, real_port)

        drain_timeout, retry_cap = 0.5, 0.4
        edge, edge_thread, host, port = start_edge(
            root_thread,
            forward_interval=600.0,
            retry_base=0.1,
            retry_cap=retry_cap,
            drain_timeout=drain_timeout,
            upstream_factory=factory,
        )
        edge_client = ServiceClient(host, port)
        try:
            edge_client.send_reports("demo", [1, 2, 3])
            edge_client.send_reports("demo", [4] * 5)
        finally:
            edge_client.close()
        down["flag"] = True
        started = time.monotonic()
        edge_thread.stop()
        assert time.monotonic() - started < drain_timeout + retry_cap
        assert edge._m_forward_retries.value > 0
        assert edge.reports_lost == 8
        assert edge.registry.to_json()["repro_edge_reports_lost_total"] == 8
        assert edge.reports_forwarded == 0
        assert client.query("demo", sync=True)["num_reports"] == 0

    def test_sigterm_drains_a_real_edge_process(self, root, tmp_path):
        """Satellite: `repro edge` under SIGTERM forwards the final partial
        before exiting — the full CLI entry point, not just stop()."""
        _, root_thread, client = root
        make_campaign(client)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "edge",
                "--port",
                "0",
                "--upstream-host",
                root_thread.host,
                "--upstream-port",
                str(root_thread.port),
                "--edge-id",
                "edge-sigterm",
                "--forward-interval",
                "600",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            match = None
            seen = []
            for _ in range(20):  # log lines may precede the banner
                line = process.stdout.readline()
                if not line:
                    break
                seen.append(line)
                match = re.search(r"http://([\d.]+):(\d+)", line)
                if match:
                    break
            assert match, f"no listen banner in {seen!r}"
            edge_client = ServiceClient(match.group(1), int(match.group(2)))
            try:
                edge_client.send_reports("demo", [5] * 25)
                assert edge_client.metrics()["ingest"]["ingested"] == 25
            finally:
                edge_client.close()
            assert client.query("demo", sync=True)["num_reports"] == 0
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert client.query("demo", sync=True)["num_reports"] == 25

    def test_restarted_edge_with_reused_id_resynchronizes(self, root):
        """An edge restarted under the same id starts its sequence counter
        over; the root's duplicate ack triggers a resync instead of
        silently discarding the new reports."""
        _, root_thread, client = root
        make_campaign(client)
        edge1, thread1, host1, port1 = start_edge(
            root_thread,
            edge_id="edge-stable",
            forward_interval=0.05,
        )
        edge_client = ServiceClient(host1, port1)
        try:
            edge_client.send_reports("demo", [1, 1])
            assert wait_until(
                lambda: client.query("demo", sync=True)["num_reports"] == 2
            )
        finally:
            edge_client.close()
            thread1.stop()
        edge2, thread2, host2, port2 = start_edge(
            root_thread,
            edge_id="edge-stable",
            forward_interval=0.05,
            retry_base=0.02,
        )
        edge_client = ServiceClient(host2, port2)
        try:
            edge_client.send_reports("demo", [2, 2, 2])
            assert wait_until(
                lambda: client.query("demo", sync=True)["num_reports"] == 5
            )
            assert edge2.reports_lost == 0
            # The resync re-cut the payload under a fresh sequence.
            assert edge2.manager.peek("demo").sequence >= 2
        finally:
            edge_client.close()
            thread2.stop()

    def test_campaign_recreated_with_another_alphabet_under_the_edge(self, root):
        """A root restarted without its checkpoint can re-create a campaign
        name with another strategy.  The edge's buffered reports over the
        old alphabet are permanently rejected (counted lost, never folded)
        and the refreshed mirror validates against the new alphabet."""
        _, first_thread, first_client = root
        make_campaign(first_client)  # Randomized Response: 8 outputs
        upstream = [first_thread]
        edge, edge_thread, host, port = start_edge(
            first_thread,
            forward_interval=600.0,
            retry_base=0.02,
            upstream_factory=lambda: ServiceClient(
                upstream[0].host, upstream[0].port
            ),
        )
        second_thread = ServiceThread(CollectionService())
        second_thread.start()
        second_client = ServiceClient(second_thread.host, second_thread.port)
        edge_client = ServiceClient(host, port)
        try:
            edge_client.send_reports("demo", [1, 1, 1])
            second_client.create_campaign(
                "demo", workload="Histogram", domain_size=8, epsilon=1.0
            )  # Hadamard: 16 outputs
            upstream[0] = second_thread
            edge_thread.run_coroutine(_cut_now(edge, edge.manager.peek("demo")))
            assert wait_until(lambda: edge.forwards_rejected == 1)
            assert edge.reports_lost == 3
            assert wait_until(
                lambda: edge.manager.peek("demo").session.num_outputs == 16
            )
            edge_client.send_reports("demo", [12, 15])
            edge_thread.run_coroutine(_drain_now(edge))
            assert second_client.query("demo")["num_reports"] == 2
        finally:
            edge_client.close()
            edge_thread.stop()
            second_client.close()
            second_thread.stop()

    def test_acked_batch_is_in_the_next_cut(self, root):
        """The edge folds at ack time: a cut right after the 200 seals the
        batch, with no flush in between."""
        _, root_thread, client = root
        make_campaign(client)
        edge, edge_thread, host, port = start_edge(root_thread, forward_interval=600.0)
        edge_client = ServiceClient(host, port)
        try:
            for batch in ([1, 2, 2], [0]):
                edge_client.send_reports("demo", batch)
                mirror = edge.manager.peek("demo")
                sealed = edge_thread.run_coroutine(_cut_now(edge, mirror))
                partial = ShardAccumulator.from_bytes(sealed.payload)
                assert partial.num_reports == len(batch)
                assert np.array_equal(
                    partial.histogram, np.bincount(batch, minlength=8)
                )
        finally:
            edge_client.close()
            edge_thread.stop()

    def test_campaign_filter_requires_existing_campaigns(self, root):
        _, root_thread, _ = root
        edge = EdgeAggregator(
            root_thread.host, root_thread.port, campaigns=["ghost"]
        )
        with pytest.raises(ServiceError, match="ghost"):
            ServiceThread(edge).start()

    def test_constructor_validation(self):
        with pytest.raises(ServiceError, match="forward_reports"):
            EdgeAggregator("localhost", 1, forward_reports=0)
        with pytest.raises(ServiceError, match="forward_interval"):
            EdgeAggregator("localhost", 1, forward_interval=0.0)
        with pytest.raises(ServiceError, match="retry_base"):
            EdgeAggregator("localhost", 1, retry_base=0.5, retry_cap=0.1)


async def _cut_now(edge, mirror):
    """Cut one mirror on the edge's loop; returns the sealed forward."""
    edge._cut(mirror)
    return edge._outbox[-1]


async def _drain_now(edge):
    """Cut every mirror and forward synchronously."""
    for mirror in edge.manager.campaigns():
        edge._cut(mirror)
    await edge._forward_outbox(10.0)
