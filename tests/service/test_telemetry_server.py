"""End-to-end telemetry tests: the Prometheus exposition endpoint, trace
propagation through real ingest requests, monotonic uptime, and the
cluster-mode aggregation of per-worker metrics."""

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import (
    CollectionService,
    ServiceClient,
    ServiceThread,
)
from repro.telemetry import Histogram, is_trace_id

from tests.telemetry.test_metrics import assert_valid_exposition


@pytest.fixture
def live():
    service = CollectionService()
    thread = ServiceThread(service)
    host, port = thread.start()
    client = ServiceClient(host, port)
    try:
        yield service, client
    finally:
        client.close()
        thread.stop()


def make_campaign(client, name="demo", domain_size=8, epsilon=1.0):
    return client.create_campaign(
        name,
        workload="Histogram",
        domain_size=domain_size,
        epsilon=epsilon,
        mechanism="Randomized Response",
    )


def sample_lines(text):
    return [
        line
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


def sample_value(text, prefix):
    """The value of the unique sample line starting with ``prefix``."""
    matches = [line for line in sample_lines(text) if line.startswith(prefix)]
    assert len(matches) == 1, f"{prefix!r} matched {matches}"
    return float(matches[0].rsplit(" ", 1)[1])


class TestPrometheusEndpoint:
    def test_exposition_is_valid_and_covers_the_ingest_path(self, live):
        _, client = live
        make_campaign(client)
        client.send_reports("demo", [1, 2, 3, 3])
        client.query("demo", sync=True)
        client.strategy("demo")  # a campaign-named route, for label checks
        text = client.prometheus_metrics()
        assert_valid_exposition(text)
        assert sample_value(text, "repro_uptime_seconds ") >= 0.0
        assert sample_value(text, "repro_ingest_latency_seconds_count ") >= 1
        assert sample_value(text, "repro_ingest_reports_total ") == 4
        assert sample_value(text, 'repro_campaign_reports{campaign="demo"} ') == 4
        # The normalized route label keeps campaign names out of the
        # label space while staying well-formed exposition.
        assert 'path="/v1/campaigns/{name}/strategy"' in text
        assert "campaigns/demo" not in text
        # Span durations from the ingest trace land labeled by stage.
        for span in ("ingest", "decode", "fold"):
            assert (
                sample_value(
                    text, f'repro_span_duration_seconds_count{{span="{span}"}} '
                )
                >= 1
            )

    def test_unknown_format_is_a_400(self, live):
        _, client = live
        with pytest.raises(ServiceError, match="unknown metrics format"):
            client._request("GET", "/v1/metrics?format=xml")

    def test_json_document_carries_telemetry_families(self, live):
        _, client = live
        make_campaign(client)
        client.send_reports("demo", [0, 1])
        client.query("demo", sync=True)
        metrics = client.metrics()
        telemetry = metrics["telemetry"]
        latency = telemetry["repro_ingest_latency_seconds"]
        assert latency["count"] >= 1
        assert set(latency) == {"count", "sum", "p50", "p95", "p99"}
        requests = telemetry["repro_http_requests_total"]
        assert any(
            row["labels"]["path"] == "/v1/reports" and row["value"] >= 1
            for row in requests
        )

    def test_uptime_is_monotonic_and_in_healthz(self, live):
        _, client = live
        first = client.healthz()["uptime_seconds"]
        second = client.metrics()["uptime_seconds"]
        third = client.healthz()["uptime_seconds"]
        assert 0.0 <= first <= second <= third


class TestWalFamilies:
    def test_running_totals_are_counters(self, tmp_path):
        service = CollectionService(
            checkpoint_dir=tmp_path / "checkpoints", wal_dir=tmp_path / "wal"
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            make_campaign(client)
            client.send_reports("demo", [1, 2, 3])
            text = client.prometheus_metrics()
        finally:
            client.close()
            thread.stop()
        assert_valid_exposition(text)
        kinds = dict(
            line.split()[2:4]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        )
        wal_kinds = {name: kind for name, kind in kinds.items() if "_wal_" in name}
        assert wal_kinds == {
            "repro_wal_appends_total": "counter",
            "repro_wal_fsync_batches_total": "counter",
            "repro_wal_bytes_written_total": "counter",
            "repro_wal_truncations_total": "counter",
            "repro_wal_replayed_records_total": "counter",
            "repro_wal_last_sequence": "gauge",
            "repro_wal_segments": "gauge",
        }
        assert sample_value(text, "repro_wal_appends_total ") >= 1
        assert sample_value(text, "repro_wal_bytes_written_total ") > 0


class TestTracePropagation:
    def test_json_ingest_echoes_the_client_minted_trace(self, live):
        service, client = live
        make_campaign(client)
        traced = ServiceClient(client.host, client.port, trace=True)
        try:
            response = traced.send_reports("demo", [1, 2])
            assert is_trace_id(traced.last_trace_id)
            assert response["trace"] == traced.last_trace_id
            # The fold happens before the ack, so its span is already there.
            spans = service.tracer.trace(traced.last_trace_id)
            assert {s.name for s in spans} >= {"ingest", "decode", "fold"}
        finally:
            traced.close()

    def test_binary_ingest_echoes_the_trace_too(self, live):
        _, client = live
        make_campaign(client)
        traced = ServiceClient(
            client.host, client.port, trace=True, transport="binary"
        )
        try:
            response = traced.send_reports("demo", [3, 3, 3])
            assert response["trace"] == traced.last_trace_id
            assert response["accepted"] == 3
        finally:
            traced.close()

    def test_untraced_requests_still_mint_server_side(self, live):
        service, client = live
        make_campaign(client)
        response = client.send_reports("demo", [0])
        assert is_trace_id(response["trace"])
        assert client.last_trace_id == ""

    def test_tracing_can_be_disabled_without_changing_estimates(self):
        service = CollectionService(tracing=False)
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            make_campaign(client)
            response = client.send_reports("demo", [1, 2, 3])
            assert response["accepted"] == 3
            assert "trace" not in response
            assert service.tracer.recent() == []
            text = client.prometheus_metrics()
            assert_valid_exposition(text)
        finally:
            client.close()
            thread.stop()


class TestClusterAggregation:
    """Satellite invariant: per-worker counters sum and per-worker fold
    histograms merge order-independently at the coordinator."""

    @pytest.fixture
    def cluster(self, tmp_path):
        service = CollectionService(
            cluster_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_interval=3600.0,
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        make_campaign(client)
        try:
            yield service, client
        finally:
            client.close()
            try:
                thread.stop(final_checkpoint=False)
            except Exception:
                pass

    def test_worker_counters_sum_and_histograms_merge(self, cluster):
        _, client = cluster
        rng = np.random.default_rng(7)
        total = 0
        for _ in range(6):
            batch = rng.integers(0, 8, size=40)
            total += client.send_reports("demo", batch.tolist())["accepted"]
        client.query("demo", sync=True)

        metrics = client.metrics()
        workers = metrics["cluster"]["workers"]
        assert len(workers) == 2
        assert metrics["cluster"]["workers_alive"] == 2
        per_worker = [row["ingest"]["ingested"] for row in workers]
        assert sum(per_worker) == total == 240
        # Both workers did real work (round-robin dispatch).
        assert all(count > 0 for count in per_worker)

        snapshots = [row["fold_seconds"] for row in workers]
        assert all(snap is not None for snap in snapshots)
        bounds = tuple(snapshots[0]["bounds"])
        forward = Histogram(bounds=bounds)
        backward = Histogram(bounds=bounds)
        for snap in snapshots:
            forward.merge_snapshot(snap)
        for snap in reversed(snapshots):
            backward.merge_snapshot(snap)
        assert forward.snapshot() == backward.snapshot()
        assert forward.count == sum(snap["count"] for snap in snapshots)

        # The scrape endpoint serves exactly that merged view.
        text = client.prometheus_metrics()
        assert_valid_exposition(text)
        assert sample_value(text, "repro_ingest_reports_total ") == total
        assert (
            sample_value(text, "repro_ingest_fold_seconds_count ")
            == forward.count
        )
        assert sample_value(text, "repro_cluster_workers_alive ") == 2
