"""End-to-end tests of the HTTP service + client SDK.

Each test runs a real :class:`CollectionService` on a background
event-loop thread bound to an ephemeral port and talks to it over actual
sockets through the blocking SDK — the same path production traffic takes.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.exceptions import PrivacyViolationError, ServiceError, ServiceHTTPError
from repro.service import (
    CollectionService,
    ServiceClient,
    ServiceThread,
    CheckpointStore,
)


@pytest.fixture
def live():
    """A running service + connected client."""
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


class TestEndpoints:
    def test_healthz_and_metrics(self, live):
        _, client = live
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["recovered"] is False
        from repro._version import __version__

        assert health["version"] == __version__
        metrics = client.metrics()
        assert metrics["total_reports"] == 0
        assert metrics["checkpoints_written"] == 0

    def test_campaign_lifecycle(self, live):
        _, client = live
        created = make_campaign(client)
        assert created["name"] == "demo"
        assert created["num_outputs"] == 8
        assert [c["name"] for c in client.campaigns()] == ["demo"]
        assert client.campaign("demo")["workload"] == "Histogram"
        with pytest.raises(ServiceError, match="already exists"):
            make_campaign(client)
        with pytest.raises(ServiceError, match="unknown campaign"):
            client.campaign("ghost")

    def test_strategy_is_served_and_revalidated(self, live):
        _, client = live
        make_campaign(client)
        strategy = client.strategy("demo")
        assert strategy.shape == (8, 8)
        assert strategy.epsilon == 1.0
        # exact float round trip through JSON
        from repro.mechanisms import randomized_response

        assert np.array_equal(
            strategy.probabilities, randomized_response(8, 1.0).probabilities
        )

    def test_single_report_endpoint(self, live):
        _, client = live
        make_campaign(client)
        response = client._request(
            "POST", "/v1/report", {"campaign": "demo", "report": 3}
        )
        assert response["accepted"] == 1
        assert client.query("demo", sync=True)["num_reports"] == 1

    def test_bad_requests_get_json_errors(self, live):
        _, client = live
        make_campaign(client)
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/v1/nope")
        with pytest.raises(ServiceError, match="campaign"):
            client._request("POST", "/v1/reports", {"reports": [1]})
        # A 'histogram' field is refused by name, even beside 'reports':
        # folding only the reports would drop what the client meant.
        with pytest.raises(ServiceError, match="'histogram' bodies"):
            client._request(
                "POST",
                "/v1/reports",
                {"campaign": "demo", "reports": [1], "histogram": [1.0] * 8},
            )
        with pytest.raises(ServiceError, match="output range"):
            client.send_reports("demo", [99])
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/v1/campaigns", {"name": "incomplete"})

    def test_malformed_http_gets_an_error_response(self, live):
        service, client = live
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request("BREW", "/v1/espresso")
        response = connection.getresponse()
        assert response.status == 404
        connection.close()

    def test_bad_content_length_gets_400_not_dropped(self, live):
        _, client = live
        import socket

        for header in (b"Content-Length: abc", b"Content-Length: -5"):
            with socket.create_connection(
                (client.host, client.port), timeout=5
            ) as raw:
                raw.sendall(
                    b"POST /v1/reports HTTP/1.1\r\n" + header + b"\r\n\r\n"
                )
                response = raw.recv(4096)
            assert response.startswith(b"HTTP/1.1 400"), response[:40]

    def test_string_reports_get_400_not_500(self, live):
        _, client = live
        make_campaign(client)
        for payload in (["abc"], [None], [0, "x"]):
            with pytest.raises(ServiceError, match="400"):
                client._request(
                    "POST",
                    "/v1/reports",
                    {"campaign": "demo", "reports": payload},
                )
        assert client.query("demo", sync=True)["num_reports"] == 0

    def test_raw_urllib_query(self, live):
        """The API is plain HTTP — no SDK required."""
        _, client = live
        make_campaign(client)
        client.send_reports("demo", [0, 1, 2])
        with urllib.request.urlopen(
            f"http://{client.host}:{client.port}/v1/query?campaign=demo&sync=1"
        ) as response:
            import json

            payload = json.loads(response.read())
        assert payload["num_reports"] == 3

    def test_confidence_with_infinite_quantile_gets_400(self, live):
        # 1 - 2**-53 passes ``< 1``, but ``0.5 + c / 2`` rounds to 1.0: the
        # bounds would be +-Infinity, which is not JSON.
        _, client = live
        make_campaign(client)
        client.send_reports("demo", [0, 1, 2])
        with pytest.raises(ServiceHTTPError, match="confidence") as error:
            client.query("demo", confidence=1 - 2**-53)
        assert error.value.status == 400
        assert client.query("demo", confidence=1 - 2**-52)["num_reports"] == 3

    @pytest.mark.parametrize(
        "workload, domain_size",
        [
            ("Histogram", -3),
            ("Prefix", -3),
            ("Parity", 0),
            ("3-Way Marginals", 0),
            ("AllMarginals", 0),
            ("Prefix", 7500),
            ("Histogram", 8.9),
            ("Histogram", True),
        ],
    )
    def test_bad_domain_size_gets_400(self, live, workload, domain_size):
        _, client = live
        with pytest.raises(ServiceHTTPError, match="domain|entry limit") as error:
            client.create_campaign(
                "bad",
                workload=workload,
                domain_size=domain_size,
                epsilon=1.0,
                mechanism="Randomized Response",
            )
        assert error.value.status == 400
        assert client.campaigns() == []

    def test_optimized_with_zero_iterations_gets_400_naming_the_field(self, live):
        _, client = live
        with pytest.raises(ServiceHTTPError, match="num_iterations") as error:
            client.create_campaign(
                "opt",
                workload="Histogram",
                domain_size=4,
                epsilon=1.0,
                mechanism="Optimized",
                iterations=0,
            )
        assert error.value.status == 400

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("name", ["demo"], "campaign name"),
            ("workload", ["Histogram"], "workload must be a string"),
            ("mechanism", ["Hadamard"], "mechanism"),
            ("iterations", "abc", "iterations must be an integer"),
            ("iterations", None, "iterations must be an integer"),
            ("iterations", 2.7, "iterations must be an integer"),
            ("iterations", True, "iterations must be an integer"),
            ("epsilon", float("nan"), "epsilon must be a finite number"),
            ("epsilon", "1.0", "epsilon must be a finite number"),
            # Campaigns have one strategy: an old client's multi-round plan
            # must not create a campaign at the full epsilon per user.
            ("adaptive", {"rounds": 2}, "unknown campaign field.*'adaptive'"),
            ("rounds", 2, "unknown campaign field.*'rounds'"),
            # A misspelt or miscased option must not fall back to its default.
            ("mechansim", "Hadamard", "unknown campaign field.*'mechansim'"),
            ("iteration", 500, "unknown campaign field.*'iteration'"),
            ("Epsilon", 2.0, "unknown campaign field.*'Epsilon'"),
            ("domainsize", 8, "unknown campaign field.*'domainsize'"),
        ],
    )
    def test_bad_campaign_field_gets_400_naming_it(self, live, field, value, match):
        _, client = live
        body = {
            "name": "bad",
            "workload": "Histogram",
            "domain_size": 8,
            "epsilon": 1.0,
            "mechanism": "Randomized Response",
        }
        body[field] = value
        with pytest.raises(ServiceHTTPError, match=match) as error:
            client._request("POST", "/v1/campaigns", body)
        assert error.value.status == 400
        assert client.campaigns() == []

    def test_sdk_sends_exactly_the_campaign_fields(self, live):
        """Campaign creation refuses unknown fields, so the SDK's body and
        the accepted set must agree."""
        from repro.service.server import _CAMPAIGN_FIELDS

        service, client = live
        sent = []
        request = client._request

        def recording_request(method, path, body=None, **options):
            sent.append(body)
            return request(method, path, body, **options)

        client._request = recording_request
        client.create_campaign(
            "opt",
            workload="Prefix",
            domain_size=4,
            epsilon=1.0,
            mechanism="Optimized",
            iterations=20,
        )
        assert set(sent[0]) == _CAMPAIGN_FIELDS
        assert service.manager.get("opt").session.strategy.domain_size == 4

    def test_checkpoint_endpoint_requires_directory(self, live):
        _, client = live
        with pytest.raises(ServiceError, match="checkpoint"):
            client.checkpoint()


class TestForgedStrategy:
    @pytest.mark.parametrize("epsilon", ["800", "1e309"])
    def test_sdk_refuses_identity_published_at_huge_epsilon(
        self, monkeypatch, epsilon
    ):
        # e^800 overflows to inf, and json.loads reads 1e309 as inf: the
        # identity's infinite ratio must still be refused, so no reporter
        # ever sends a raw value.
        document = json.loads(
            f'{{"name": "Forged", "epsilon": {epsilon}, '
            f'"probabilities": {json.dumps(np.eye(4).tolist())}}}'
        )
        client = ServiceClient("127.0.0.1", 1)
        monkeypatch.setattr(client, "_strategy_document", lambda name: document)
        with pytest.raises(PrivacyViolationError):
            client.strategy("demo")
        with pytest.raises(PrivacyViolationError):
            client.reporter("demo")


class TestBinaryTransport:
    def test_binary_and_json_reports_fold_identically(self, live):
        _, client = live
        make_campaign(client)
        binary = ServiceClient(client.host, client.port, transport="binary")
        reports = list(np.random.default_rng(0).integers(0, 8, size=400))
        response = binary.send_reports("demo", reports)
        assert response["accepted"] == 400
        assert response["campaign"] == "demo"
        client.send_reports("demo", reports)
        answer = client.query("demo", sync=True)
        assert answer["num_reports"] == 800
        binary.close()

    def test_multi_frame_body_accepted_per_campaign(self, live):
        _, client = live
        from repro.service import encode_reports

        make_campaign(client)
        make_campaign(client, name="other")
        body = (
            encode_reports("demo", [0, 1])
            + encode_reports("other", [2])
            + encode_reports("demo", [0, 0, 0])
        )
        response = client._request("POST", "/v1/reports", raw=body)
        assert response["accepted"] == 6
        assert response["campaigns"] == {"demo": 5, "other": 1}
        assert "campaign" not in response
        assert client.query("demo", sync=True)["num_reports"] == 5
        assert client.query("other", sync=True)["num_reports"] == 1

    def test_histogram_bodies_are_400s_counted_once(self, live):
        """The retired pre-aggregated kind: a kind-2 frame and a JSON
        'histogram' body are each refused and count as one rejected
        batch; edges forward partials instead."""
        from tests.service.test_framing import legacy_histogram_frame

        service, client = live
        make_campaign(client)
        refusals = [
            (
                dict(raw=legacy_histogram_frame("demo", [3.0] + [0.0] * 7)),
                "unknown frame kind 2",
            ),
            (
                dict(body={"campaign": "demo", "histogram": [3.0] + [0.0] * 7}),
                "'histogram' bodies",
            ),
        ]
        for index, (body, match) in enumerate(refusals, start=1):
            with pytest.raises(ServiceHTTPError, match=match) as info:
                client._request("POST", "/v1/reports", **body)
            assert info.value.status == 400
            assert service.pipeline.stats.rejected_batches == index
        assert client.query("demo")["num_reports"] == 0

    def test_binary_validation_errors_are_400s(self, live):
        _, client = live
        from repro.service import encode_reports

        make_campaign(client)
        with pytest.raises(ServiceError, match="unknown campaign"):
            client._request(
                "POST", "/v1/reports", raw=encode_reports("ghost", [1])
            )
        with pytest.raises(ServiceError, match="output range"):
            client._request(
                "POST", "/v1/reports", raw=encode_reports("demo", [99])
            )
        with pytest.raises(ServiceError, match="magic"):
            client._request("POST", "/v1/reports", raw=b"not a frame at all")
        with pytest.raises(ServiceError, match="/v1/reports"):
            client._request(
                "POST", "/v1/report", raw=encode_reports("demo", [1])
            )
        assert client.query("demo", sync=True)["num_reports"] == 0

    def test_client_rejects_unknown_transport(self, live):
        _, client = live
        with pytest.raises(ServiceError, match="transport"):
            ServiceClient(client.host, client.port, transport="carrier-pigeon")


class TestRoundTags:
    """A campaign has no rounds.  A batch tagged with a nonzero round (JSON
    ``round`` or frame byte 7) was randomized for a multi-round campaign's
    cohort: a 400 that folds nothing, on the root and on the edge alike.
    (Partials, which only the root accepts, are covered in
    ``test_edge.py``.)"""

    @pytest.fixture(params=["root", "edge"])
    def tier(self, request, live):
        """``(tier name, client, reports folded into "demo")``."""
        service, client = live
        make_campaign(client)
        if request.param == "root":
            yield "root", client, lambda: service.manager.get("demo").num_reports
            return
        from repro.service import EdgeAggregator

        edge = EdgeAggregator(client.host, client.port, forward_interval=600.0)
        thread = ServiceThread(edge)
        host, port = thread.start()
        edge_client = ServiceClient(host, port)
        try:
            yield "edge", edge_client, (
                lambda: edge.manager.get("demo").accumulator.num_reports
            )
        finally:
            edge_client.close()
            thread.stop()

    @pytest.mark.parametrize(
        "path,body",
        [
            ("/v1/reports", {"campaign": "demo", "reports": [1], "round": 1}),
            ("/v1/report", {"campaign": "demo", "report": 1, "round": 2}),
            ("/v1/reports", {"campaign": "demo", "reports": [1], "round": -1}),
            ("/v1/reports", {"campaign": "demo", "reports": [1], "round": True}),
            ("/v1/reports", {"campaign": "demo", "reports": [1], "round": "1"}),
            ("/v1/reports", ("demo", [1, 2], 1)),
            ("/v1/reports", ("demo", [1, 2], 255)),
            ("/v1/reports", (("demo", [1]), ("demo", [2], 1))),
        ],
        ids=[
            "json-round-1",
            "json-single-round-2",
            "json-negative",
            "json-bool",
            "json-string",
            "frame-byte-1",
            "frame-byte-255",
            "frame-stream-second-tagged",
        ],
    )
    def test_round_tagged_batches_get_400_and_fold_nothing(self, tier, path, body):
        from repro.service import encode_reports
        from tests.service.test_framing import round_tagged_frame

        _, client, folded = tier
        if isinstance(body, dict):
            request = {"body": body}
        elif isinstance(body[0], str):
            request = {"raw": round_tagged_frame(*body)}
        else:  # an untagged frame, then a tagged one, in one body
            untagged, tagged = body
            request = {
                "raw": encode_reports(*untagged) + round_tagged_frame(*tagged)
            }
        with pytest.raises(ServiceHTTPError, match="round") as info:
            client._request("POST", path, **request)
        assert info.value.status == 400
        assert folded() == 0

    def test_untagged_and_zero_round_batches_fold(self, tier):
        from repro.service import encode_reports

        _, client, folded = tier
        for body in (
            {"campaign": "demo", "reports": [1]},
            {"campaign": "demo", "reports": [2], "round": 0},
            {"campaign": "demo", "reports": [3], "round": None},
        ):
            client._request("POST", "/v1/reports", body)
        client._request("POST", "/v1/reports", raw=encode_reports("demo", [4, 5]))
        assert folded() == 5

    @pytest.mark.parametrize("transport", ["json", "binary"])
    def test_reporter_batches_carry_no_round_tag(self, tier, transport):
        """A reporter fetches the one strategy and ships untagged batches,
        which fold on either tier."""
        _, client, folded = tier
        sender = ServiceClient(client.host, client.port, transport=transport)
        batches = []
        request = sender._request

        def recording_request(method, path, body=None, **options):
            if path == "/v1/reports":
                batches.append(options.get("raw") or body)
            return request(method, path, body, **options)

        sender._request = recording_request
        try:
            reporter = sender.reporter(
                "demo", batch_size=4, rng=np.random.default_rng(0)
            )
            reporter.report_many([0, 1, 2, 3, 4, 5, 6, 7, 7, 7])
            reporter.flush_all()
        finally:
            sender.close()
        assert len(batches) == 3
        if transport == "json":
            assert all("round" not in body for body in batches)
        else:
            assert all(frame[7] == 0 for frame in batches)
        assert folded() == 10

    def test_advance_route_is_gone(self, tier):
        """An older client's round advance finds no route on either tier
        (the root takes no POST on a campaign but ``/partials``), and the
        campaign it names describes no round state."""
        name, client, folded = tier
        client._request("POST", "/v1/reports", {"campaign": "demo", "reports": [1]})
        with pytest.raises(ServiceHTTPError) as info:
            client._request("POST", "/v1/campaigns/demo/advance", {})
        assert info.value.status == {"root": 405, "edge": 404}[name]
        described = client.campaign("demo")
        assert not {"round", "current_round", "adaptive"} & set(described)
        assert folded() == 1


class TestTransportPolicy:
    @pytest.fixture
    def restricted(self, request):
        service = CollectionService(transport=request.param)
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        make_campaign(client)
        try:
            yield client
        finally:
            client.close()
            thread.stop()

    @pytest.mark.parametrize("restricted", ["json"], indirect=True)
    def test_json_only_service_rejects_frames(self, restricted):
        from repro.service import encode_reports

        with pytest.raises(ServiceError, match="only json"):
            restricted._request(
                "POST", "/v1/reports", raw=encode_reports("demo", [1])
            )
        assert restricted.send_reports("demo", [1])["accepted"] == 1

    @pytest.mark.parametrize("restricted", ["binary"], indirect=True)
    def test_binary_only_service_rejects_json_ingest(self, restricted):
        from repro.service import encode_reports

        with pytest.raises(ServiceError, match="only binary"):
            restricted.send_reports("demo", [1])
        # Control plane (campaigns, queries) stays JSON even then.
        assert restricted.campaign("demo")["name"] == "demo"
        restricted._request(
            "POST", "/v1/reports", raw=encode_reports("demo", [1, 2])
        )
        assert restricted.query("demo", sync=True)["num_reports"] == 2

    def test_unknown_server_transport_rejected(self):
        with pytest.raises(ServiceError, match="transport"):
            CollectionService(transport="smoke-signals")


class TestReporter:
    def test_client_side_randomization_only_ships_output_ids(self, live):
        _, client = live
        make_campaign(client)
        reporter = client.reporter(
            "demo", batch_size=100, rng=np.random.default_rng(0)
        )
        values = np.random.default_rng(1).integers(0, 8, size=950)
        reporter.report_many(values)
        assert reporter.pending == 50  # 9 full batches shipped
        assert reporter.reports_sent == 900
        reporter.flush_all()
        assert reporter.pending == 0
        answer = client.query("demo", sync=True)
        assert answer["num_reports"] == 950

    def test_reporter_context_manager_flushes(self, live):
        _, client = live
        make_campaign(client)
        with client.reporter("demo", rng=np.random.default_rng(0)) as reporter:
            for value in [1, 2, 3]:
                reporter.report(value)
        assert client.query("demo", sync=True)["num_reports"] == 3

    def test_reporter_rejects_out_of_domain_values(self, live):
        _, client = live
        make_campaign(client)
        reporter = client.reporter("demo")
        with pytest.raises(ServiceError, match="domain"):
            reporter.report(8)

    def test_reporter_refuses_fractional_values(self, live):
        # Truncation would buffer a report for type 2, and for 0 and 3.
        _, client = live
        make_campaign(client)
        reporter = client.reporter("demo")
        with pytest.raises(ServiceError, match="2.9 is not a whole number"):
            reporter.report(2.9)
        with pytest.raises(ServiceError, match="0.5 is not a whole number"):
            reporter.report_many([0.5, 3.99])
        with pytest.raises(ServiceError, match="8 outside domain"):
            reporter.report_many([1, 8])
        assert reporter.pending == 0


class TestUnanswerableWorkload:
    def test_create_refused_and_nothing_registered_or_checkpointed(self, tmp_path):
        service = CollectionService(checkpoint_dir=tmp_path, checkpoint_interval=600.0)
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            with pytest.raises(ServiceError, match="400.*variance matrix"):
                client.create_campaign(
                    "wide",
                    workload="AllRange",
                    domain_size=1024,
                    epsilon=1.0,
                    mechanism="Randomized Response",
                )
            assert client.campaigns() == []
            assert "wide" not in service.manager
            assert not CheckpointStore(tmp_path).exists()
        finally:
            client.close()
            thread.stop(final_checkpoint=False)


class TestAcceptance:
    """The ISSUE's end-to-end criterion, in-process."""

    def test_live_estimates_match_batch_and_survive_crash(self, tmp_path):
        num_reports = 10_000
        service = CollectionService(
            checkpoint_dir=tmp_path,
            checkpoint_interval=600.0,  # only explicit checkpoints
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        client.create_campaign(
            "accept",
            workload="Prefix",
            domain_size=16,
            epsilon=1.0,
            mechanism="Hadamard",
        )

        # 1. ingest >= 10k client-randomized reports through the async path
        reporter = client.reporter(
            "accept", batch_size=1000, rng=np.random.default_rng(0)
        )
        values = np.random.default_rng(1).integers(0, 16, size=num_reports)
        for start in range(0, num_reports, 2500):
            reporter.report_many(values[start : start + 2500])
        reporter.flush_all()

        # 2. live query == ProtocolSession.finalize on the equivalent batch
        answer = client.query("accept", sync=True)
        assert answer["num_reports"] == num_reports
        campaign = service.manager.get("accept")
        batch = campaign.session.finalize(campaign.accumulator)
        assert np.allclose(
            np.asarray(answer["estimates"]), batch.workload_estimates,
            rtol=0, atol=1e-9,
        )

        # 3. checkpoint, kill without a final checkpoint, restart, compare
        client.checkpoint()
        pre_kill = client.query("accept", sync=True)
        client.close()
        thread.stop(final_checkpoint=False)  # simulated crash

        recovered_service = CollectionService(checkpoint_dir=tmp_path)
        assert recovered_service.recovered
        thread2 = ServiceThread(recovered_service)
        host2, port2 = thread2.start()
        client2 = ServiceClient(host2, port2)
        try:
            post_restart = client2.query("accept", sync=True)
            assert post_restart["num_reports"] == pre_kill["num_reports"]
            # bit-identical, not merely close
            assert post_restart["estimates"] == pre_kill["estimates"]
            assert post_restart["lower"] == pre_kill["lower"]
            assert post_restart["upper"] == pre_kill["upper"]
            # and the recovered service keeps ingesting
            client2.send_reports("accept", [0, 1, 2])
            assert (
                client2.query("accept", sync=True)["num_reports"]
                == num_reports + 3
            )
        finally:
            client2.close()
            thread2.stop()

    @pytest.mark.parametrize(
        ("cluster_workers", "transport"),
        [(0, "json"), (0, "binary"), (1, "binary")],
    )
    def test_acked_batch_counted_by_next_query(self, cluster_workers, transport):
        """Ingest folds at ack time: the very next query counts an acked
        batch, without ``sync`` and without polling."""
        service = CollectionService(cluster_workers=cluster_workers)
        with ServiceThread(service) as (host, port):
            client = ServiceClient(host, port, transport=transport)
            make_campaign(client)
            for expected in (4, 8):
                client.send_reports("demo", [0, 1, 2, 3])
                assert client.query("demo")["num_reports"] == expected
            client.close()

    def test_multi_campaign_isolation(self, live):
        _, client = live
        make_campaign(client, "first", domain_size=8)
        make_campaign(client, "second", domain_size=8)
        client.send_reports("first", [0, 0, 0])
        client.send_reports("second", [7])
        assert client.query("first", sync=True)["num_reports"] == 3
        assert client.query("second", sync=True)["num_reports"] == 1
        metrics = client.metrics()
        assert metrics["total_reports"] == 4
        assert metrics["campaigns"]["first"]["num_reports"] == 3


class TestServiceConfig:
    def test_rejects_bad_checkpoint_interval(self):
        with pytest.raises(ServiceError):
            CollectionService(checkpoint_interval=0.0)

    def test_periodic_checkpoints_fire(self, tmp_path):
        service = CollectionService(
            checkpoint_dir=tmp_path, checkpoint_interval=0.05
        )
        thread = ServiceThread(service)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            make_campaign(client)
            import time

            deadline = time.time() + 5.0
            while time.time() < deadline:
                if client.metrics()["checkpoints_written"] >= 2:
                    break
                time.sleep(0.02)
            assert client.metrics()["checkpoints_written"] >= 2
            assert CheckpointStore(tmp_path).exists()
        finally:
            client.close()
            thread.stop()
