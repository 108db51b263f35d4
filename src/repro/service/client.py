"""Client SDK for the collection service.

Privacy lives on this side of the wire: a :class:`CampaignReporter` fetches
the campaign's *public* strategy once, re-validates it locally (column
stochasticity + the epsilon-LDP ratio — a malicious or buggy server cannot
trick the SDK into over-reporting), and randomizes every raw value on the
client.  The server only ever receives output ids; no raw user value leaves
the process that owns it.

The SDK is synchronous (``http.client`` over keep-alive connections) so it
drops into scripts, notebooks, and load generators without an event loop.
Reporting is fire-and-forget with micro-batching: :meth:`CampaignReporter.report`
buffers locally and ships a batch whenever ``batch_size`` reports have
accumulated (or on :meth:`~CampaignReporter.flush` / context-manager exit).
"""

from __future__ import annotations

import base64
import http.client
import json
import random
import time
import urllib.parse

import numpy as np

from repro.exceptions import ProtocolError, ServiceError, ServiceHTTPError
from repro.mechanisms.base import StrategyMatrix
from repro.service.framing import FRAME_CONTENT_TYPE, encode_reports
from repro.telemetry import mint_trace_id

#: Ingest wire formats the SDK can speak.
CLIENT_TRANSPORTS = ("json", "binary")


class ServiceClient:
    """Blocking client for one collection server.

    Control-plane requests (campaigns, queries, health) always speak
    JSON; ``transport="binary"`` switches the ingest hot path
    (:meth:`send_reports`, and every :class:`CampaignReporter` built
    from this client) to the packed frames of
    :mod:`repro.service.framing`, which cost 1-2 bytes per report
    instead of 2-6 characters of JSON.

    Transient failures retry with jittered exponential backoff (the edge
    outbox's 0.25 s-doubling-to-5 s policy), so a worker-recovery blip on
    the server never surfaces to callers: connection errors retry
    idempotent GETs, and HTTP 503 retries *every* method — a 503 means
    the server refused or shed the request before folding it (degraded
    pool, or a WAL-aborted record), so resending cannot double-count.
    Other 5xx retry GETs only.  ``retries=0`` restores fail-fast.

    Examples
    --------
    >>> from repro.service import CollectionService, ServiceThread
    >>> with ServiceThread(CollectionService()) as (host, port):
    ...     client = ServiceClient(host, port)
    ...     client.healthz()["status"]
    'ok'
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8320,
        timeout: float = 30.0,
        *,
        transport: str = "json",
        trace: bool = False,
        retries: int = 3,
        retry_base: float = 0.25,
        retry_cap: float = 5.0,
    ) -> None:
        if transport not in CLIENT_TRANSPORTS:
            raise ServiceError(
                f"unknown transport {transport!r}; "
                f"expected one of {CLIENT_TRANSPORTS}"
            )
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.transport = transport
        self.retries = int(retries)
        self.retry_base = float(retry_base)
        self.retry_cap = float(retry_cap)
        #: With ``trace=True`` every ingest request carries a client-minted
        #: trace id (``X-Repro-Trace``); the id of the most recent send is
        #: kept in :attr:`last_trace_id` for correlation with server spans.
        self.trace = bool(trace)
        self.last_trace_id = ""
        self._connection: http.client.HTTPConnection | None = None

    # -- transport ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        raw: bytes | None = None,
        content_type: str | None = None,
        trace_id: str | None = None,
        raw_response: bool = False,
    ) -> dict | str:
        payload = None
        headers = {}
        if raw is not None:
            payload = raw
            headers["Content-Type"] = content_type or FRAME_CONTENT_TYPE
        elif body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace_id:
            headers["X-Repro-Trace"] = trace_id
        for attempt in range(self.retries + 1):
            if attempt:
                self._backoff(attempt)
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=payload, headers=headers)
                response = self._connection.getresponse()
                data = response.read()
            except (ConnectionError, http.client.HTTPException, OSError):
                # Dropped connection (stale keep-alive, or the server is
                # mid-restart); reconnect and retry, but only idempotent
                # requests — a retried POST of reports could double-count
                # if the server processed the first send before dying.
                self.close()
                if method != "GET" or attempt >= self.retries:
                    raise
                continue
            if attempt < self.retries and (
                response.status == 503
                or (response.status >= 500 and method == "GET")
            ):
                # 503 = the server refused/shed the request before folding
                # it (degraded pool, WAL-aborted record) — safe to resend
                # whatever the method.  Other 5xx retry GETs only.
                continue
            break
        if raw_response:
            if response.status >= 400:
                raise ServiceHTTPError(
                    f"{method} {path} failed ({response.status}): {data[:200]!r}",
                    response.status,
                )
            return data.decode("utf-8")
        try:
            document = json.loads(data) if data else {}
        except json.JSONDecodeError:
            raise ServiceError(
                f"server returned non-JSON response ({response.status})"
            )
        if response.status >= 400:
            raise ServiceHTTPError(
                f"{method} {path} failed ({response.status}): "
                f"{document.get('error', data[:200])}",
                response.status,
            )
        return document

    def _backoff(self, attempt: int) -> None:
        """Jittered exponential backoff before retry ``attempt`` (1-based):
        50-100% of min(cap, base * 2^(attempt-1)) — the edge outbox's
        policy, with jitter so a fleet of retrying clients doesn't stampede
        a recovering server in lockstep."""
        delay = min(self.retry_cap, self.retry_base * (2 ** (attempt - 1)))
        time.sleep(delay * (0.5 + random.random() / 2))

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def prometheus_metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._request(
            "GET", "/v1/metrics?format=prometheus", raw_response=True
        )

    def _mint_trace(self) -> str | None:
        if not self.trace:
            return None
        self.last_trace_id = mint_trace_id()
        return self.last_trace_id

    def create_campaign(
        self,
        name: str,
        *,
        workload: str,
        domain_size: int,
        epsilon: float,
        mechanism: str = "Hadamard",
        iterations: int = 300,
        exist_ok: bool = False,
    ) -> dict:
        """Create a campaign; with ``exist_ok`` an existing campaign with
        the same name is returned instead of raising."""
        body = {
            "name": name,
            "workload": workload,
            "domain_size": domain_size,
            "epsilon": epsilon,
            "mechanism": mechanism,
            "iterations": iterations,
        }
        try:
            return self._request("POST", "/v1/campaigns", body)
        except ServiceError:
            if exist_ok and name in {c["name"] for c in self.campaigns()}:
                return self.campaign(name)
            raise

    def campaigns(self) -> list[dict]:
        return self._request("GET", "/v1/campaigns")["campaigns"]

    def campaign(self, name: str) -> dict:
        return self._request("GET", f"/v1/campaigns/{urllib.parse.quote(name)}")

    def _strategy_document(self, name: str) -> dict:
        return self._request(
            "GET", f"/v1/campaigns/{urllib.parse.quote(name)}/strategy"
        )

    def strategy(self, name: str) -> StrategyMatrix:
        """Fetch a campaign's public strategy, re-validated locally.

        The :class:`StrategyMatrix` constructor re-checks column
        stochasticity and the claimed epsilon-LDP ratio, so the SDK refuses
        to randomize against a matrix that would leak more than promised.
        """
        document = self._strategy_document(name)
        return StrategyMatrix(
            np.asarray(document["probabilities"], dtype=float),
            float(document["epsilon"]),
            name=str(document["name"]),
        )

    def send_reports(self, campaign: str, reports) -> dict:
        """Ship already-randomized output ids (the aggregation-tier path),
        as JSON or a packed binary frame per the client's ``transport``."""
        # The id travels both as the X-Repro-Trace header (adopted by the
        # HTTP edge for its ingest span and the echoed reply) and inside
        # the body/frame (so a cluster worker that decodes the payload can
        # correlate its fold span without the coordinator parsing bodies).
        trace_id = self._mint_trace()
        if self.transport == "binary":
            return self._request(
                "POST",
                "/v1/reports",
                raw=encode_reports(campaign, reports, trace_id=trace_id),
                trace_id=trace_id,
            )
        body = {
            "campaign": campaign,
            "reports": [int(r) for r in np.asarray(reports)],
        }
        if trace_id:
            body["trace"] = trace_id
        return self._request("POST", "/v1/reports", body, trace_id=trace_id)

    def send_partial(
        self, campaign: str, *, edge_id: str, sequence: int, payload: bytes
    ) -> dict:
        """Forward an edge aggregator's partial accumulator upstream.

        ``payload`` is the tagged ``ShardAccumulator.to_bytes`` blob;
        ``sequence`` is the edge's monotonically increasing flush counter.
        The server applies each ``(edge_id, sequence)`` at most once, so a
        retried forward (e.g. after a timeout whose first attempt actually
        landed) is acknowledged as a duplicate instead of double-counting —
        the receipt's ``duplicate``/``last_sequence`` fields say which.
        Raises :class:`~repro.exceptions.ServiceHTTPError` on rejection;
        ``.status`` distinguishes permanent 4xx faults from retryable 5xx.
        """
        trace_id = self._mint_trace()
        body = {
            "edge": edge_id,
            "sequence": int(sequence),
            "accumulator": base64.b64encode(payload).decode("ascii"),
        }
        if trace_id:
            body["trace"] = trace_id
        return self._request(
            "POST",
            f"/v1/campaigns/{urllib.parse.quote(campaign)}/partials",
            body,
            trace_id=trace_id,
        )

    def query(
        self, campaign: str, confidence: float = 0.95, sync: bool = False
    ) -> dict:
        """Current estimates (+ confidence intervals).  The answer counts
        every report acknowledged before the call; ``sync`` is still sent
        for servers that predate ack-time folding."""
        params = urllib.parse.urlencode(
            {
                "campaign": campaign,
                "confidence": confidence,
                "sync": int(bool(sync)),
            }
        )
        return self._request("GET", f"/v1/query?{params}")

    def checkpoint(self) -> dict:
        """Force a checkpoint now."""
        return self._request("POST", "/v1/checkpoint")

    def reporter(
        self,
        campaign: str,
        *,
        batch_size: int = 500,
        rng: np.random.Generator | None = None,
    ) -> "CampaignReporter":
        """A local randomizer + batcher bound to one campaign."""
        return CampaignReporter(
            self, campaign, self.strategy(campaign), batch_size=batch_size, rng=rng
        )

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()


class CampaignReporter:
    """Client-side randomization with fire-and-forget batching.

    Parameters
    ----------
    client, campaign:
        Destination service and campaign name.
    strategy:
        The campaign's public strategy (fetched and re-validated by
        :meth:`ServiceClient.reporter`).
    batch_size:
        Buffered reports are shipped whenever this many accumulate.
    rng:
        Randomness source for the local randomizer.
    """

    def __init__(
        self,
        client: ServiceClient,
        campaign: str,
        strategy: StrategyMatrix,
        *,
        batch_size: int = 500,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        self.client = client
        self.campaign = campaign
        self.strategy = strategy
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng()
        self._buffer: list[int] = []
        self.reports_sent = 0

    @property
    def pending(self) -> int:
        """Reports randomized but not yet shipped."""
        return len(self._buffer)

    def report(self, value: int) -> None:
        """Randomize one raw value locally and buffer the report."""
        try:
            response = self.strategy.sample_response(value, self.rng)
        except ProtocolError as error:
            raise ServiceError(str(error)) from error
        self._buffer.append(response)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def report_many(self, values) -> None:
        """Randomize a batch of raw values (vectorized sampler)."""
        try:
            responses = self.strategy.sample_responses(values, self.rng)
        except ProtocolError as error:
            raise ServiceError(str(error)) from error
        self._buffer.extend(int(r) for r in responses)
        while len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Ship one batch of buffered reports; returns how many were sent.

        The batch leaves the buffer only after the send succeeds, so a
        transient failure keeps the reports for a later retry rather than
        silently dropping them.  (If a send raised *after* the server
        processed it, retrying can double-count — the wire protocol has no
        report ids; keeping the data is the lesser evil.)
        """
        if not self._buffer:
            return 0
        batch = self._buffer[: self.batch_size]
        self.client.send_reports(self.campaign, batch)
        del self._buffer[: len(batch)]
        self.reports_sent += len(batch)
        return len(batch)

    def flush_all(self) -> int:
        """Ship everything buffered, however many batches it takes."""
        total = 0
        while self._buffer:
            total += self.flush()
        return total

    def __enter__(self) -> "CampaignReporter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.flush_all()
