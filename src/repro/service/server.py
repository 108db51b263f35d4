"""Always-on collection server: asyncio JSON-over-HTTP, stdlib only.

The server turns the batch protocol engine into a standing deployment:
campaigns are created over HTTP, privatized reports fold into the live
accumulators as they are acknowledged, estimates are queryable while
collection is in flight, and periodic atomic checkpoints make a crash lose
at most the reports since the last checkpoint (a graceful shutdown loses
nothing; with a WAL, a crash loses nothing either).

Endpoints (all JSON):

====== ================================ =======================================
method path                             purpose
====== ================================ =======================================
POST   ``/v1/campaigns``                create a campaign
GET    ``/v1/campaigns``                list campaigns
GET    ``/v1/campaigns/<name>``         one campaign's summary
GET    ``/v1/campaigns/<name>/strategy`` the public strategy matrix (clients
                                        randomize locally against it)
POST   ``/v1/report``                   one privatized report
POST   ``/v1/reports``                  a batch of reports (JSON, or
                                        binary report frames)
POST   ``/v1/campaigns/<name>/partials`` an edge's sealed accumulator,
                                        applied once per (edge, sequence)
GET    ``/v1/query``                    current estimates + confidence
                                        intervals (``?campaign=&confidence=``;
                                        every acked report is counted, so
                                        the legacy ``&sync=1`` changes
                                        nothing)
POST   ``/v1/checkpoint``               force a checkpoint now
GET    ``/v1/metrics``                  ingest/checkpoint/uptime counters,
                                        latency percentiles
                                        (``?format=prometheus`` for the text
                                        exposition format)
GET    ``/v1/healthz``                  liveness + library version
====== ================================ =======================================

The server never sees a raw user value: ``/v1/report`` carries *output ids*
already randomized on the client against the public strategy (see
:mod:`repro.service.client`).  The HTTP layer is a deliberately minimal
HTTP/1.1 implementation over :func:`asyncio.start_server` — enough for the
SDK, ``curl``, and load tests, with keep-alive and bounded request bodies —
so the service stays stdlib-only.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro._version import __version__
from repro.exceptions import ClusterDegradedError, ReproError, ServiceError
from repro.protocol.engine import ShardAccumulator
from repro.service.campaigns import CampaignManager, validate_campaign_name
from repro.service.checkpoint import CheckpointStore
from repro.service.cluster import (
    DEFAULT_RESTART_LIMIT,
    DEFAULT_START_METHOD,
    WorkerPool,
)
from repro.service.framing import FRAME_CONTENT_TYPE
from repro.service.ingest import (
    IngestPipeline,
    IngestStats,
    fold_frame_body,
    fold_json_body,
)
from repro.service.wal import (
    DEFAULT_SEGMENT_BYTES,
    KIND_ABORT,
    KIND_FRAMES,
    KIND_JSON_BATCH,
    KIND_JSON_SINGLE,
    KIND_PARTIAL,
    WalRecord,
    WriteAheadLog,
)
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
)
from repro.telemetry.tracing import Tracer, is_trace_id, mint_trace_id

_LOG = get_logger(__name__)

#: Ingest wire formats the service can be restricted to.
TRANSPORTS = ("json", "binary", "both")

#: Largest accepted request body (10 MiB ≈ a 1.3M-report JSON batch).
MAX_BODY_BYTES = 10 << 20

#: The fields a campaign-creation body may carry.
_CAMPAIGN_FIELDS = frozenset(
    ("name", "workload", "domain_size", "epsilon", "mechanism", "iterations")
)

#: Largest accepted request line + headers.
MAX_HEADER_BYTES = 64 << 10

#: Requests slower than this log a structured warning with their route,
#: status, duration and trace id.
SLOW_REQUEST_SECONDS = 1.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class _Request:
    method: str
    path: str
    params: dict[str, str]
    #: The request body, undecoded.  Ingest handlers in cluster mode ship
    #: it to a worker verbatim; everything else parses it via :meth:`json`.
    raw: bytes
    content_type: str
    #: Trace id adopted from an ``X-Repro-Trace`` request header ("" when
    #: absent); the edge mints a fresh one for ingest requests without it.
    trace: str = ""

    @property
    def is_frame(self) -> bool:
        return self.content_type == FRAME_CONTENT_TYPE

    def json(self) -> dict:
        """Parse the body as a JSON object (empty body = empty object)."""
        if not self.raw:
            return {}
        try:
            body = json.loads(self.raw)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return body


class _HttpError(Exception):
    """An error that maps straight to an HTTP status + JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _RawResponse:
    """A non-JSON response body (the Prometheus text exposition)."""

    body: bytes
    content_type: str


def _route_label(path: str) -> str:
    """Collapse campaign names out of paths so the per-route metric label
    set stays bounded no matter how many campaigns exist."""
    if path.startswith("/v1/campaigns/"):
        parts = path.split("/")
        if len(parts) > 4:
            return "/v1/campaigns/{name}/" + parts[4]
        return "/v1/campaigns/{name}"
    return path


async def _fold_here(
    pipeline: IngestPipeline, kind: int, raw: bytes, trace_id: str = ""
) -> dict[str, int]:
    """Fold one ingest body (a WAL body kind) in this process."""
    if kind == KIND_FRAMES:
        return await fold_frame_body(pipeline, raw, trace_id)
    return await fold_json_body(pipeline, raw, kind == KIND_JSON_SINGLE, trace_id)


class HttpTier:
    """Shared HTTP/1.1 plumbing and ingest endpoints for the service tiers.

    Both the root :class:`CollectionService` and the
    :class:`~repro.service.edge.EdgeAggregator` speak the same minimal
    keep-alive HTTP dialect; this base owns the listener, the
    per-connection read/parse/respond loop, the per-route request/latency
    metrics, and the endpoints every tier serves the same way:
    ``/v1/report``, ``/v1/reports`` (folded by :attr:`pipeline`; the root
    adds its own steps by overriding :meth:`_fold_body`) and
    ``/v1/metrics``.  Subclasses implement :meth:`_route` for the rest,
    :meth:`_metrics` for the JSON metrics document, and ``start``,
    ``stop`` and ``_banner`` for :func:`run_service`.
    """

    #: Folds ingest bodies in this process (``None`` on a root that
    #: dispatches them to cluster workers instead).
    pipeline: IngestPipeline | None = None

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        tracing: bool = True,
    ) -> None:
        self.registry = registry
        self.tracer = Tracer(registry, enabled=tracing)
        self.requests_served = 0
        self.started_at: float | None = None
        self._started_monotonic: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._m_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status.",
            labelnames=("path", "status"),
        )
        self._m_request_seconds = registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by route.",
            labelnames=("path",),
        )
        self._m_ingest_latency = registry.histogram(
            "repro_ingest_latency_seconds",
            "End-to-end latency of ingest requests (decode + validate + "
            "fold; on the root also the WAL append and cluster dispatch).",
        )
        uptime = registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the listener started (monotonic clock).",
        )
        assert isinstance(uptime, Gauge)
        uptime.set_function(self._uptime)

    def _uptime(self) -> float:
        """Monotonic uptime: immune to NTP steps and wall-clock changes."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    async def _start_listener(self, host: str, port: int) -> tuple[str, int]:
        if self._server is not None:
            raise ServiceError("service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    # -- shared routes -----------------------------------------------------

    async def _dispatch(self, request: _Request) -> tuple[int, dict]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/v1/metrics" and method == "GET":
            return await self._metrics_response(request.params.get("format", "json"))
        if path == "/v1/report" and method == "POST":
            if request.is_frame:
                raise _HttpError(400, "binary ingest frames go to /v1/reports")
            return await self._ingest(request, KIND_JSON_SINGLE)
        if path == "/v1/reports" and method == "POST":
            kind = KIND_FRAMES if request.is_frame else KIND_JSON_BATCH
            return await self._ingest(request, kind)
        return await self._route(request, method, path)

    async def _route(
        self, request: _Request, method: str, path: str
    ) -> tuple[int, dict]:
        raise NotImplementedError  # pragma: no cover - abstract

    async def _ingest(self, request: _Request, kind: int) -> tuple[int, dict]:
        """``/v1/report(s)``: fold one body (``kind`` is its WAL body kind)
        inside an ``ingest`` span, then acknowledge it.  The fold has
        happened by the time the 200 is sent."""
        trace_id = self._mint_trace(request)
        started = time.perf_counter()
        with self.tracer.span("ingest", trace_id=trace_id) as span:
            span.set_attribute("transport", "binary" if kind == KIND_FRAMES else "json")
            per_campaign = await self._fold_body(kind, request.raw, trace_id, span)
        self._m_ingest_latency.observe(time.perf_counter() - started)
        payload = {"accepted": sum(per_campaign.values()), "campaigns": per_campaign}
        if trace_id:
            payload["trace"] = trace_id
        if len(per_campaign) == 1:
            payload["campaign"] = next(iter(per_campaign))
        return 200, payload

    async def _fold_body(
        self, kind: int, raw: bytes, trace_id: str, span
    ) -> dict[str, int]:
        """Fold one ingest body with :attr:`pipeline`; returns
        per-campaign accepted counts."""
        with span.child("dispatch"):
            return await _fold_here(self.pipeline, kind, raw, trace_id)

    async def _metrics_response(self, fmt: str) -> tuple[int, dict]:
        if fmt == "prometheus":
            sections = [self.registry, *await self._scrape_registries()]
            global_registry = get_registry()
            if global_registry is not self.registry:
                sections.append(global_registry)
            return 200, _RawResponse(
                render_prometheus(*sections).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if fmt != "json":
            raise _HttpError(
                400, f"unknown metrics format {fmt!r}; use json or prometheus"
            )
        return 200, await self._metrics()

    async def _scrape_registries(self) -> list[MetricsRegistry]:
        """Point-in-time registries built per Prometheus scrape, rendered
        between the tier's own registry and the process-global one (whose
        families the optimizer drivers and campaign manager record)."""
        return []

    async def _metrics(self) -> dict:
        """The ``/v1/metrics`` JSON fields every tier reports; tiers add
        their own."""
        return {
            "uptime_seconds": self._uptime(),
            "requests_served": self.requests_served,
            "ingest": self.pipeline.stats.to_json() if self.pipeline else {},
            "telemetry": self.registry.to_json(),
        }

    async def _close_listener(self) -> None:
        """Stop accepting and reap every open connection (idle keep-alive
        connections hold parked handler tasks)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                malformed = None
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    # The request never parsed; answer once, then drop the
                    # connection (its framing can no longer be trusted).
                    malformed = error
                    request = None
                if request is None and malformed is None:
                    break
                self.requests_served += 1
                started = time.perf_counter()
                if malformed is not None:
                    status, payload = malformed.status, {"error": str(malformed)}
                else:
                    try:
                        status, payload = await self._dispatch(request)
                    except _HttpError as error:
                        status, payload = error.status, {"error": str(error)}
                    except ClusterDegradedError as error:
                        # A dead worker is a server-side failure, not a
                        # client fault: 503 so retry layers and monitors
                        # classify it correctly.
                        status, payload = 503, {"error": str(error)}
                    except ReproError as error:
                        status, payload = 400, {"error": str(error)}
                    except Exception as error:  # pragma: no cover - defense
                        status, payload = 500, {"error": f"internal error: {error}"}
                if isinstance(payload, _RawResponse):
                    body = payload.body
                    content_type = payload.content_type
                else:
                    body = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "\r\n"
                    ).encode("ascii")
                    + body
                )
                await writer.drain()
                self._observe_request(request, malformed, status, started)
                if malformed is not None:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _observe_request(
        self,
        request: _Request | None,
        malformed: _HttpError | None,
        status: int,
        started: float,
    ) -> None:
        duration = time.perf_counter() - started
        route = (
            _route_label(request.path) if request is not None else "malformed"
        )
        requests = self._m_requests.labels(route, str(status))
        requests.inc()  # type: ignore[union-attr]
        seconds = self._m_request_seconds.labels(route)
        assert isinstance(seconds, Histogram)
        seconds.observe(duration)
        if malformed is not None:
            _LOG.warning(
                "malformed request rejected",
                extra={"status": status, "error": str(malformed)},
            )
        if duration > SLOW_REQUEST_SECONDS:
            _LOG.warning(
                "slow request",
                extra={
                    "path": route,
                    "status": status,
                    "duration_seconds": round(duration, 6),
                    "trace_id": request.trace if request is not None else "",
                },
            )

    @staticmethod
    async def _read_request(reader) -> _Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request headers too large")
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "Content-Length is not an integer")
        if length < 0:
            raise _HttpError(400, "Content-Length is negative")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body of {length} bytes too large")
        raw = await reader.readexactly(length) if length else b""
        content_type = headers.get("content-type", "").split(";")[0].strip().lower()
        trace = headers.get("x-repro-trace", "")
        parsed = urllib.parse.urlsplit(target)
        params = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return _Request(
            method=method,
            path=parsed.path,
            params=params,
            raw=raw,
            content_type=content_type,
            trace=trace if is_trace_id(trace) else "",
        )

    def _mint_trace(self, request: _Request) -> str:
        """The tier's trace id: adopt the client's, else mint one here.

        Written back onto the request so the slow-request log line can
        correlate with the spans the trace produced.
        """
        if not self.tracer.enabled:
            return ""
        if not request.trace:
            request.trace = mint_trace_id()
        return request.trace


class CollectionService(HttpTier):
    """The long-running service: manager + ingest + checkpoints + HTTP.

    Parameters
    ----------
    manager:
        Campaign registry to serve; defaults to a fresh one, or to the
        recovered state when ``checkpoint_dir`` holds a checkpoint.
    checkpoint_dir:
        Directory for periodic atomic checkpoints; ``None`` disables
        persistence.  If it already contains a checkpoint, the service
        recovers from it on construction (crash recovery).
    checkpoint_interval:
        Seconds between automatic checkpoints.
    store:
        Optional :class:`~repro.store.StrategyStore` used when campaigns
        are created with ``mechanism="store"`` or ``"Optimized"``.
    cluster_workers:
        ``K > 0`` runs the multi-process scale-out tier: report batches
        are dispatched to ``K`` worker processes
        (:class:`~repro.service.cluster.WorkerPool`), each folding into
        its own shard accumulators; queries and checkpoints merge the
        worker shards (bit-identical to the in-process fold).  ``0`` (the
        default) folds in this process.
    transport:
        Which ingest wire formats to accept on ``/v1/report(s)``:
        ``"json"``, ``"binary"`` (the framed format of
        :mod:`repro.service.framing`), or ``"both"`` (default).  Control
        endpoints always speak JSON.
    cluster_start_method:
        ``multiprocessing`` start method for the worker processes.
    registry:
        Metrics registry the service (and its pipeline/tracer) registers
        into; defaults to a fresh per-service registry so two services in
        one process never share counters.  ``GET /v1/metrics`` renders
        this registry — plus the process-global one the optimizer drivers
        use — as JSON or Prometheus text.
    tracing:
        When true (default), ingest requests mint a trace id at the edge
        and each stage (dispatch/decode/fold) records a child span.
    wal_dir:
        Directory for the ingest write-ahead log (requires
        ``checkpoint_dir``).  When set, every accepted ingest body is
        appended + fsynced *before* the 200 is sent, checkpoints cut and
        truncate the log, and recovery replays the uncovered suffix — so
        a crash loses **zero** acked reports (down from everything since
        the last periodic checkpoint).  In cluster mode a WAL also turns
        on worker supervision: dead workers are respawned and their
        shards rebuilt from checkpoint + WAL replay instead of degrading
        the pool (see :mod:`repro.service.wal` and
        :mod:`repro.service.cluster`).
    wal_segment_bytes:
        Segment rotation size.
    worker_restart_limit:
        Respawns allowed per worker before a supervised pool degrades.
    """

    def __init__(
        self,
        manager: CampaignManager | None = None,
        *,
        checkpoint_dir=None,
        checkpoint_interval: float = 30.0,
        store=None,
        cluster_workers: int = 0,
        transport: str = "both",
        cluster_start_method: str = DEFAULT_START_METHOD,
        registry: MetricsRegistry | None = None,
        tracing: bool = True,
        wal_dir=None,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        worker_restart_limit: int = DEFAULT_RESTART_LIMIT,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ServiceError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        if transport not in TRANSPORTS:
            raise ServiceError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if cluster_workers < 0:
            raise ServiceError(
                f"cluster_workers must be >= 0, got {cluster_workers}"
            )
        if wal_dir is not None and checkpoint_dir is None:
            raise ServiceError(
                "a WAL needs a checkpoint to replay on top of: "
                "wal_dir requires checkpoint_dir"
            )
        super().__init__(
            registry if registry is not None else MetricsRegistry(),
            tracing=tracing,
        )
        self.wal = (
            WriteAheadLog(wal_dir, segment_bytes=wal_segment_bytes)
            if wal_dir is not None
            else None
        )
        self.checkpoints = (
            CheckpointStore(checkpoint_dir, registry=self.registry)
            if checkpoint_dir is not None
            else None
        )
        self.recovered = False
        if manager is None:
            if self.checkpoints is not None and self.checkpoints.exists():
                manager = self.checkpoints.load()
                self.recovered = True
            else:
                manager = CampaignManager()
        self.manager = manager
        self.store = store
        self.checkpoint_interval = checkpoint_interval
        self.transport = transport
        if cluster_workers > 0:
            self.pool: WorkerPool | None = WorkerPool(
                cluster_workers,
                start_method=cluster_start_method,
                wal=self.wal,
                restart_limit=worker_restart_limit,
            )
        else:
            self.pipeline = IngestPipeline(
                manager, registry=self.registry, tracer=self.tracer
            )
            self.pool = None
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        self.last_checkpoint_at: float | None = None
        self._checkpoint_task: asyncio.Task | None = None
        self._checkpoint_lock = asyncio.Lock()
        # WAL admission gate: a checkpoint cut closes it, waits for the
        # in-flight appended-but-unacked requests to settle, captures the
        # cut, then reopens.  Requests only ever *wait* at the gate — never
        # fail — so the cut is invisible to clients beyond latency.
        self._wal_gate_open = asyncio.Event()
        self._wal_gate_open.set()
        self._wal_inflight = 0
        self._wal_idle = asyncio.Event()
        self._wal_idle.set()
        self.wal_replayed = 0
        self.wal_replay_rejected = 0
        self._register_service_metrics()

    def _register_service_metrics(self) -> None:
        registry = self.registry
        self._m_partials = registry.counter(
            "repro_partials_total",
            "Edge partial forwards received, by outcome "
            "(applied/duplicate/rejected).",
            labelnames=("outcome",),
        )
        self._m_partial_reports = registry.counter(
            "repro_partial_reports_total",
            "Reports folded into campaigns via edge partial forwards.",
        )
        self._m_checkpoints = registry.counter(
            "repro_checkpoints_total", "Checkpoints written successfully."
        )
        self._m_checkpoint_failures = registry.counter(
            "repro_checkpoint_failures_total", "Checkpoint attempts that failed."
        )
        if self.pool is not None:
            alive = registry.gauge(
                "repro_cluster_workers_alive",
                "Worker processes currently alive (of the configured pool).",
            )
            assert isinstance(alive, Gauge)
            pool = self.pool
            alive.set_function(lambda: float(pool.workers_alive))
            restarts = registry.gauge(
                "repro_worker_restarts_total",
                "Worker respawns attempted over the pool's lifetime "
                "(supervised pools only; 0 without a WAL).",
            )
            assert isinstance(restarts, Gauge)
            restarts.set_function(lambda: float(pool.restarts_total))
        if self.wal is not None:
            wal = self.wal
            for name, help_text, getter in (
                (
                    "repro_wal_last_sequence",
                    "Highest WAL sequence assigned so far.",
                    lambda: float(wal.last_sequence),
                ),
                (
                    "repro_wal_appends_total",
                    "Ingest records appended to the WAL.",
                    lambda: float(wal.appends_total),
                ),
                (
                    "repro_wal_fsync_batches_total",
                    "Group-commit fsync batches (appends/batch = batching win).",
                    lambda: float(wal.fsync_batches_total),
                ),
                (
                    "repro_wal_bytes_written_total",
                    "Bytes appended to WAL segments.",
                    lambda: float(wal.bytes_written_total),
                ),
                (
                    "repro_wal_segments",
                    "WAL segment files currently on disk.",
                    lambda: float(wal.segment_count),
                ),
                (
                    "repro_wal_truncations_total",
                    "Checkpoint-covered segment truncations.",
                    lambda: float(wal.truncations_total),
                ),
                (
                    "repro_wal_replayed_records_total",
                    "WAL records re-dispatched (startup replay + worker "
                    "restores).",
                    lambda: float(wal.replayed_records_total),
                ),
            ):
                # Running totals are counters (Prometheus ``rate()`` needs
                # the type); the current sequence and segment count are not.
                if name.endswith("_total"):
                    metric = registry.counter(name, help_text)
                else:
                    metric = registry.gauge(name, help_text)
                assert isinstance(metric, (Counter, Gauge))
                metric.set_function(getter)

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the cluster workers (if any) and the HTTP listener;
        returns the bound ``(host, port)`` (pass ``port=0`` for an
        ephemeral port)."""
        if self._server is not None:
            raise ServiceError("service already started")
        if self.pool is not None:
            await self.pool.start()
            for campaign in self.manager.campaigns():
                # Recovered (or pre-registered) campaigns must exist on
                # every worker before the first report is dispatched.
                await self.pool.open_campaign(
                    campaign.name, campaign.session.num_outputs
                )
        if self.wal is not None:
            # Replay before the listener binds: no request can observe (or
            # interleave with) a half-recovered state.
            await self._recover_wal()
        bound = await self._start_listener(host, port)
        if self.checkpoints is not None:
            self._checkpoint_task = asyncio.create_task(
                self._checkpoint_timer(), name="service-checkpointer"
            )
        _LOG.info(
            "service started",
            extra={
                "host": bound[0],
                "port": bound[1],
                "campaigns": len(self.manager),
                "cluster_workers": (
                    self.pool.num_workers if self.pool is not None else 0
                ),
                "transport": self.transport,
                "recovered": self.recovered,
            },
        )
        return bound[0], bound[1]

    async def stop(self, *, final_checkpoint: bool = True) -> None:
        """Graceful shutdown: stop accepting, then checkpoint.

        The listener and every open connection are torn down *before* the
        final checkpoint, so no report can be acknowledged after it — an
        accepted 200 always means the report is in the final checkpoint.
        (A handler cancelled mid-request surfaces as a dropped connection,
        never a false ack.)

        ``final_checkpoint=False`` skips the checkpoint — the "crash" path
        used by tests to prove recovery from the last periodic checkpoint
        alone.
        """
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            await asyncio.gather(self._checkpoint_task, return_exceptions=True)
            self._checkpoint_task = None
        await self._close_listener()
        if final_checkpoint:
            try:
                await self.checkpoint()
            except ServiceError as error:
                if self.pool is None:
                    raise
                # A dead worker makes a complete final checkpoint
                # impossible; keep the last good one rather than writing
                # a checkpoint with a silent gap.
                _LOG.warning("final checkpoint skipped: %s", error)
        if self.pool is not None:
            await self.pool.stop(graceful=final_checkpoint)
        if self.wal is not None:
            await self.wal.stop()

    async def checkpoint(self) -> dict | None:
        """Write a checkpoint now (no-op without a checkpoint directory).

        Accumulator snapshots are captured here, on the event loop — where
        every fold also runs — before the file I/O moves to a worker
        thread, so a concurrent fold can neither tear a snapshot nor
        desynchronize the manifest's report counts from the payloads.
        """
        if self.checkpoints is None:
            return None
        # Serialize writers: the periodic timer, POST /v1/checkpoint, and
        # campaign creation may all checkpoint concurrently, and two
        # interleaved save_frozen calls could leave the manifest referencing
        # the other save's payload bytes.
        async with self._checkpoint_lock:
            if self.wal is not None:
                return await self._checkpoint_with_wal()
            if self.pool is not None and self.pool.started:
                # Coordinated cluster checkpoint: one manifest atomically
                # covers every worker's shards, merged (via the tagged
                # to_bytes payloads) onto the recovery base.  A worker
                # death surfaces here as ServiceError — no partial
                # manifest is ever written.
                worker_states = await self.pool.snapshots()
                frozen = []
                for campaign in self.manager.campaigns():
                    snapshot = campaign.accumulator.snapshot()
                    extra = worker_states.get(campaign.name)
                    if extra is not None:
                        snapshot = snapshot.merge(extra)
                    frozen.append(
                        (campaign, snapshot, dict(campaign.edge_sequences))
                    )
            else:
                frozen = [
                    (
                        campaign,
                        campaign.accumulator.snapshot(),
                        dict(campaign.edge_sequences),
                    )
                    for campaign in self.manager.campaigns()
                ]
            manifest = await asyncio.to_thread(
                self.checkpoints.save_frozen, frozen
            )
            self.checkpoints_written += 1
            self._m_checkpoints.inc()
            self.last_checkpoint_at = manifest["saved_at"]
            return manifest

    async def _checkpoint_timer(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                await self.checkpoint()
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A transient write failure (ENOSPC, NFS hiccup) must not
                # silently end periodic checkpointing for the process.
                self.checkpoint_failures += 1
                self._m_checkpoint_failures.inc()
                _LOG.warning(
                    "checkpoint failed (will retry in %gs): %s",
                    self.checkpoint_interval,
                    error,
                )

    # -- write-ahead log ---------------------------------------------------

    async def _checkpoint_with_wal(self) -> dict:
        """Checkpoint + WAL *cut*: after this returns, the checkpoint alone
        reproduces every acked report, and the log segments it covers are
        gone.

        Order of operations (each step durable before the next):

        1. close the admission gate and wait out in-flight requests —
           :meth:`_wal_guarded` holds a request's seat across append *and*
           fold, so once the gate is idle every appended record is folded
           and no record can land before the gate reopens;
        2. capture ``S = wal.last_sequence``;
        3. cluster mode: *cut* every worker (serialize + reset its
           accumulators into the campaign recovery base, clearing its
           routed set) — retried transparently over worker deaths;
        4. snapshot the campaigns into the frozen checkpoint, reopen the
           gate (ingest proceeds while the file I/O runs off-loop);
        5. ``save_frozen(..., wal_sequence=S)`` — the manifest records the
           coverage point;
        6. truncate segments ``<= S``.

        A crash before 5 recovers from the *previous* checkpoint and
        replays the whole log (worker cuts folded into the recovery base
        are rebuilt by replay — the records are still on disk).  A crash
        after 5 replays only the suffix past ``S``.  Either way: zero
        acked reports lost.
        """
        self._wal_gate_open.clear()
        try:
            if self._wal_inflight:
                await self._wal_idle.wait()
            cut_sequence = self.wal.last_sequence
            if self.pool is not None and self.pool.started:

                def fold_cut(payloads: dict[str, bytes]) -> None:
                    # Runs per acked worker (on the loop): fold its reset
                    # shards into the recovery base and move their report
                    # counts from "dispatched" to "base".
                    for name, payload in sorted(payloads.items()):
                        campaign = self.manager.get(name)
                        shard = ShardAccumulator.from_bytes(payload)
                        campaign.accumulator = campaign.accumulator.merge(
                            shard
                        )
                        self.pool.accepted_reports[name] = (
                            self.pool.accepted_reports.get(name, 0)
                            - shard.num_reports
                        )

                await self.pool.cut(fold_cut)
            frozen = [
                (
                    campaign,
                    campaign.accumulator.snapshot(),
                    dict(campaign.edge_sequences),
                )
                for campaign in self.manager.campaigns()
            ]
        finally:
            self._wal_gate_open.set()
        manifest = await asyncio.to_thread(
            self.checkpoints.save_frozen, frozen, wal_sequence=cut_sequence
        )
        self.checkpoints_written += 1
        self._m_checkpoints.inc()
        self.last_checkpoint_at = manifest["saved_at"]
        # Only now — with the covering checkpoint durable — do the covered
        # segments go away.  truncate() is loop-synchronous and skips the
        # active segment if anything is pending, so it cannot race appends.
        self.wal.truncate(cut_sequence)
        return manifest

    @contextlib.asynccontextmanager
    async def _wal_admission(self):
        """Hold one ingest request's seat between WAL append and ack, so a
        checkpoint cut can quiesce the append window without failing
        anyone."""
        while not self._wal_gate_open.is_set():
            await self._wal_gate_open.wait()
        self._wal_inflight += 1
        self._wal_idle.clear()
        try:
            yield
        finally:
            self._wal_inflight -= 1
            if self._wal_inflight == 0:
                self._wal_idle.set()

    async def _wal_guarded(self, kind: int, body: bytes, fold, *, campaign=""):
        """The durable ingest sequence: append + fsync, then fold, acking
        only after both.  A failed fold appends an abort tombstone for the
        record before re-raising — the record was never folded, replay must
        skip it, and the client's retry (it got a 4xx/5xx, not an ack)
        cannot double-count."""
        async with self._wal_admission():
            sequence = await self.wal.append(kind, body, campaign=campaign)
            try:
                return await fold(sequence)
            except BaseException:
                with contextlib.suppress(Exception):
                    await self.wal.append_abort(sequence)
                raise

    async def _recover_wal(self) -> None:
        """Scan the log, cut any torn tail, and replay every record past
        the last checkpoint's coverage point (skipping abort-tombstoned
        sequences).  Runs after the pool is up and before the listener
        binds."""
        records = await asyncio.to_thread(self.wal.scan)
        base_sequence = 0
        if self.checkpoints.exists():
            manifest = self.checkpoints.read_manifest()
            base_sequence = int(manifest.get("wal_sequence", 0))
        # A checkpoint that covered every record lets truncation empty the
        # log entirely, so a fresh scan can land *below* the manifest's
        # coverage point.  Seed the counter past it — otherwise new appends
        # would reuse covered sequence numbers and the next recovery would
        # silently skip them.
        if self.wal.last_sequence < base_sequence:
            self.wal.last_sequence = base_sequence
        await self.wal.start()
        aborted = WriteAheadLog.aborted_sequences(records)
        replay = [
            record
            for record in records
            if record.sequence > base_sequence
            and record.kind != KIND_ABORT
            and record.sequence not in aborted
        ]
        for record in replay:
            try:
                await self._replay_record(record)
                self.wal_replayed += 1
            except ReproError as error:
                # It was rejected the first time around too (the abort
                # tombstone for it may sit past a torn tail); recovery
                # must not die on it.
                self.wal_replay_rejected += 1
                _LOG.warning(
                    "WAL replay: record %d rejected: %s",
                    record.sequence,
                    error,
                )
        self.wal.replayed_records_total += len(replay)
        if replay:
            _LOG.info(
                "WAL recovery complete",
                extra={
                    "replayed": self.wal_replayed,
                    "rejected": self.wal_replay_rejected,
                    "base_sequence": base_sequence,
                    "last_sequence": self.wal.last_sequence,
                },
            )

    async def _replay_record(self, record: WalRecord) -> None:
        """Re-fold one WAL record exactly as its original request would
        have (same parse, same validation), tagged with its original
        sequence so cluster routing is tracked for supervision."""
        if record.kind == KIND_PARTIAL:
            body = json.loads(record.body)
            # Idempotent by (edge, sequence): a partial the checkpoint
            # already contains is a duplicate here, not a double-fold.
            self.manager.apply_partial(
                record.campaign,
                edge_id=body["edge"],
                sequence=body["sequence"],
                payload=base64.b64decode(
                    body["accumulator"].encode("ascii"), validate=True
                ),
            )
            return
        await self._fold(record.kind, record.body, wal_seq=record.sequence)

    async def _fold(
        self, kind: int, raw: bytes, trace_id: str = "", wal_seq: int | None = None
    ) -> dict[str, int]:
        """Fold one ingest body in this process, or dispatch it to a
        cluster worker (which parses, validates, and folds it — the
        coordinator never touches the report list) tagged with its WAL
        sequence.  Returns per-campaign accepted counts."""
        if self.pool is None:
            return await _fold_here(self.pipeline, kind, raw, trace_id)
        if kind == KIND_FRAMES:
            reply = await self.pool.submit_frames(
                raw, trace_id=trace_id, wal_seq=wal_seq
            )
        else:
            reply = await self.pool.submit_json(
                raw,
                single=kind == KIND_JSON_SINGLE,
                trace_id=trace_id,
                wal_seq=wal_seq,
            )
        return reply["campaigns"]

    async def _fold_body(
        self, kind: int, raw: bytes, trace_id: str, span
    ) -> dict[str, int]:
        """The root's ingest steps around the fold: the transport check,
        then WAL append + fsync (when durable) and the fold or cluster
        dispatch."""
        self._require_transport("binary" if kind == KIND_FRAMES else "json")

        async def fold(wal_seq: int | None):
            with span.child("dispatch"):
                return await self._fold(kind, raw, trace_id, wal_seq)

        if self.wal is not None:
            return await self._wal_guarded(kind, raw, fold)
        return await fold(None)

    # -- routing -----------------------------------------------------------

    async def _route(
        self, request: _Request, method: str, path: str
    ) -> tuple[int, dict]:
        if path == "/v1/healthz" and method == "GET":
            return self._healthz()
        if path == "/v1/campaigns":
            if method == "POST":
                return await self._create_campaign(request.json())
            if method == "GET":
                return 200, {
                    "campaigns": [
                        self._describe(campaign)
                        for campaign in self.manager.campaigns()
                    ]
                }
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/campaigns/"):
            parts = path.split("/")[3:]
            if method == "POST" and len(parts) == 2 and parts[1] == "partials":
                return await self._apply_partial(parts[0], request)
            return self._campaign_subresource(method, path)
        if path == "/v1/query" and method == "GET":
            return await self._query(request.params)
        if path == "/v1/checkpoint" and method == "POST":
            manifest = await self.checkpoint()
            if manifest is None:
                raise _HttpError(400, "service has no checkpoint directory")
            return 200, {
                "saved_at": manifest["saved_at"],
                "campaigns": sorted(manifest["campaigns"]),
            }
        raise _HttpError(404, f"no route for {method} {path}")

    def _describe(self, campaign) -> dict:
        """A campaign summary with live counts: in cluster mode the
        campaign object holds only the recovery base, so the reports
        dispatched to workers are added on top."""
        summary = campaign.describe()
        if self.pool is not None:
            summary["num_reports"] += self.pool.accepted_reports.get(
                campaign.name, 0
            )
        return summary

    def _campaign_subresource(self, method: str, path: str) -> tuple[int, dict]:
        parts = path.split("/")[3:]  # ['', 'v1', 'campaigns', name, ...]
        if method != "GET" or len(parts) not in (1, 2):
            raise _HttpError(405, f"{method} not allowed on {path}")
        try:
            campaign = self.manager.get(parts[0])
        except ServiceError as error:
            raise _HttpError(404, str(error))
        if len(parts) == 1:
            return 200, self._describe(campaign)
        if parts[1] == "strategy":
            strategy = campaign.session.strategy
            return 200, {
                "campaign": campaign.name,
                "name": strategy.name,
                "epsilon": strategy.epsilon,
                "domain_size": strategy.domain_size,
                "num_outputs": strategy.num_outputs,
                "probabilities": [
                    [float(v) for v in row] for row in strategy.probabilities
                ],
            }
        raise _HttpError(404, f"no campaign subresource {parts[1]!r}")

    # -- handlers ----------------------------------------------------------

    async def _create_campaign(self, body: dict) -> tuple[int, dict]:
        unknown = sorted(set(body) - _CAMPAIGN_FIELDS)
        if unknown:
            # A misspelt option must not silently fall back to its default,
            # and an old client's "adaptive" plan must not create a
            # campaign whose users randomize at the full epsilon.
            raise _HttpError(
                400,
                f"unknown campaign field(s) {unknown}; a campaign takes "
                f"{sorted(_CAMPAIGN_FIELDS)}",
            )
        try:
            name = body["name"]
            workload = body["workload"]
            domain_size = body["domain_size"]
            epsilon = body["epsilon"]
        except (KeyError, TypeError) as error:
            raise _HttpError(
                400,
                "campaign creation needs name, workload, domain_size, "
                f"epsilon ({error})",
            )
        # Every field goes on as sent: CampaignManager.build refuses a wrong
        # type by name (2.7 iterations or an 8.9 domain are not truncated,
        # NaN budgets not accepted).
        validate_campaign_name(name)
        mechanism = body.get("mechanism", "Hadamard")
        iterations = body.get("iterations", 300)
        if name in self.manager:
            raise _HttpError(409, f"campaign {name!r} already exists")
        # Strategy resolution can be slow (PGD); run it off the loop.  The
        # manager itself is only ever mutated here, on the loop (build() is
        # pure), so concurrent listing/metrics handlers never race it.
        campaign = await asyncio.to_thread(
            self.manager.build,
            name,
            workload=workload,
            domain_size=domain_size,
            epsilon=epsilon,
            mechanism=mechanism,
            iterations=iterations,
            store=self.store,
        )
        try:
            self.manager.adopt(campaign)
        except ServiceError:
            # A concurrent create for the same name won the race.
            raise _HttpError(409, f"campaign {name!r} already exists")
        if self.pool is not None:
            await self.pool.open_campaign(
                campaign.name, campaign.session.num_outputs
            )
        await self.checkpoint()
        return 200, self._describe(campaign)

    def _require_transport(self, wire: str) -> None:
        if self.transport not in (wire, "both"):
            raise _HttpError(
                400,
                f"this service accepts only {self.transport} ingest "
                f"(got {wire}; see `repro serve --transport`)",
            )

    async def _apply_partial(self, name: str, request: _Request) -> tuple[int, dict]:
        """Fold an edge aggregator's forwarded partial accumulator.

        Body: ``{"edge": <id>, "sequence": <n>, "accumulator": <base64 of
        the tagged to_bytes payload>}``.  Applied on the event loop via
        :meth:`CampaignManager.apply_partial`, which enforces per-edge
        sequence idempotency; in cluster mode the partial
        merges into the campaign's recovery base, which queries and
        checkpoints already layer worker shards on top of.
        """
        if name not in self.manager:
            raise _HttpError(404, f"unknown campaign {name!r}")
        body = request.json()
        edge_id = body.get("edge")
        sequence = body.get("sequence")
        encoded = body.get("accumulator")
        if edge_id is None or sequence is None or encoded is None:
            raise _HttpError(
                400, "partial forward needs edge, sequence, and accumulator"
            )
        if not isinstance(encoded, str):
            raise _HttpError(400, "accumulator must be a base64 string")
        try:
            payload = base64.b64decode(encoded.encode("ascii"), validate=True)
        except (binascii.Error, ValueError, UnicodeEncodeError) as error:
            raise _HttpError(400, f"accumulator is not valid base64: {error}")
        trace_id = self._mint_trace(request)
        with self.tracer.span("partial", trace_id=trace_id) as span:
            span.set_attribute("campaign", name)
            span.set_attribute("edge", str(edge_id))

            async def fold(wal_seq: int | None):
                # Applied on the loop; apply_partial is idempotent by
                # (edge, sequence), which also makes its WAL replay safe.
                with span.child("merge"):
                    return self.manager.apply_partial(
                        name,
                        edge_id=edge_id,
                        sequence=sequence,
                        payload=payload,
                    )

            try:
                if self.wal is not None:
                    receipt = await self._wal_guarded(
                        KIND_PARTIAL, request.raw, fold, campaign=name
                    )
                else:
                    receipt = await fold(None)
            except ReproError:
                rejected = self._m_partials.labels("rejected")
                rejected.inc()  # type: ignore[union-attr]
                raise
        outcome = "duplicate" if receipt["duplicate"] else "applied"
        counter = self._m_partials.labels(outcome)
        counter.inc()  # type: ignore[union-attr]
        if not receipt["duplicate"]:
            self._m_partial_reports.inc(receipt["accepted"])
        if trace_id:
            receipt["trace"] = trace_id
        return 200, receipt

    async def _query(self, params: dict[str, str]) -> tuple[int, dict]:
        name = params.get("campaign")
        if not name:
            raise _HttpError(400, "query needs ?campaign=<name>")
        try:
            confidence = float(params.get("confidence", "0.95"))
        except ValueError:
            raise _HttpError(400, "confidence must be a float in (0, 1)")
        # ``sync`` is still accepted and always satisfied: an acked report
        # is already folded (a worker replies only after folding, and its
        # pipe is FIFO, so the snapshot below includes every acked batch).
        pending = []
        if self.pool is not None:
            worker_states = await self.pool.snapshots(name)
            if name in worker_states:
                pending.append(worker_states[name])
        try:
            answer = self.manager.query(name, confidence, pending=pending)
        except ServiceError as error:
            raise _HttpError(404, str(error))
        return 200, answer.to_json()

    def _healthz(self) -> tuple[int, dict]:
        workers = self.pool.num_workers if self.pool is not None else 0
        alive = self.pool.workers_alive if self.pool is not None else 0
        # A degraded pool fails every data-plane request, so liveness
        # probes must see it too: non-200 takes the instance out of
        # rotation instead of leaving a dead-in-the-water 200.  A
        # *recovering* supervised pool answers 200 with its state visible:
        # ingest is riding out the blip, there is nothing to evict.
        if self.pool is not None and self.started_at:
            if self.pool.supervised:
                health = self.pool.health
            else:
                health = "degraded" if alive < workers else "healthy"
        else:
            health = "healthy"
        status = {"healthy": "ok", "recovering": "recovering"}.get(
            health, "degraded"
        )
        payload = {
            "status": status,
            "version": __version__,
            "campaigns": len(self.manager),
            "recovered": self.recovered,
            "transport": self.transport,
            "cluster_workers": workers,
            "workers_alive": alive,
            "uptime_seconds": self._uptime(),
        }
        if self.pool is not None:
            payload["worker_restarts"] = self.pool.restarts_total
        if self.wal is not None:
            payload["wal_last_sequence"] = self.wal.last_sequence
        if health == "degraded" and self.pool is not None and self.started_at:
            payload["error"] = (
                f"cluster degraded: {alive}/{workers} workers alive — "
                "restart the service to recover from the last checkpoint"
                + (" + WAL" if self.wal is not None else "")
            )
        return (503 if health == "degraded" else 200), payload

    async def _cluster_ingest_stats(self) -> tuple[dict, dict]:
        """The raw per-worker rows, and their summed ingest counters.  The
        sum is plain addition of commutative counters, so it is
        independent of worker report order."""
        cluster = await self.pool.stats()
        ingest = IngestStats().to_json()
        for row in cluster["workers"]:
            for key, value in row.get("ingest", {}).items():
                ingest[key] = ingest.get(key, 0) + value
        return cluster, ingest

    def _campaign_metrics(self, campaign) -> dict:
        return {
            "num_reports": campaign.num_reports
            + (
                self.pool.accepted_reports.get(campaign.name, 0)
                if self.pool is not None
                else 0
            ),
        }

    async def _metrics(self) -> dict:
        metrics = await super()._metrics()
        if self.pool is not None:
            metrics["cluster"], metrics["ingest"] = await self._cluster_ingest_stats()
        metrics.update(
            {
                # In cluster mode the campaign objects hold only the
                # recovery base; live counts are base + reports dispatched
                # to workers.
                "campaigns": {
                    campaign.name: self._campaign_metrics(campaign)
                    for campaign in self.manager.campaigns()
                },
                "total_reports": self.manager.total_reports()
                + (
                    sum(self.pool.accepted_reports.values())
                    if self.pool is not None
                    else 0
                ),
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_failures": self.checkpoint_failures,
                "last_checkpoint_at": self.last_checkpoint_at,
            }
        )
        if self.wal is not None:
            metrics["wal"] = {
                **self.wal.stats(),
                "startup_replayed": self.wal_replayed,
                "startup_replay_rejected": self.wal_replay_rejected,
            }
        return metrics

    async def _scrape_registries(self) -> list[MetricsRegistry]:
        """One per-scrape registry holding point-in-time campaign gauges
        and, in cluster mode, the order-independent merge of the
        workers' counters and fold histograms."""
        scrape = MetricsRegistry()
        reports = scrape.gauge(
            "repro_campaign_reports",
            "Reports folded per campaign (recovery base + live).",
            labelnames=("campaign",),
        )
        for campaign in self.manager.campaigns():
            row = self._campaign_metrics(campaign)
            reports.labels(campaign.name).set(row["num_reports"])
        if self.pool is not None:
            cluster, ingest = await self._cluster_ingest_stats()
            scrape.counter(
                "repro_ingest_reports_total",
                "Reports folded into worker shard accumulators (all workers).",
            ).inc(ingest["ingested"])
            scrape.counter(
                "repro_ingest_rejected_batches_total",
                "Ingest bodies refused (all workers).",
            ).inc(ingest["rejected_batches"])
            fold = scrape.histogram(
                "repro_ingest_fold_seconds",
                "Per-batch accumulator fold duration (merged across workers).",
            )
            for row in cluster["workers"]:
                snapshot = row.get("fold_seconds")
                if snapshot:
                    fold.merge_snapshot(snapshot)
        return [scrape]

    def _banner(self, host: str, port: int) -> tuple[str, str]:
        """The startup and shutdown lines ``repro serve`` prints."""
        cluster = (
            f", {self.pool.num_workers} worker process(es)"
            if self.pool is not None
            else ""
        )
        return (
            f"repro service listening on http://{host}:{port} "
            f"({len(self.manager)} campaign(s)"
            f"{cluster}, transport {self.transport}"
            f"{', recovered from checkpoint' if self.recovered else ''})",
            "repro service shutting down (final checkpoint)",
        )


async def _serve_forever(tier: HttpTier, host: str, port: int) -> None:
    import signal

    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stopping.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    started, stopped = tier._banner(*await tier.start(host, port))
    print(started, flush=True)
    await stopping.wait()
    print(stopped, flush=True)
    await tier.stop()


def run_service(tier: HttpTier, host: str = "127.0.0.1", port: int = 8320) -> None:
    """Blocking entry point used by ``repro serve`` and ``repro edge``:
    runs the tier until SIGINT or SIGTERM, then stops it gracefully (the
    root checkpoints; an edge forwards its final partials)."""
    asyncio.run(_serve_forever(tier, host, port))


class ServiceThread:
    """Run a :class:`CollectionService` on a background event-loop thread.

    The in-process deployment used by tests, examples, and benchmarks:
    the calling thread keeps a normal synchronous view (and can use the
    blocking :class:`~repro.service.client.ServiceClient`) while the
    service runs on its own loop.

    Examples
    --------
    >>> service = CollectionService()
    >>> with ServiceThread(service) as (host, port):
    ...     isinstance(port, int) and port > 0
    True
    """

    def __init__(
        self, service: CollectionService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self._host_request, self._port_request = host, port
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise ServiceError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.host is not None and self.port is not None
        return self.host, self.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.host, self.port = self._loop.run_until_complete(
                self.service.start(self._host_request, self._port_request)
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self, *, final_checkpoint: bool = True) -> None:
        """Stop the service and join the thread.

        ``final_checkpoint=False`` simulates a crash: the listener dies
        without draining or checkpointing, so recovery exercises the last
        *periodic* checkpoint only.
        """
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(final_checkpoint=final_checkpoint), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop, self._thread = None, None

    def run_coroutine(self, coroutine):
        """Run one coroutine on the service loop and wait for its result
        (lets synchronous callers poke the pipeline directly)."""
        if self._loop is None:
            raise ServiceError("service thread is not running")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(
            timeout=60
        )

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop()
