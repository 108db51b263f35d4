"""Stateless edge-aggregation tier: fold near the clients, forward partials.

A single root :class:`~repro.service.server.CollectionService` caps out at
one ingest socket.  Because :class:`~repro.protocol.engine.ShardAccumulator`
merges form a commutative monoid — associative, order-independent, and
bit-identical to a serial fold — aggregation can fan out horizontally: any
number of :class:`EdgeAggregator` processes accept client reports over the
same JSON/binary transports the root speaks, fold them into local partial
accumulators (through the root's ingest endpoints and
:class:`~repro.service.ingest.IngestPipeline`, shared via
:class:`~repro.service.server.HttpTier`), and forward the merged partials
upstream via ``POST /v1/campaigns/<name>/partials``.  The root folds ``E``
partial blobs per forward window instead of ``N`` client batches, so its
load is independent of the client population.

Exactly-once folding without a transaction log: every forward carries the
edge's id and a **per-campaign flush sequence number** that increases by
one per cut partial.  The root remembers the highest sequence it has
applied per ``(campaign, edge)`` (persisted in checkpoints), so a retried
forward — say, a timeout whose first attempt actually landed — is
acknowledged as a *duplicate* and never folded twice.

Failure handling in the forwarder: connection errors and 5xx responses are
*transient* — the partial stays at the head of the outbox and is retried
with exponential backoff, so an unreachable root loses nothing.  4xx
responses are *permanent* — the payload can never be accepted (say, a
campaign re-created upstream with another strategy), so it is dropped,
counted, and the campaign mirror refreshed.  A graceful stop (SIGTERM via
``repro edge``) closes the listener, cuts the final partials, and forwards
them before exiting.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass, field

from repro._version import __version__
from repro.exceptions import ServiceError, ServiceHTTPError
from repro.protocol.engine import ShardAccumulator
from repro.service.client import ServiceClient
from repro.service.ingest import IngestPipeline
from repro.service.server import HttpTier, _HttpError, _Request, run_service
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import Gauge, MetricsRegistry

_LOG = get_logger(__name__)


class _EdgeSession:
    """The slice of a ``ProtocolSession`` the ingest pipeline touches.

    The edge never randomizes or reconstructs — it only needs the output
    alphabet size to validate reports and mint accumulators, so mirroring
    a campaign costs one integer, not a strategy matrix.
    """

    __slots__ = ("num_outputs",)

    def __init__(self, num_outputs: int) -> None:
        self.num_outputs = int(num_outputs)

    def new_accumulator(self) -> ShardAccumulator:
        return ShardAccumulator(self.num_outputs)


class _MirroredCampaign:
    """Edge-local mirror of one upstream campaign.

    Duck-typed to the campaign surface :class:`IngestPipeline` consumes
    (``name``, ``session``, ``accumulator``), so the pipeline folds into it
    exactly as the root folds into a real
    :class:`~repro.service.campaigns.Campaign`.
    """

    __slots__ = ("name", "session", "accumulator", "sequence", "last_cut")

    def __init__(self, name: str, num_outputs: int) -> None:
        self.name = name
        self.session = _EdgeSession(num_outputs)
        self.accumulator = self.session.new_accumulator()
        #: Last flush sequence this edge cut for the campaign (the upstream
        #: applies each ``(edge, campaign, sequence)`` at most once).
        self.sequence = 0
        self.last_cut = time.monotonic()


class _EdgeManager:
    """Minimal campaign table satisfying the pipeline's ``get(name)``."""

    def __init__(self) -> None:
        self._campaigns: dict[str, _MirroredCampaign] = {}

    def get(self, name: str) -> _MirroredCampaign:
        mirror = self._campaigns.get(name)
        if mirror is None:
            raise ServiceError(
                f"edge does not mirror campaign {name!r}; it mirrors "
                f"{sorted(self._campaigns) or 'no campaigns'} — create the "
                "campaign on the root service first (the edge mirrors on "
                "startup and on forward rejections)"
            )
        return mirror

    def peek(self, name: str) -> _MirroredCampaign | None:
        return self._campaigns.get(name)

    def add(self, mirror: _MirroredCampaign) -> None:
        self._campaigns[mirror.name] = mirror

    def campaigns(self) -> list[_MirroredCampaign]:
        return list(self._campaigns.values())

    def __len__(self) -> int:
        return len(self._campaigns)


@dataclass
class _PendingForward:
    """One cut partial waiting in the outbox, FIFO per edge."""

    campaign: str
    sequence: int
    payload: bytes
    num_reports: int
    attempts: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)


class EdgeAggregator(HttpTier):
    """One edge-tier aggregation process in front of a root service.

    Parameters
    ----------
    upstream_host, upstream_port:
        The root :class:`~repro.service.server.CollectionService` partials
        are forwarded to.
    edge_id:
        Stable identity for the idempotency ledger; defaults to a fresh
        random id per process, so two edges never collide.  Reusing an id
        across a restart is safe: the first forward is acknowledged as a
        duplicate with the root's ``last_sequence``, and the edge re-cuts
        the payload under a resynchronized sequence (see
        :meth:`_forward_one`).
    campaigns:
        Names to mirror; ``None`` mirrors every campaign the root has at
        startup.
    forward_reports, forward_interval:
        Cut-and-forward triggers: a partial ships upstream once it holds
        ``forward_reports`` reports, or after ``forward_interval`` seconds
        if it holds any.
    retry_base, retry_cap, drain_timeout:
        Exponential-backoff bounds for transient forward failures, and how
        long a graceful stop keeps retrying the final forwards before
        declaring the buffered reports lost.
    upstream_factory:
        Callable returning a fresh :class:`ServiceClient` per upstream
        call; injectable so tests can simulate an unreachable or flaky
        root deterministically.

    Examples
    --------
    >>> from repro.service import CollectionService, ServiceThread
    >>> with ServiceThread(CollectionService()) as (host, port):
    ...     edge = EdgeAggregator(host, port)
    ...     with ServiceThread(edge) as (edge_host, edge_port):
    ...         ServiceClient(edge_host, edge_port).healthz()["role"]
    'edge'
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        edge_id: str | None = None,
        campaigns: list[str] | None = None,
        forward_reports: int = 50_000,
        forward_interval: float = 1.0,
        retry_base: float = 0.25,
        retry_cap: float = 5.0,
        drain_timeout: float = 30.0,
        upstream_timeout: float = 30.0,
        registry: MetricsRegistry | None = None,
        tracing: bool = True,
        upstream_factory=None,
    ) -> None:
        if forward_reports < 1:
            raise ServiceError(
                f"forward_reports must be >= 1, got {forward_reports}"
            )
        if forward_interval <= 0:
            raise ServiceError(
                f"forward_interval must be positive, got {forward_interval}"
            )
        if retry_base <= 0 or retry_cap < retry_base:
            raise ServiceError(
                f"need 0 < retry_base <= retry_cap, got "
                f"{retry_base} and {retry_cap}"
            )
        super().__init__(
            registry if registry is not None else MetricsRegistry(),
            tracing=tracing,
        )
        self.upstream_host = upstream_host
        self.upstream_port = int(upstream_port)
        self.edge_id = edge_id or f"edge-{os.urandom(6).hex()}"
        self.forward_reports = forward_reports
        self.forward_interval = forward_interval
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.drain_timeout = drain_timeout
        self._campaign_filter = (
            frozenset(campaigns) if campaigns is not None else None
        )
        self._upstream_factory = upstream_factory or (
            lambda: ServiceClient(
                upstream_host, upstream_port, timeout=upstream_timeout
            )
        )
        self.manager = _EdgeManager()
        self.pipeline = IngestPipeline(
            self.manager, registry=self.registry, tracer=self.tracer
        )
        self._outbox: deque[_PendingForward] = deque()
        self._outbox_event = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self.reports_forwarded = 0
        self.reports_lost = 0
        self.forwards_applied = 0
        self.forwards_duplicate = 0
        self.forwards_rejected = 0
        self._register_edge_metrics()

    def _register_edge_metrics(self) -> None:
        registry = self.registry
        self._m_forwards = registry.counter(
            "repro_edge_forwards_total",
            "Partial forwards to the root, by outcome "
            "(applied/duplicate/rejected).",
            labelnames=("outcome",),
        )
        self._m_forward_retries = registry.counter(
            "repro_edge_forward_retries_total",
            "Transient forward failures retried with backoff.",
        )
        self._m_forward_seconds = registry.histogram(
            "repro_edge_forward_seconds",
            "Wall time of one upstream partial forward.",
        )
        self._m_forwarded_reports = registry.counter(
            "repro_edge_reports_forwarded_total",
            "Reports shipped upstream inside applied partials.",
        )
        self._m_lost_reports = registry.counter(
            "repro_edge_reports_lost_total",
            "Buffered reports abandoned (permanent rejection, an output "
            "alphabet that changed under the edge, or drain timeout).",
        )
        outbox = registry.gauge(
            "repro_edge_outbox_depth", "Cut partials waiting to forward."
        )
        assert isinstance(outbox, Gauge)
        outbox.set_function(lambda: float(len(self._outbox)))

    # -- upstream mirror ----------------------------------------------------

    def _fetch_campaigns_sync(self) -> list[dict]:
        client = self._upstream_factory()
        try:
            return client.campaigns()
        finally:
            client.close()

    async def refresh_campaigns(self) -> int:
        """(Re)mirror campaign metadata from the root; returns how many
        campaigns the edge now mirrors.

        A root restarted without its checkpoint can re-create a campaign
        name with another strategy.  A mirror whose output alphabet no
        longer matches the root's restarts its buffered partial: those
        reports were randomized against the old strategy and no future
        forward can land them, so they are counted as lost rather than
        wedging the outbox forever.
        """
        documents = await asyncio.to_thread(self._fetch_campaigns_sync)
        seen = set()
        for document in documents:
            name = str(document["name"])
            if (
                self._campaign_filter is not None
                and name not in self._campaign_filter
            ):
                continue
            seen.add(name)
            num_outputs = int(document["num_outputs"])
            mirror = self.manager.peek(name)
            if mirror is None:
                self.manager.add(_MirroredCampaign(name, num_outputs))
                continue
            if num_outputs != mirror.session.num_outputs:
                buffered = mirror.accumulator.num_reports
                if buffered:
                    self._count_lost(
                        buffered,
                        f"campaign {name!r} changed to {num_outputs} outputs "
                        "under the edge",
                    )
                mirror.session.num_outputs = num_outputs
                mirror.accumulator = mirror.session.new_accumulator()
                mirror.last_cut = time.monotonic()
        if self._campaign_filter is not None:
            missing = self._campaign_filter - seen
            if missing:
                raise ServiceError(
                    f"root service has no campaign(s) {sorted(missing)}; "
                    "create them before starting the edge"
                )
        return len(self.manager)

    def _count_lost(self, num_reports: int, reason: str) -> None:
        self.reports_lost += num_reports
        self._m_lost_reports.inc(num_reports)
        _LOG.warning(
            "edge dropped buffered reports",
            extra={
                "edge_id": self.edge_id,
                "reports": num_reports,
                "reason": reason,
            },
        )

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Mirror upstream campaigns, start the listener and forwarder;
        returns the bound ``(host, port)``."""
        await self.refresh_campaigns()
        bound = await self._start_listener(host, port)
        self._tasks = [
            asyncio.create_task(self._cut_timer(), name="edge-cutter"),
            asyncio.create_task(self._forward_outbox(), name="edge-forwarder"),
        ]
        _LOG.info(
            "edge aggregator started",
            extra={
                "host": bound[0],
                "port": bound[1],
                "edge_id": self.edge_id,
                "upstream": f"{self.upstream_host}:{self.upstream_port}",
                "campaigns": len(self.manager),
            },
        )
        return bound

    async def stop(self, *, final_checkpoint: bool = True) -> None:
        """Graceful drain: close the listener, cut the final partials, and
        forward everything buffered.

        The listener dies first, so no report can be acknowledged after the
        final cut — an edge 200 means the report is in a partial that the
        drain will forward (or count as lost if the root stays unreachable
        past ``drain_timeout``).  ``final_checkpoint=False`` is the
        simulated-crash path (buffered reports are simply gone), named for
        signature compatibility with
        :class:`~repro.service.server.ServiceThread`.
        """
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        await self._close_listener()
        if final_checkpoint:
            for mirror in self.manager.campaigns():
                self._cut(mirror)
            await self._forward_outbox(self.drain_timeout)
        else:
            self._outbox.clear()

    # -- cut & forward ------------------------------------------------------

    def _cut(self, mirror: _MirroredCampaign) -> None:
        """Seal the mirror's live partial and queue it for forwarding.

        Runs on the event loop (like every accumulator mutation), so a cut
        can never tear a fold: the sealed payload holds exactly the
        batches acknowledged before this tick.
        """
        accumulator = mirror.accumulator
        mirror.last_cut = time.monotonic()
        if accumulator.num_reports == 0:
            return
        mirror.accumulator = mirror.session.new_accumulator()
        mirror.sequence += 1
        self._outbox.append(
            _PendingForward(
                campaign=mirror.name,
                sequence=mirror.sequence,
                payload=accumulator.to_bytes(),
                num_reports=accumulator.num_reports,
            )
        )
        self._outbox_event.set()

    async def _cut_timer(self) -> None:
        # Poll faster than the forward interval so the size trigger fires
        # promptly under load; the interval trigger is tracked per mirror.
        poll = min(self.forward_interval / 4, 0.25)
        while True:
            await asyncio.sleep(poll)
            now = time.monotonic()
            for mirror in self.manager.campaigns():
                if mirror.accumulator.num_reports >= self.forward_reports or (
                    mirror.accumulator.num_reports > 0
                    and now - mirror.last_cut >= self.forward_interval
                ):
                    self._cut(mirror)

    def _send_partial_sync(self, item: _PendingForward) -> dict:
        # A fresh connection per forward: forwards are chunky and
        # infrequent, and never sharing a connection means a cancelled
        # in-flight forward can't corrupt the next one's framing.
        client = self._upstream_factory()
        try:
            return client.send_partial(
                item.campaign,
                edge_id=self.edge_id,
                sequence=item.sequence,
                payload=item.payload,
            )
        finally:
            client.close()

    async def _forward_one(self, item: _PendingForward) -> bool:
        """Attempt one upstream forward.

        Returns ``True`` when the item is *resolved* — applied, deduped, or
        permanently rejected — and ``False`` on a transient failure (the
        caller keeps the item and retries with backoff, so no report is
        lost while the root is unreachable).
        """
        started = time.perf_counter()
        try:
            receipt = await asyncio.to_thread(self._send_partial_sync, item)
        except ServiceHTTPError as error:
            if error.status >= 500:
                return False
            # Permanent: the root understood the forward and refused it —
            # an unknown campaign, a changed alphabet, a malformed payload.
            # Retrying the identical request can never succeed.
            outcome = self._m_forwards.labels("rejected")
            outcome.inc()  # type: ignore[union-attr]
            self.forwards_rejected += 1
            self._count_lost(
                item.num_reports,
                f"root rejected partial seq {item.sequence} for "
                f"{item.campaign!r}: {error}",
            )
            try:
                await self.refresh_campaigns()
            except (ServiceError, ConnectionError, OSError):
                pass
            return True
        except (ConnectionError, OSError, ServiceError):
            return False
        self._m_forward_seconds.observe(time.perf_counter() - started)
        if receipt.get("duplicate"):
            last = int(receipt.get("last_sequence", item.sequence))
            if item.attempts == 0:
                # First attempt, yet the root has seen this sequence: a
                # restarted edge reusing its id.  The payload holds *new*
                # reports, so resynchronize past the root's ledger and
                # re-cut the same payload under a fresh sequence.
                mirror = self.manager.peek(item.campaign)
                if mirror is not None:
                    mirror.sequence = max(mirror.sequence, last) + 1
                    item.sequence = mirror.sequence
                    return False
            # A retry whose first attempt landed — the normal idempotency
            # save.  Resolved without double-counting.
            outcome = self._m_forwards.labels("duplicate")
            outcome.inc()  # type: ignore[union-attr]
            self.forwards_duplicate += 1
            return True
        outcome = self._m_forwards.labels("applied")
        outcome.inc()  # type: ignore[union-attr]
        self.forwards_applied += 1
        self.reports_forwarded += item.num_reports
        self._m_forwarded_reports.inc(item.num_reports)
        return True

    async def _forward_outbox(self, timeout: float | None = None) -> None:
        """Ship outbox items strictly in order, one in flight at a time —
        per-campaign sequences must reach the root monotonically.  A
        transient failure keeps the head item and retries it with
        exponential backoff.

        Without a ``timeout`` (the forwarder task) this waits for new items
        until cancelled.  With one (the graceful stop's drain) it returns
        once the outbox is empty, or counts every report still in it as
        lost when the next retry would start past the deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = self.retry_base
        while True:
            if not self._outbox:
                if deadline is not None:
                    return
                self._outbox_event.clear()
                await self._outbox_event.wait()
                continue
            item = self._outbox[0]
            if await self._forward_one(item):
                self._outbox.popleft()
                backoff = self.retry_base
                continue
            item.attempts += 1
            self._m_forward_retries.inc()
            if deadline is not None and time.monotonic() + backoff > deadline:
                lost = sum(entry.num_reports for entry in self._outbox)
                self._count_lost(
                    lost,
                    f"drain abandoned after {timeout:g}s with the root "
                    "unreachable",
                )
                self._outbox.clear()
                return
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, self.retry_cap)

    # -- routing ------------------------------------------------------------

    async def _route(
        self, request: _Request, method: str, path: str
    ) -> tuple[int, dict]:
        if path == "/v1/healthz" and method == "GET":
            return 200, self._healthz()
        if (
            path == "/v1/campaigns" or path.startswith("/v1/campaigns/")
        ) and method == "GET":
            # Control-plane passthrough so SDK clients (reporters fetching
            # strategies, dashboards listing campaigns) can point at the
            # edge and never learn the root's address.
            return await self._proxy_get(request.path)
        raise _HttpError(404, f"no edge route for {method} {path}")

    async def _proxy_get(self, path: str) -> tuple[int, dict]:
        def fetch() -> dict:
            client = self._upstream_factory()
            try:
                return client._request("GET", path)
            finally:
                client.close()

        try:
            return 200, await asyncio.to_thread(fetch)
        except ServiceHTTPError as error:
            raise _HttpError(error.status, str(error))
        except (ConnectionError, OSError, ServiceError) as error:
            raise _HttpError(502, f"root service unreachable: {error}")

    # -- handlers -----------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "role": "edge",
            "version": __version__,
            "edge_id": self.edge_id,
            "upstream": f"{self.upstream_host}:{self.upstream_port}",
            "campaigns": len(self.manager),
            "outbox_depth": len(self._outbox),
            "uptime_seconds": self._uptime(),
        }

    async def _metrics(self) -> dict:
        return {
            **await super()._metrics(),
            "edge_id": self.edge_id,
            "upstream": f"{self.upstream_host}:{self.upstream_port}",
            "campaigns": {
                mirror.name: {
                    "buffered_reports": mirror.accumulator.num_reports,
                    "sequence": mirror.sequence,
                }
                for mirror in self.manager.campaigns()
            },
            "outbox_depth": len(self._outbox),
            "forwards": {
                "applied": self.forwards_applied,
                "duplicate": self.forwards_duplicate,
                "rejected": self.forwards_rejected,
                "reports_forwarded": self.reports_forwarded,
                "reports_lost": self.reports_lost,
            },
        }

    def _banner(self, host: str, port: int) -> tuple[str, str]:
        """The startup and shutdown lines ``repro edge`` prints."""
        return (
            f"repro edge {self.edge_id} listening on http://{host}:{port} "
            f"(forwarding to {self.upstream_host}:{self.upstream_port}, "
            f"{len(self.manager)} campaign(s) mirrored)",
            "repro edge shutting down (forwarding final partials)",
        )


def run_edge(edge: EdgeAggregator, host: str = "127.0.0.1", port: int = 8321) -> None:
    """Blocking entry point used by ``repro edge``: runs until SIGINT or
    SIGTERM, then forwards the final partials."""
    run_service(edge, host, port)
