"""Ingestion: validate a report body and fold it at ack time.

The server side of the mechanism only ever adds: a report batch folds into
its campaign's response histogram, and every estimate is linear in that
histogram.  So a validated batch folds into the campaign's live
:class:`~repro.protocol.engine.ShardAccumulator` in the same synchronous
step that accepts it — there is nothing to queue, flush, or drain, and an
acknowledged report is counted by the very next query.  Counts are
integers held in float64, so in-place folds in any order are bit-identical
to a serial fold.

Validation and fold run with no ``await`` between them.  Every other
mutation of a campaign (an edge cut, a checkpoint snapshot) also runs on
the event loop, so none of them can interleave with a half-folded body.

A JSON body's ``round`` field (and byte 7 of a binary frame, see
:mod:`repro.service.framing`) once tagged the cohort of a multi-round
campaign.  Campaigns have one strategy now, so a batch tagged with a
nonzero round was randomized against some other strategy and is refused
with :class:`~repro.exceptions.ServiceError`, folding nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError, ServiceError
from repro.service.campaigns import CampaignManager
from repro.service.framing import decode_frames
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer, is_trace_id

#: Hard cap on reports accepted in one submission (memory safety valve).
MAX_BATCH_REPORTS = 1_000_000


def validate_reports(reports, num_outputs: int) -> np.ndarray:
    """Validate one report batch against an output alphabet of size
    ``num_outputs``; returns the batch as an ``int64`` array.

    Every ingest path (root, cluster worker, edge) validates through
    :class:`IngestPipeline`, which calls this.

    Examples
    --------
    >>> validate_reports([0, 2, 2], num_outputs=4)
    array([0, 2, 2])
    """
    try:
        array = np.asarray(reports)
    except (ValueError, TypeError) as error:
        raise ServiceError(f"reports are not a flat numeric list: {error}")
    if array.ndim != 1:
        raise ServiceError(f"reports must be a flat list, got {array.ndim}-D")
    if array.shape[0] == 0:
        raise ServiceError("empty report batch")
    if array.shape[0] > MAX_BATCH_REPORTS:
        raise ServiceError(
            f"batch of {array.shape[0]} reports exceeds the "
            f"{MAX_BATCH_REPORTS}-report cap; split it"
        )
    if not np.issubdtype(array.dtype, np.integer):
        try:
            as_int = array.astype(np.int64, copy=False)
            exact = np.array_equal(as_int, array)
        except (ValueError, TypeError, OverflowError):
            # strings, None, objects — anything that is not a number
            raise ServiceError("reports must be integer output ids")
        if not exact:
            raise ServiceError("reports must be integer output ids")
        array = as_int
    if array.min() < 0 or array.max() >= num_outputs:
        raise ServiceError(
            f"reports outside the campaign's output range [0, {num_outputs})"
        )
    return array.astype(np.int64, copy=False)


@dataclass
class IngestStats:
    """Counters exposed via ``/v1/metrics``."""

    ingested: int = 0
    rejected_batches: int = 0

    def to_json(self) -> dict:
        return {
            "ingested": self.ingested,
            "rejected_batches": self.rejected_batches,
        }


@dataclass
class _Batch:
    """One validated report batch, checked against ``campaign`` (the live
    campaign object)."""

    campaign: object
    reports: np.ndarray
    trace_id: str


class _PipelineMetrics:
    """The pipeline's registry handles (one instance per pipeline).

    Mirrors :class:`IngestStats` into the shared registry so the
    Prometheus exposition and the JSON stats never disagree, and adds the
    per-batch fold-latency histogram flat counters cannot express.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.ingested = registry.counter(
            "repro_ingest_reports_total",
            "Reports folded into live campaign accumulators.",
        )
        self.rejected = registry.counter(
            "repro_ingest_rejected_batches_total",
            "Ingest bodies refused: undecodable, unknown campaign, invalid "
            "reports, or a round tag.",
        )
        self.fold_seconds = registry.histogram(
            "repro_ingest_fold_seconds",
            "Per-batch accumulator fold duration.",
        )


class IngestPipeline:
    """Validate-and-fold ingestion in front of a campaign manager.

    Every ingest path (the root in-process, each cluster worker, and the
    edge) folds through one of these, so a client sees the same 400s
    whichever process handled its body.  A body is all-or-nothing: every
    batch in it is validated before the first is folded, and a refused
    body counts once in ``stats.rejected_batches``.

    Parameters
    ----------
    manager:
        The :class:`~repro.service.campaigns.CampaignManager` (or a
        duck-typed stand-in with ``get(name)``) whose campaigns receive
        the reports.
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` the
        pipeline mirrors its counters into, plus a fold-latency histogram.
        One pipeline per registry: two pipelines sharing one registry
        would share (and double-count) families.
    tracer:
        Optional :class:`~repro.telemetry.tracing.Tracer`; when a batch
        carries a trace id, its decode and fold are recorded as ``decode``
        and ``fold`` child spans of the edge's ``ingest`` span.

    Examples
    --------
    >>> import asyncio
    >>> manager = CampaignManager()
    >>> _ = manager.create("demo", workload="Histogram", domain_size=4,
    ...                    epsilon=1.0, mechanism="Randomized Response")
    >>> pipeline = IngestPipeline(manager)
    >>> asyncio.run(pipeline.submit_reports("demo", [0, 1, 2, 3, 3]))
    5
    >>> manager.get("demo").num_reports
    5
    """

    def __init__(
        self,
        manager: CampaignManager,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.manager = manager
        self.stats = IngestStats()
        self.tracer = tracer
        self._metrics = _PipelineMetrics(registry) if registry is not None else None

    async def submit_reports(
        self,
        campaign: str,
        reports,
        trace_id: str = "",
    ) -> int:
        """Validate and fold a batch of privatized reports; returns the
        number accepted.

        Raises :class:`ServiceError` and counts a refused batch, folding
        nothing, if validation fails.  Never suspends: the batch is folded
        when this returns.
        """
        with self._refusals():
            batch = self._validate(campaign, reports, trace_id)
        return self._fold([batch])[campaign]

    @contextlib.contextmanager
    def _refusals(self):
        """Count a body refused inside this block as one rejected batch,
        then re-raise."""
        try:
            yield
        except ReproError:
            self.stats.rejected_batches += 1
            if self._metrics is not None:
                self._metrics.rejected.inc()
            raise

    def _validate(self, campaign: str, reports, trace_id: str = "") -> _Batch:
        """Check one report batch against its campaign's output alphabet;
        folds nothing."""
        target = self.manager.get(campaign)
        array = validate_reports(reports, target.session.num_outputs)
        return _Batch(target, array, trace_id)

    def _fold(self, batches: list[_Batch]) -> dict[str, int]:
        """Fold validated batches into their campaigns' live accumulators;
        returns per-campaign accepted counts.  Call it in the same
        synchronous step as :meth:`_validate`."""
        per_campaign: dict[str, int] = {}
        for batch in batches:
            started = time.perf_counter()
            batch.campaign.accumulator.add_reports(batch.reports)
            duration = time.perf_counter() - started
            name = batch.campaign.name
            count = int(batch.reports.shape[0])
            per_campaign[name] = per_campaign.get(name, 0) + count
            self.stats.ingested += count
            if self._metrics is not None:
                self._metrics.ingested.inc(count)
                self._metrics.fold_seconds.observe(duration)
            self._span("fold", duration, batch.trace_id, campaign=name, reports=count)
        return per_campaign

    def _span(self, name: str, duration: float, trace_id: str, **attributes):
        if self.tracer is not None and trace_id:
            self.tracer.record(
                name, duration, trace_id=trace_id, parent="ingest", **attributes
            )


def _parse_json_body(payload: bytes, single: bool) -> dict:
    try:
        body = json.loads(payload)
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError and undecodable UTF-8.
        raise ServiceError(f"request body is not valid JSON: {error}")
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    if single:
        if "report" not in body:
            raise ServiceError("body needs a 'report' field")
        body = dict(body)
        body["reports"] = [body.pop("report")]
    if not isinstance(body.get("campaign"), str):
        raise ServiceError("body needs a 'campaign' field")
    if "histogram" in body:
        # Folding only the 'reports' of such a body would silently drop
        # what the client meant to send.
        raise ServiceError(
            "pre-aggregated 'histogram' bodies are not accepted; send "
            "'reports', or forward an edge partial to "
            "/v1/campaigns/<name>/partials"
        )
    if "reports" not in body:
        raise ServiceError("body needs a 'reports' field")
    tag = body.get("round")
    if tag is not None and (isinstance(tag, bool) or tag != 0):
        raise ServiceError(
            f"campaign {body['campaign']!r} takes no round tag, got round "
            f"{tag!r}: the reports were randomized for a multi-round "
            "campaign's cohort"
        )
    return body


async def fold_json_body(
    pipeline: IngestPipeline,
    payload: bytes,
    single: bool = False,
    trace_id: str = "",
) -> dict[str, int]:
    """Parse, validate, and fold one raw JSON ingest body
    (``single=True`` for the ``/v1/report`` shape); returns per-campaign
    accepted counts.

    A client-minted ``"trace"`` field in the body wins over the
    ``trace_id`` the caller (typically the HTTP edge) minted, so a trace
    started upstream of this process stays one trace.  The decode stage
    (parse + validation) is timed as a ``decode`` child span when the
    pipeline has a tracer.
    """
    started = time.perf_counter()
    with pipeline._refusals():
        body = _parse_json_body(payload, single)
        if is_trace_id(body.get("trace")):
            trace_id = body["trace"]
        batch = pipeline._validate(body["campaign"], body["reports"], trace_id)
    pipeline._span("decode", time.perf_counter() - started, trace_id, transport="json")
    return pipeline._fold([batch])


async def fold_frame_body(
    pipeline: IngestPipeline, payload: bytes, trace_id: str = ""
) -> dict[str, int]:
    """Decode, validate, and fold one binary frame body (any number of
    packed frames); returns per-campaign accepted counts.

    The body is all-or-nothing, like a JSON batch: every frame is decoded
    and validated *before* the first one is folded, so a 400 means no
    report from the body was counted.

    A frame-embedded trace id (see :mod:`repro.service.framing`) wins
    over the caller's ``trace_id`` for the frames that carry one; the
    decode stage is timed as a ``decode`` child span.
    """
    started = time.perf_counter()
    with pipeline._refusals():
        batches = [
            pipeline._validate(
                frame.campaign, frame.reports(), frame.trace_id or trace_id
            )
            for frame in decode_frames(payload)
        ]
    pipeline._span(
        "decode",
        time.perf_counter() - started,
        trace_id,
        transport="binary",
        frames=len(batches),
    )
    return pipeline._fold(batches)
