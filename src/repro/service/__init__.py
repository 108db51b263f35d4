"""Always-on collection service: multi-campaign ingestion, checkpointing,
and live query answering.

The batch pipeline (optimize → collect → reconstruct) becomes a standing
deployment: the server holds any number of named *campaigns* (immutable
:class:`~repro.protocol.engine.ProtocolSession` + live mergeable
:class:`~repro.protocol.engine.ShardAccumulator`), ingests privatized
reports by folding each validated batch before acknowledging it, answers
workload queries with confidence intervals *while collection is in
flight*, and writes periodic atomic checkpoints it can recover from after
a crash.  Clients randomize locally — the server never sees a raw value.

* :class:`~repro.service.campaigns.CampaignManager` — named campaigns.
* :class:`~repro.service.ingest.IngestPipeline` — validate-and-fold
  ingestion at ack time, shared by the root, cluster workers, and edges.
* :class:`~repro.service.checkpoint.CheckpointStore` — atomic snapshots +
  crash recovery.
* :class:`~repro.service.server.CollectionService` — the asyncio HTTP
  server (``repro serve``), JSON or binary-framed ingest.
* :class:`~repro.service.cluster.WorkerPool` — the multi-process
  scale-out tier (``repro serve --workers K``): each worker folds through
  its own :class:`~repro.service.ingest.IngestPipeline` into owned shard
  accumulators, merged bit-identically for queries and checkpoints.
* :mod:`repro.service.framing` — the length-prefixed binary ingest
  frames (``--transport binary``).
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.client.CampaignReporter` — the client SDK with
  client-side randomization and fire-and-forget batching.
* :class:`~repro.service.edge.EdgeAggregator` — the stateless two-tier
  fan-in (``repro edge``): edges accept client reports near the clients,
  fold them locally with the same pipeline, and forward sealed partial
  accumulators upstream idempotently (per-edge flush sequence numbers).
* :class:`~repro.service.wal.WriteAheadLog` — the durable ingest log
  (``repro serve --wal-dir``): accepted bodies fsync before the ack,
  checkpoints cut + truncate, recovery replays the suffix (zero acked
  reports lost); it also unlocks self-healing worker supervision.

See ``docs/serving.md`` for the architecture and endpoint reference, and
``docs/operations.md`` for the failure-modes & recovery runbook.
"""

from repro.service.campaigns import (
    Campaign,
    CampaignManager,
    QueryAnswer,
    validate_campaign_name,
)
from repro.service.checkpoint import MANIFEST_VERSION, CheckpointStore
from repro.service.client import CampaignReporter, ServiceClient
from repro.service.cluster import ShardManager, WorkerPool
from repro.service.edge import EdgeAggregator, run_edge
from repro.service.framing import (
    FRAME_CONTENT_TYPE,
    Frame,
    decode_frame,
    decode_frames,
    encode_reports,
)
from repro.service.ingest import (
    MAX_BATCH_REPORTS,
    IngestPipeline,
    IngestStats,
    validate_reports,
)
from repro.service.server import (
    TRANSPORTS,
    CollectionService,
    ServiceThread,
    run_service,
)
from repro.service.wal import WalRecord, WriteAheadLog

__all__ = [
    "Campaign",
    "CampaignManager",
    "CampaignReporter",
    "CheckpointStore",
    "CollectionService",
    "EdgeAggregator",
    "FRAME_CONTENT_TYPE",
    "Frame",
    "IngestPipeline",
    "IngestStats",
    "MANIFEST_VERSION",
    "MAX_BATCH_REPORTS",
    "QueryAnswer",
    "ServiceClient",
    "ServiceThread",
    "ShardManager",
    "TRANSPORTS",
    "WalRecord",
    "WorkerPool",
    "WriteAheadLog",
    "decode_frame",
    "decode_frames",
    "encode_reports",
    "run_edge",
    "run_service",
    "validate_campaign_name",
    "validate_reports",
]
