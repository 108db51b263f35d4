"""Atomic service checkpoints and crash recovery.

A checkpoint captures everything needed to resume every campaign exactly:
the public strategy matrix (immutable, written once per campaign), the
serialized live accumulator (version-tagged bytes from
:meth:`~repro.protocol.engine.ShardAccumulator.to_bytes`), and a manifest
JSON tying them together with SHA-256 checksums.  The write protocol reuses
the strategy store's idioms — temp file + ``fsync`` + ``os.replace`` per
payload, manifest written last — so a crash mid-checkpoint leaves the
previous complete checkpoint intact: the manifest only ever references
payloads that were durably on disk before it was swapped in.

Recovery (:meth:`CheckpointStore.load`) verifies every checksum, rebuilds
each workload by name, reloads the strategy (re-validated epsilon-LDP by
:meth:`~repro.mechanisms.base.StrategyMatrix.load`), recomputes the
reconstruction operator, and restores the accumulator bytes — making the
recovered estimates bit-identical to what the service would have answered
at checkpoint time.

Layout under the checkpoint root::

    root/
      manifest.json               campaign table + checksums (written last)
      strategies/<name>.npz       public strategy, one per campaign
      accumulators/<name>.bin     serialized ShardAccumulator snapshot

Older releases also wrote multi-round campaigns, whose manifest entries
carry an ``adaptive`` key (plan, budget ledger, completed rounds).  Those
entries are refused on load, naming the campaign: one strategy per
campaign cannot answer for cohorts that randomized against several.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.exceptions import ProtocolError, ReproError, ServiceError
from repro.mechanisms.base import StrategyMatrix
from repro.protocol.engine import ProtocolSession, ShardAccumulator
from repro.service.campaigns import (
    Campaign,
    CampaignManager,
    validate_campaign_name,
)
from repro.store.store import _atomic_write_bytes
from repro.telemetry import MetricsRegistry
from repro.workloads import by_name as workload_by_name

#: Manifest schema version; bumped on incompatible layout changes.
#: Version 2 added multi-round campaign entries, which are now refused;
#: every other entry of a version-1 or version-2 manifest loads.
MANIFEST_VERSION = 2

_READABLE_VERSIONS = (1, 2)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class CheckpointStore:
    """Read/write service checkpoints under one directory.

    Examples
    --------
    >>> import tempfile
    >>> manager = CampaignManager()
    >>> campaign = manager.create(
    ...     "demo", workload="Histogram", domain_size=4, epsilon=1.0,
    ...     mechanism="Randomized Response",
    ... )
    >>> _ = campaign.accumulator.add_reports([0, 2, 2])
    >>> store = CheckpointStore(tempfile.mkdtemp())
    >>> _ = store.save(manager)
    >>> recovered = store.load()
    >>> recovered.get("demo").accumulator == campaign.accumulator
    True
    """

    def __init__(self, root, registry: MetricsRegistry | None = None) -> None:
        self.root = Path(root)
        # (strategy object, payload digest) this instance last
        # wrote/verified per campaign; strategies are immutable, so a
        # repeat checkpoint of the same object can skip re-serializing,
        # re-hashing, and re-reading the file entirely.
        self._strategy_digests: dict[str, tuple] = {}
        self._m_save_seconds = None
        self._m_bytes_written = None
        if registry is not None:
            self._m_save_seconds = registry.histogram(
                "repro_checkpoint_save_seconds",
                "Wall time of one full checkpoint write.",
                bounds=(0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0),
            )
            self._m_bytes_written = registry.counter(
                "repro_checkpoint_bytes_written_total",
                "Manifest bytes written across all checkpoints.",
            )

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def strategy_path(self, name: str) -> Path:
        return self.root / "strategies" / f"{name}.npz"

    def accumulator_path(self, name: str) -> Path:
        return self.root / "accumulators" / f"{name}.bin"

    def exists(self) -> bool:
        """Whether a recoverable checkpoint is present."""
        return self.manifest_path.is_file()

    # -- writing -----------------------------------------------------------

    def save(self, manager: CampaignManager, snapshots: dict | None = None) -> dict:
        """Write a full checkpoint of every campaign; returns the manifest.

        ``snapshots`` maps campaign name to a pre-taken accumulator
        snapshot (missing names fall back to snapshotting here).  Callers
        on a single thread can pass nothing; the *service* instead builds
        the frozen view on its event loop and calls :meth:`save_frozen`
        directly, because both the campaign table and the accumulators
        mutate on the loop while this method may run on a worker thread.
        """
        frozen = [
            (
                campaign,
                (snapshots or {}).get(campaign.name)
                or campaign.accumulator.snapshot(),
                dict(campaign.edge_sequences),
            )
            for campaign in manager.campaigns()
        ]
        return self.save_frozen(frozen)

    def _write_strategy(self, name: str, strategy) -> str:
        """Write one campaign's immutable strategy payload, skipping repeat
        work.

        The cache maps the campaign name to the exact strategy *object*
        last written for it; on a hit, serializing, hashing, and re-reading
        the file are all skipped.  On a miss the file is verified against the
        fresh digest — a leftover from a crashed prior deployment (same
        name, different strategy) must not be checksummed into this
        manifest — and rewritten on any mismatch.
        """
        cached = self._strategy_digests.get(name)
        if cached is not None and cached[0] is strategy:
            return cached[1]
        import io

        buffer = io.BytesIO()
        strategy.save(buffer)
        payload = buffer.getvalue()
        digest = _sha256(payload)
        path = self.strategy_path(name)
        if not path.exists() or _sha256(path.read_bytes()) != digest:
            _atomic_write_bytes(path, payload)
        self._strategy_digests[name] = (strategy, digest)
        return digest

    def save_frozen(self, frozen: list, *, wal_sequence: int | None = None) -> dict:
        """Write a checkpoint from ``(campaign, accumulator snapshot,
        edge sequences)`` triples captured by the caller.

        Payloads are written (atomically) before the manifest, and the
        manifest itself is swapped in atomically, so readers and a
        restarting service always see a *complete* checkpoint — either the
        previous one or this one, never a mix.  Everything read from the
        campaign objects here (name, session, provenance) is immutable
        after creation, and the snapshots are private copies, so this is
        safe to run off the event loop while ingestion continues; the
        manifest's report count always comes from the serialized snapshot
        itself, never the live accumulator.

        ``wal_sequence`` records the write-ahead-log coverage point: every
        WAL record with sequence ``<= wal_sequence`` is contained in this
        checkpoint, so recovery replays only what lies past it.  Additive
        manifest key — absent (older manifests, no WAL) means 0.
        """
        started = time.perf_counter()
        written_bytes = 0
        entries: dict[str, dict] = {}
        for campaign, snapshot, edge_sequences in frozen:
            session = campaign.session
            strategy_sha = self._write_strategy(campaign.name, session.strategy)
            payload = snapshot.to_bytes()
            _atomic_write_bytes(self.accumulator_path(campaign.name), payload)
            written_bytes += len(payload)
            entry = {
                "workload": campaign.workload_name,
                "domain_size": session.domain_size,
                "epsilon": campaign.epsilon,
                "source": campaign.source,
                "created_at": campaign.created_at,
                "num_reports": snapshot.num_reports,
                "strategy_sha256": strategy_sha,
                "accumulator_sha256": _sha256(payload),
            }
            if edge_sequences:
                # Additive key (readable by older manifests' absence): the
                # highest applied partial-forward sequence per edge, so a
                # retried forward stays a no-op across recovery.
                entry["edge_sequences"] = edge_sequences
            entries[campaign.name] = entry
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "saved_at": time.time(),
            "campaigns": entries,
        }
        if wal_sequence is not None:
            manifest["wal_sequence"] = int(wal_sequence)
        manifest_bytes = json.dumps(
            manifest, indent=2, sort_keys=True
        ).encode("utf-8")
        _atomic_write_bytes(self.manifest_path, manifest_bytes)
        written_bytes += len(manifest_bytes)
        if self._m_save_seconds is not None:
            self._m_save_seconds.observe(time.perf_counter() - started)
        if self._m_bytes_written is not None:
            self._m_bytes_written.inc(written_bytes)
        return manifest

    # -- reading -----------------------------------------------------------

    def read_manifest(self) -> dict:
        """Parse and schema-check the manifest; raises on damage."""
        if not self.exists():
            raise ServiceError(f"no checkpoint manifest at {self.manifest_path}")
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"unreadable checkpoint manifest {self.manifest_path}: {error}"
            )
        if manifest.get("manifest_version") not in _READABLE_VERSIONS:
            raise ServiceError(
                f"checkpoint manifest version "
                f"{manifest.get('manifest_version')!r} not in supported "
                f"versions {_READABLE_VERSIONS}"
            )
        if not isinstance(manifest.get("campaigns"), dict):
            raise ServiceError("checkpoint manifest has no campaign table")
        return manifest

    def load(self) -> CampaignManager:
        """Rebuild a :class:`CampaignManager` from the latest checkpoint.

        Every payload is checksum-verified against the manifest and the
        strategy is re-validated (column stochasticity + the epsilon-LDP
        ratio) on load, so a corrupted or tampered checkpoint fails loudly
        with :class:`ServiceError` instead of silently serving bad
        estimates.
        """
        manifest = self.read_manifest()
        manager = CampaignManager()
        for name, entry in sorted(manifest["campaigns"].items()):
            manager.adopt(self._load_campaign(name, entry))
        return manager

    def _verify_payload(self, name: str, path: Path, recorded) -> bytes:
        """Read one payload, failing loudly on absence or checksum drift."""
        if not path.is_file():
            raise ServiceError(
                f"checkpoint for campaign {name!r} is missing {path.name}"
            )
        payload = path.read_bytes()
        digest = _sha256(payload)
        if digest != recorded:
            raise ServiceError(
                f"checkpoint for campaign {name!r} failed its checksum "
                f"({path.name}: {digest[:12]}… != recorded "
                f"{str(recorded)[:12]}…); refusing to recover corrupt state"
            )
        return payload

    def _load_session(
        self, name: str, path: Path, recorded, workload
    ) -> ProtocolSession:
        self._verify_payload(name, path, recorded)
        return ProtocolSession(StrategyMatrix.load(path), workload)

    def _load_campaign(self, name: str, entry: dict) -> Campaign:
        validate_campaign_name(name)
        if entry.get("adaptive") is not None:
            raise ServiceError(
                f"checkpoint for campaign {name!r} carries multi-round "
                "(adaptive) state, which this version cannot serve: its "
                "cohorts randomized against more than one strategy.  Recover "
                "it with the release that wrote it, or move the checkpoint "
                "aside and re-create the campaign"
            )
        try:
            workload = workload_by_name(
                entry["workload"], int(entry["domain_size"])
            )
            session = self._load_session(
                name,
                self.strategy_path(name),
                entry.get("strategy_sha256"),
                workload,
            )
            accumulator = ShardAccumulator.from_bytes(
                self._verify_payload(
                    name,
                    self.accumulator_path(name),
                    entry.get("accumulator_sha256"),
                )
            )
            edge_sequences = {
                str(edge): int(seq)
                for edge, seq in (entry.get("edge_sequences") or {}).items()
            }
        except KeyError as error:
            raise ServiceError(
                f"checkpoint manifest entry for {name!r} is missing {error}"
            )
        except ServiceError:
            raise
        except (ProtocolError, ReproError) as error:
            raise ServiceError(
                f"checkpoint for campaign {name!r} is invalid: {error}"
            )
        campaign = Campaign(
            name=name,
            session=session,
            workload_name=str(entry["workload"]),
            epsilon=float(entry["epsilon"]),
            source=str(entry.get("source", "checkpoint")),
            created_at=float(entry.get("created_at", time.time())),
            accumulator=accumulator,
            edge_sequences=edge_sequences,
        )
        if campaign.accumulator.num_reports != int(entry.get("num_reports", -1)):
            raise ServiceError(
                f"checkpoint for campaign {name!r} disagrees with its "
                f"manifest: accumulator holds "
                f"{campaign.accumulator.num_reports} reports, manifest "
                f"recorded {entry.get('num_reports')}"
            )
        return campaign

    def __repr__(self) -> str:
        return f"CheckpointStore(root={str(self.root)!r})"
