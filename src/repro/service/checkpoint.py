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
      strategies/<name>@r<k>.npz  completed round k of an adaptive campaign
      accumulators/<name>.bin     serialized ShardAccumulator snapshot
      accumulators/<name>@r<k>.bin  frozen round-k accumulator

Adaptive campaigns additionally record their plan, the exact budget ledger
(every amount a ``str(Fraction)``, so recovery replays the identical
arithmetic), the live round number, and one strategy + accumulator payload
per *completed* round — recovery rebuilds the full round history, making
mid-campaign crash recovery bit-identical, combined estimates included.
``@`` cannot appear in a campaign name, so round payloads can never collide
with another campaign's files.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.exceptions import ProtocolError, ReproError, ServiceError
from repro.mechanisms.base import StrategyMatrix
from repro.protocol.accounting import BudgetLedger
from repro.protocol.engine import ProtocolSession, ShardAccumulator
from repro.service.campaigns import (
    AdaptivePlan,
    Campaign,
    CampaignManager,
    RoundRecord,
    validate_campaign_name,
)
from repro.store.store import _atomic_write_bytes
from repro.telemetry import MetricsRegistry
from repro.workloads import by_name as workload_by_name

#: Manifest schema version; bumped on incompatible layout changes.
#: Version 2 added adaptive round state; version-1 manifests (no adaptive
#: campaigns by construction) still load.
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

    def strategy_path(self, name: str, round_id: int | None = None) -> Path:
        stem = name if round_id is None else f"{name}@r{round_id}"
        return self.root / "strategies" / f"{stem}.npz"

    def accumulator_path(self, name: str, round_id: int | None = None) -> Path:
        stem = name if round_id is None else f"{name}@r{round_id}"
        return self.root / "accumulators" / f"{stem}.bin"

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
                campaign.freeze_adaptive(),
            )
            for campaign in manager.campaigns()
        ]
        return self.save_frozen(frozen)

    def _write_strategy(self, cache_key: str, strategy, path: Path) -> str:
        """Write one immutable strategy payload, skipping repeat work.

        The cache maps ``cache_key`` to the exact strategy *object* last
        written there; on a hit, serializing, hashing, and re-reading the
        file are all skipped.  On a miss the file is verified against the
        fresh digest — a leftover from a crashed prior deployment (same
        name, different strategy) must not be checksummed into this
        manifest — and rewritten on any mismatch.
        """
        cached = self._strategy_digests.get(cache_key)
        if cached is not None and cached[0] is strategy:
            return cached[1]
        import io

        buffer = io.BytesIO()
        strategy.save(buffer)
        payload = buffer.getvalue()
        digest = _sha256(payload)
        if not path.exists() or _sha256(path.read_bytes()) != digest:
            _atomic_write_bytes(path, payload)
        self._strategy_digests[cache_key] = (strategy, digest)
        return digest

    def save_frozen(self, frozen: list, *, wal_sequence: int | None = None) -> dict:
        """Write a checkpoint from ``(campaign, accumulator snapshot,
        adaptive snapshot)`` triples captured by the caller (pairs are
        accepted for non-adaptive callers).

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
        for item in frozen:
            campaign, snapshot = item[0], item[1]
            adaptive = item[2] if len(item) > 2 else campaign.freeze_adaptive()
            edge_sequences = (
                item[3] if len(item) > 3 else dict(campaign.edge_sequences)
            )
            session = adaptive.session if adaptive else campaign.session
            strategy_sha = self._write_strategy(
                campaign.name, session.strategy, self.strategy_path(campaign.name)
            )
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
            if adaptive is not None:
                rounds = []
                for record in adaptive.rounds:
                    round_key = f"{campaign.name}@r{record.round_id}"
                    round_sha = self._write_strategy(
                        round_key,
                        record.session.strategy,
                        self.strategy_path(campaign.name, record.round_id),
                    )
                    round_payload = record.accumulator.to_bytes()
                    round_file = self.accumulator_path(
                        campaign.name, record.round_id
                    )
                    round_digest = _sha256(round_payload)
                    # Frozen-round accumulators never change; skip the
                    # rewrite when the file already matches.
                    if (
                        not round_file.exists()
                        or _sha256(round_file.read_bytes()) != round_digest
                    ):
                        _atomic_write_bytes(round_file, round_payload)
                    rounds.append(
                        {
                            "round": record.round_id,
                            "selected_group": record.selected_group,
                            "num_reports": record.accumulator.num_reports,
                            "strategy_sha256": round_sha,
                            "accumulator_sha256": round_digest,
                        }
                    )
                entry["adaptive"] = {
                    "plan": adaptive.plan.to_json(),
                    "ledger": adaptive.ledger_json,
                    "current_round": adaptive.current_round,
                    "rounds": rounds,
                }
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

    def _load_rounds(
        self, name: str, adaptive_entry: dict, workload
    ) -> list[RoundRecord]:
        """Rebuild the completed-round history of one adaptive campaign."""
        rounds = []
        for row in adaptive_entry.get("rounds", []):
            round_id = int(row["round"])
            session = self._load_session(
                name,
                self.strategy_path(name, round_id),
                row.get("strategy_sha256"),
                workload,
            )
            payload = self._verify_payload(
                name,
                self.accumulator_path(name, round_id),
                row.get("accumulator_sha256"),
            )
            accumulator = ShardAccumulator.from_bytes(payload)
            if accumulator.round_id != round_id:
                raise ServiceError(
                    f"checkpoint for campaign {name!r}: round-{round_id} "
                    f"accumulator is tagged round {accumulator.round_id}"
                )
            if accumulator.num_reports != int(row.get("num_reports", -1)):
                raise ServiceError(
                    f"checkpoint for campaign {name!r} disagrees with its "
                    f"manifest: round-{round_id} accumulator holds "
                    f"{accumulator.num_reports} reports, manifest recorded "
                    f"{row.get('num_reports')}"
                )
            rounds.append(
                RoundRecord(
                    round_id=round_id,
                    session=session,
                    accumulator=accumulator,
                    selected_group=int(row["selected_group"]),
                )
            )
        return rounds

    def _load_campaign(self, name: str, entry: dict) -> Campaign:
        validate_campaign_name(name)
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
            adaptive_entry = entry.get("adaptive")
            plan = None
            ledger = None
            rounds: list[RoundRecord] = []
            current_round = 0
            if adaptive_entry is not None:
                plan = AdaptivePlan.from_json(adaptive_entry["plan"])
                ledger = BudgetLedger.from_json(adaptive_entry["ledger"])
                current_round = int(adaptive_entry["current_round"])
                rounds = self._load_rounds(name, adaptive_entry, workload)
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
            adaptive=plan,
            ledger=ledger,
            rounds=rounds,
            current_round=current_round,
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
