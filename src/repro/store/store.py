"""Disk-backed, content-addressed store for optimized strategies.

The paper's Section 4 makes strategy optimization a *public* precomputation:
it consumes no privacy budget and depends only on the workload's Gram
matrix, the budget, and the optimizer configuration.  That makes optimized
strategies reusable artifacts — the expensive PGD run happens once, and
every later process (experiment sweeps, collection campaigns, CI) reloads
the result instead of re-optimizing.

Layout under the store root::

    root/
      index.json              one JSON record per entry (provenance + LRU)
      entries/<entry_id>.npz  strategy + trajectory, content-addressed

One ``put``/``get``/``load`` serves both strategy kinds: a dense
:class:`~repro.mechanisms.base.StrategyMatrix` build and a
Kronecker-factored :class:`~repro.mechanisms.factored.FactoredStrategy`
build differ only in their payload arrays, and the index row's ``kind``
column says which one an entry holds.

Guarantees:

* **Atomic writes** — payloads and the index are written to a temp file and
  ``os.replace``-d into place, so readers never observe a half-written
  entry, even if the writer dies mid-``put``.
* **Integrity** — every payload's SHA-256 is recorded in the index and
  re-checked on load; the strategy matrix is re-validated (column
  stochasticity + the epsilon-LDP ratio) when reconstructed, so a corrupted
  or tampered file can neither crash the caller nor smuggle in a privacy
  violation.  Corrupt entries are evicted on discovery and reported as
  misses.
* **LRU pruning** — :meth:`StrategyStore.prune` evicts least-recently-used
  entries to a count or byte budget.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from repro.exceptions import StoreError
from repro.mechanisms.base import StrategyMatrix
from repro.mechanisms.factored import FactoredStrategy
from repro.optimization.factored import (
    FactoredOptimizationResult,
    FactoredOptimizerConfig,
)
from repro.optimization.pgd import OptimizationResult, OptimizerConfig
from repro.store.keys import (
    StrategyKey,
    _canonical_value,
    canonical_epsilon,
    gram_fingerprint,
)
from repro.workloads.base import Workload

#: On-disk format version; bumped on incompatible payload changes.
STORE_VERSION = 1

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"


def default_store_path() -> Path:
    """The default store root: ``$REPRO_STORE_DIR`` or a per-user cache dir.

    Examples
    --------
    >>> import os
    >>> saved = os.environ.pop(STORE_ENV_VAR, None)
    >>> os.environ[STORE_ENV_VAR] = "/tmp/my-strategies"
    >>> str(default_store_path())
    '/tmp/my-strategies'
    >>> del os.environ[STORE_ENV_VAR]
    >>> if saved is not None:
    ...     os.environ[STORE_ENV_VAR] = saved
    """
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "strategies"


def _library_version() -> str:
    from repro._version import __version__

    return __version__


def _sha256_bytes(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()


def _sha256_file(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class StoreRecord:
    """One index row: everything known about a stored strategy except the
    matrix itself (kept small so listing never loads payloads)."""

    entry_id: str
    gram_hash: str
    domain_size: int
    epsilon: float
    config_hash: str
    workload: str | None
    num_outputs: int
    objective: float
    iterations_run: int
    step_size: float
    payload_sha256: str
    size_bytes: int
    created_at: float
    last_used_at: float
    library_version: str
    #: ``"dense"`` for ordinary strategy matrices, ``"factored"`` for
    #: Kronecker-factorized builds; defaulted so indexes written before the
    #: column existed still parse.
    kind: str = "dense"

    @property
    def key(self) -> StrategyKey:
        """The addressing key this record answers to."""
        return StrategyKey(
            self.gram_hash, self.domain_size, self.epsilon, self.config_hash
        )


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically and durably (temp file +
    fsync + rename + parent-directory fsync).

    The final directory fsync matters: ``os.replace`` only updates the
    directory entry, and that metadata lives in the *directory*, not the
    file — without it a power failure can durably keep the payload bytes
    yet forget the rename, resurrecting the old file (or none at all).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _encode_payload(
    result: OptimizationResult | FactoredOptimizationResult,
) -> tuple[str, dict[str, np.ndarray]]:
    """The kind and the strategy-specific payload arrays of one result.

    A dense payload keeps the strategy matrix, its corridor bounds, the
    objective trajectory and the step size.  A factored payload keeps only
    the per-factor matrices — ``O(sum_i m_i d_i)`` bytes however large the
    flat domain — with each factor's budget, plus the per-factor objectives
    and a ``kind`` field.  Dense payloads have no ``kind`` field, as they
    had none before factored builds existed.
    """
    strategy = result.strategy
    if isinstance(strategy, FactoredStrategy):
        arrays = {
            "kind": np.asarray("factored"),
            "num_factors": np.asarray(strategy.num_attributes, dtype=np.int64),
            "factor_objectives": np.asarray(result.factor_objectives, dtype=float),
            "rounds_run": np.asarray(result.rounds_run, dtype=np.int64),
            "iterations_run": np.asarray(result.iterations_run, dtype=np.int64),
        }
        for index, factor in enumerate(strategy.factors):
            arrays[f"factor_{index}_probabilities"] = factor.probabilities
            arrays[f"factor_{index}_epsilon"] = np.asarray(factor.epsilon)
            arrays[f"factor_{index}_name"] = np.asarray(factor.name)
        return "factored", arrays
    return "dense", {
        "probabilities": strategy.probabilities,
        "bounds": np.asarray(result.bounds, dtype=float),
        "history": np.asarray(result.history, dtype=float),
        "step_size": np.asarray(result.step_size),
        "iterations_run": np.asarray(result.iterations_run),
    }


def _decode_payload(
    archive, kind: str
) -> OptimizationResult | FactoredOptimizationResult:
    """Rebuild the result :func:`_encode_payload` wrote.  Every strategy
    matrix goes back through :class:`StrategyMatrix`, which re-checks
    column stochasticity and the epsilon-LDP ratio."""
    if kind == "factored":
        factors = tuple(
            StrategyMatrix(
                archive[f"factor_{index}_probabilities"],
                float(archive[f"factor_{index}_epsilon"]),
                name=str(archive[f"factor_{index}_name"]),
            )
            for index in range(int(archive["num_factors"]))
        )
        return FactoredOptimizationResult(
            strategy=FactoredStrategy(factors, name=str(archive["strategy_name"])),
            objective=float(archive["objective"]),
            factor_objectives=[float(value) for value in archive["factor_objectives"]],
            rounds_run=int(archive["rounds_run"]),
            iterations_run=int(archive["iterations_run"]),
        )
    return OptimizationResult(
        strategy=StrategyMatrix(
            archive["probabilities"],
            float(archive["epsilon"]),
            name=str(archive["strategy_name"]),
        ),
        bounds=np.asarray(archive["bounds"], dtype=float),
        objective=float(archive["objective"]),
        step_size=float(archive["step_size"]),
        iterations_run=int(archive["iterations_run"]),
        history=list(np.asarray(archive["history"], dtype=float)),
    )


class StrategyStore:
    """Persistent map from :class:`~repro.store.keys.StrategyKey` to
    :class:`~repro.optimization.pgd.OptimizationResult` (dense entries) or
    :class:`~repro.optimization.factored.FactoredOptimizationResult`
    (factored entries).

    Parameters
    ----------
    root:
        Directory holding the index and payloads; created on first write.

    Examples
    --------
    >>> import tempfile
    >>> from repro.optimization import OptimizerConfig, optimize_strategy
    >>> from repro.store import key_for
    >>> from repro.workloads import histogram
    >>> workload = histogram(4)
    >>> config = OptimizerConfig(num_iterations=30, seed=0)
    >>> result = optimize_strategy(workload, 1.0, config)
    >>> root = tempfile.mkdtemp()
    >>> store = StrategyStore(root)
    >>> key = key_for(workload, 1.0, config)
    >>> record = store.put(key, result, workload=workload.name)
    >>> reloaded = store.get(key)
    >>> bool((reloaded.strategy.probabilities
    ...       == result.strategy.probabilities).all())
    True
    >>> store.get(key_for(workload, 2.0, config)) is None
    True
    """

    def __init__(self, root: os.PathLike | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_path()

    # -- paths & index -----------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    def entry_path(self, entry_id: str) -> Path:
        return self.entries_dir / f"{entry_id}.npz"

    @contextmanager
    def _index_lock(self):
        """Best-effort inter-process lock around index read-modify-writes.

        Uses an ``flock`` on a sidecar lock file so concurrent ``put``/LRU
        updates from different processes sharing one store cannot lose each
        other's index rows.  Degrades to lock-free on filesystems or
        platforms where the lock cannot be taken (e.g. a read-only mount) —
        atomic index replacement still keeps readers consistent.
        """
        handle = None
        try:
            import fcntl

            self.root.mkdir(parents=True, exist_ok=True)
            handle = open(self.root / "index.lock", "a+b")
            fcntl.flock(handle, fcntl.LOCK_EX)
        except (ImportError, OSError):
            if handle is not None:
                handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    import fcntl

                    fcntl.flock(handle, fcntl.LOCK_UN)
                except (ImportError, OSError):
                    pass
                handle.close()

    def _read_index(self) -> dict[str, dict]:
        if not self.index_path.exists():
            return {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(f"unreadable store index {self.index_path}: {error}")
        if document.get("store_version") != STORE_VERSION:
            raise StoreError(
                f"store index version {document.get('store_version')!r} != "
                f"supported version {STORE_VERSION}"
            )
        return document.get("entries", {})

    def _write_index(self, entries: dict[str, dict]) -> None:
        document = {"store_version": STORE_VERSION, "entries": entries}
        _atomic_write_bytes(
            self.index_path,
            json.dumps(document, indent=2, sort_keys=True).encode("utf-8"),
        )

    @staticmethod
    def _record_from_row(row: dict) -> StoreRecord:
        values = {}
        for field in fields(StoreRecord):
            if field.name in row:
                values[field.name] = row[field.name]
            elif field.default is not MISSING:
                values[field.name] = field.default
            else:
                raise StoreError(f"index row missing field {field.name!r}")
        return StoreRecord(**values)

    # -- write path --------------------------------------------------------

    def put(
        self,
        key: StrategyKey,
        result: OptimizationResult | FactoredOptimizationResult,
        workload: str | Workload | None = None,
        config: OptimizerConfig | FactoredOptimizerConfig | None = None,
        notes: dict | None = None,
    ) -> StoreRecord:
        """Persist a dense or factored optimization result under ``key``
        (overwrites).

        The result's strategy type picks the payload format (see
        :func:`_encode_payload`) and the index row's ``kind``.  Either way
        the payload carries full provenance: the objective, the Gram hash,
        the canonicalized config, the library version that produced it,
        and any caller ``notes`` (e.g. whether a warm start from another
        entry produced the winner — important because a warm-started winner
        depends on what the store held at build time, not on the key
        alone).
        """
        strategy = result.strategy
        if canonical_epsilon(strategy.epsilon) != key.epsilon:
            raise StoreError(
                f"result epsilon {strategy.epsilon!r} does not match "
                f"key epsilon {key.epsilon!r}"
            )
        if strategy.domain_size != key.domain_size:
            raise StoreError(
                f"result domain {strategy.domain_size} does not match "
                f"key domain {key.domain_size}"
            )
        if isinstance(workload, Workload):
            workload = workload.name
        config_provenance = None
        if config is not None:
            config_provenance = {
                field.name: _canonical_value(getattr(config, field.name))
                for field in fields(config)
            }
        kind, arrays = _encode_payload(result)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            store_version=np.asarray(STORE_VERSION),
            objective=np.asarray(result.objective),
            epsilon=np.asarray(key.epsilon),
            gram_hash=np.asarray(key.gram_hash),
            config_hash=np.asarray(key.config_hash),
            strategy_name=np.asarray(strategy.name),
            config_json=np.asarray(
                json.dumps(config_provenance, sort_keys=True)
            ),
            notes_json=np.asarray(json.dumps(notes or {}, sort_keys=True)),
            library_version=np.asarray(_library_version()),
            **arrays,
        )
        payload = buffer.getvalue()
        _atomic_write_bytes(self.entry_path(key.entry_id), payload)

        now = time.time()
        record = StoreRecord(
            entry_id=key.entry_id,
            gram_hash=key.gram_hash,
            domain_size=key.domain_size,
            epsilon=key.epsilon,
            config_hash=key.config_hash,
            workload=workload,
            num_outputs=strategy.num_outputs,
            objective=float(result.objective),
            iterations_run=int(result.iterations_run),
            step_size=float(arrays.get("step_size", 0.0)),
            payload_sha256=_sha256_bytes(payload),
            size_bytes=len(payload),
            created_at=now,
            last_used_at=now,
            library_version=_library_version(),
            kind=kind,
        )
        with self._index_lock():
            entries = self._read_index()
            entries[key.entry_id] = asdict(record)
            self._write_index(entries)
        return record

    # -- read path ---------------------------------------------------------

    def get(
        self, key: StrategyKey
    ) -> OptimizationResult | FactoredOptimizationResult | None:
        """Look up a result by exact key; ``None`` on miss.

        A corrupt entry (truncated payload, checksum mismatch, payload kind
        disagreeing with the index, invalid strategy) is evicted and
        reported as a miss rather than raised, so a damaged cache degrades
        to recomputation instead of failure.  The LRU timestamp update is
        best-effort: reading from a store on a read-only filesystem still
        works, it just loses recency tracking.
        """
        row = self._read_index().get(key.entry_id)
        if row is None:
            return None
        try:
            result = self._load_validated(self._record_from_row(row))
        except StoreError:
            self.discard(key.entry_id)
            return None
        try:
            with self._index_lock():
                entries = self._read_index()
                touched = entries.get(key.entry_id)
                if touched is not None:
                    touched["last_used_at"] = time.time()
                    self._write_index(entries)
        except (OSError, StoreError):
            pass
        return result

    def load(
        self, entry_id: str
    ) -> OptimizationResult | FactoredOptimizationResult:
        """Load one entry by id, verifying integrity; raises on any damage.

        Returns an :class:`~repro.optimization.pgd.OptimizationResult` for
        a dense entry and a
        :class:`~repro.optimization.factored.FactoredOptimizationResult`
        for a factored one.

        Raises
        ------
        StoreError
            If the entry is missing, its checksum does not match the index,
            its payload kind disagrees with the index row's ``kind``, or the
            payload fails validation (including the strategy's epsilon-LDP
            re-check).
        """
        return self._load_validated(self.record(entry_id))

    def _load_validated(
        self, record: StoreRecord
    ) -> OptimizationResult | FactoredOptimizationResult:
        entry_id = record.entry_id
        path = self.entry_path(entry_id)
        if not path.exists():
            raise StoreError(f"store entry {entry_id!r} payload is missing")
        if _sha256_file(path) != record.payload_sha256:
            raise StoreError(
                f"store entry {entry_id!r} failed its checksum "
                "(truncated or tampered payload)"
            )
        try:
            with np.load(path, allow_pickle=False) as archive:
                if int(archive["store_version"]) != STORE_VERSION:
                    raise StoreError(
                        f"entry {entry_id!r} has store version "
                        f"{int(archive['store_version'])}, expected {STORE_VERSION}"
                    )
                # Dense payloads carry no kind field (see _encode_payload).
                kind = str(archive["kind"]) if "kind" in archive.files else "dense"
                if kind != record.kind:
                    raise StoreError(
                        f"entry {entry_id!r} payload kind {kind!r} != "
                        f"index kind {record.kind!r}"
                    )
                return _decode_payload(archive, kind)
        except StoreError:
            raise
        except Exception as error:  # zip damage, missing fields, bad matrix
            raise StoreError(f"store entry {entry_id!r} is corrupt: {error}")

    def provenance(self, entry_id: str) -> dict:
        """The provenance block of one entry (config, versions, hashes)."""
        record = self.record(entry_id)
        path = self.entry_path(entry_id)
        try:
            with np.load(path, allow_pickle=False) as archive:
                config_json = str(archive["config_json"])
                notes_json = (
                    str(archive["notes_json"])
                    if "notes_json" in archive.files
                    else "{}"
                )
                library_version = str(archive["library_version"])
                history = (
                    np.asarray(archive["history"], dtype=float)
                    if "history" in archive.files
                    else np.zeros(0)
                )
        except Exception as error:
            raise StoreError(f"store entry {entry_id!r} is corrupt: {error}")
        return {
            "record": asdict(record),
            "config": json.loads(config_json),
            "notes": json.loads(notes_json),
            "library_version": library_version,
            "objective_trajectory_length": int(history.shape[0]),
            "objective_trajectory_head": [float(v) for v in history[:3]],
            "objective_trajectory_tail": [float(v) for v in history[-3:]],
        }

    def record(self, entry_id: str) -> StoreRecord:
        """The index record for one entry id."""
        row = self._read_index().get(entry_id)
        if row is None:
            raise StoreError(f"no store entry {entry_id!r}")
        return self._record_from_row(row)

    def records(self) -> list[StoreRecord]:
        """All index records, newest first."""
        rows = [self._record_from_row(row) for row in self._read_index().values()]
        return sorted(rows, key=lambda record: record.created_at, reverse=True)

    def __len__(self) -> int:
        return len(self._read_index())

    def __contains__(self, key: StrategyKey) -> bool:
        return key.entry_id in self._read_index()

    # -- secondary lookups -------------------------------------------------

    def best_for(
        self, gram: np.ndarray | Workload, epsilon: float
    ) -> StoreRecord | None:
        """The lowest-objective entry for a workload/budget, any config.

        This is the deployment-side query: "give me the best strategy anyone
        has built for this workload at this epsilon".  It matches dense
        rows only, so :meth:`load` of the answer is always a dense result.
        """
        target_hash = gram_fingerprint(gram)
        target_epsilon = canonical_epsilon(epsilon)
        matches = [
            record
            for record in self.records()
            if record.gram_hash == target_hash
            and record.epsilon == target_epsilon
            and record.kind == "dense"
        ]
        if not matches:
            return None
        return min(matches, key=lambda record: record.objective)

    def nearest(
        self,
        gram: np.ndarray | Workload,
        epsilon: float,
        max_log_ratio: float = float("inf"),
    ) -> StoreRecord | None:
        """The entry for the same workload whose epsilon is closest on a log
        scale — the warm-start candidate for a new budget.

        ``max_log_ratio`` bounds ``|log(stored_eps / target_eps)|``; beyond
        it a warm start is unlikely to beat a random init and ``None`` is
        returned.  Like :meth:`best_for`, it matches dense rows only.
        """
        target_hash = gram_fingerprint(gram)
        target_epsilon = canonical_epsilon(epsilon)
        best: StoreRecord | None = None
        best_distance = max_log_ratio
        for record in self.records():
            if record.gram_hash != target_hash or record.kind != "dense":
                continue
            distance = abs(float(np.log(record.epsilon / target_epsilon)))
            if distance <= best_distance:
                if (
                    best is None
                    or distance < best_distance
                    or record.objective < best.objective
                ):
                    best, best_distance = record, distance
        return best

    # -- eviction ----------------------------------------------------------

    def discard(self, entry_id: str) -> bool:
        """Remove one entry (payload + index row); True if it existed.

        Best-effort on read-only filesystems: a store that cannot be
        written is left unchanged and the entry is reported as absent.
        """
        try:
            self.entry_path(entry_id).unlink()
        except OSError:
            pass
        try:
            with self._index_lock():
                entries = self._read_index()
                existed = entries.pop(entry_id, None) is not None
                if existed:
                    self._write_index(entries)
        except (OSError, StoreError):
            return False
        return existed

    def prune(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> list[StoreRecord]:
        """Evict least-recently-used entries down to the given budgets.

        Returns the evicted records (possibly empty).  With neither budget
        set this is a no-op.
        """
        if max_entries is not None and max_entries < 0:
            raise StoreError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        records = sorted(self.records(), key=lambda record: record.last_used_at)
        keep = list(records)
        evicted: list[StoreRecord] = []
        while keep:
            over_count = max_entries is not None and len(keep) > max_entries
            over_bytes = (
                max_bytes is not None
                and sum(record.size_bytes for record in keep) > max_bytes
            )
            if not (over_count or over_bytes):
                break
            evicted.append(keep.pop(0))
        for record in evicted:
            self.discard(record.entry_id)
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        records = self.records()
        for record in records:
            self.discard(record.entry_id)
        return len(records)

    def __repr__(self) -> str:
        return f"StrategyStore(root={str(self.root)!r}, entries={len(self)})"
