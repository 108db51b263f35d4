"""Durable ingest write-ahead log: ack means *on disk*.

The service's periodic checkpoints bound crash loss to one
``checkpoint_interval`` of reports — acceptable for telemetry, wrong for
the paper's estimator, which assumes every contributed LDP report reaches
the aggregate exactly once: dropped acked reports bias the estimate,
replayed ones double-count.  This module closes that window.  Every
*accepted* ingest body (the raw JSON or binary-frame bytes, exactly as
they arrived) is appended here and fsynced **before the HTTP ack is
written**, so after any crash the recovery path can rebuild the
pre-crash state bit-identically: load the last checkpoint, then re-fold
the WAL suffix through the same validation/fold code the live path uses.

Record format (little-endian, one per accepted body)::

    offset  size  field
    0       4     magic  b"RWAL"
    4       4     CRC32 of everything after this field (header tail +
                  campaign + body)
    8       8     sequence  (monotonic, never reused, starts at 1)
    16      1     kind      (1=json single, 2=json batch, 3=frames,
                             4=edge partial, 5=abort tombstone)
    17      1     reserved, written as 0 (older logs stored a round tag
                  here; readers ignore it)
    18      2     campaign-name length  (partial records only)
    20      4     body length
    24      -     campaign name bytes + body bytes

Segments (``segment-<first sequence, 16 digits>.wal``) rotate by size and
are strictly append-only.  Durability is group-committed: any number of
``append`` calls may be awaiting one fsync; the flusher writes them in
sequence order and resolves them together, so under load the fsync cost
amortizes across the batch while an idle service still pays only one
fsync of latency per report.

A write or fsync failure at runtime (disk full, I/O error) fail-stops
the log: the appends awaiting that batch and every later one raise
:class:`~repro.exceptions.ServiceError`, so no ack is ever sent for a
record whose durability is unknown — the failure surfaces like a crash,
and recovery cuts the log at the last valid record.

Recovery tolerates exactly the damage a crash can cause: a torn tail
(partial final record) is cut at the last valid record and the file is
truncated to that point.  Anything else — a flipped bit, a bad CRC or
magic *followed by* more data, a sequence that jumps — fails loudly via
:class:`~repro.exceptions.ServiceError`: it is not crash damage but
corruption, and replaying around it would silently drop acked reports.

A successful checkpoint records the highest WAL sequence it covers in its
manifest and then :meth:`~WriteAheadLog.truncate`\\ s the segments that
hold only covered records — the steady-state WAL stays small, and the
replay-on-recovery set is exactly ``sequence > manifest.wal_sequence``.
"""

from __future__ import annotations

import asyncio
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ServiceError

#: Record kinds (see module docstring).
KIND_JSON_SINGLE = 1
KIND_JSON_BATCH = 2
KIND_FRAMES = 3
KIND_PARTIAL = 4
#: Tombstone: the body is the 8-byte sequence of an earlier record whose
#: fold *failed* after the append (validation 400, or no worker could take
#: it).  Replay skips aborted records — without this, a client that saw a
#: 503 and retried would double-count after the next recovery replays the
#: never-folded first attempt.
KIND_ABORT = 5

_KINDS = (KIND_JSON_SINGLE, KIND_JSON_BATCH, KIND_FRAMES, KIND_PARTIAL, KIND_ABORT)

_MAGIC = b"RWAL"

#: magic, crc32, sequence, kind, reserved, name_len, body_len
_HEADER = struct.Struct("<4sIQBBHI")

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 16 << 20

_SEGMENT_RE = re.compile(r"^segment-(\d{16})\.wal$")


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so entry creates/renames/unlinks are durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    sequence: int
    kind: int
    campaign: str
    body: bytes


def encode_record(
    sequence: int,
    kind: int,
    body: bytes,
    *,
    campaign: str = "",
) -> bytes:
    """Serialize one record (exposed for tests and offline tooling)."""
    if kind not in _KINDS:
        raise ServiceError(f"unknown WAL record kind {kind!r}")
    name = campaign.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ServiceError("campaign name too long for a WAL record")
    tail = _HEADER.pack(
        _MAGIC,
        0,
        sequence,
        kind,
        0,
        len(name),
        len(body),
    )[8:]
    crc = zlib.crc32(tail + name + body) & 0xFFFFFFFF
    return _MAGIC + struct.pack("<I", crc) + tail + name + body


def _decode_one(buffer: bytes, offset: int) -> tuple[WalRecord, int] | None:
    """Decode the record at ``offset``; ``None`` = torn (ran out of
    bytes).  Raises :class:`ServiceError` on structural damage that is
    not a clean truncation (bad magic, CRC mismatch, absurd lengths)."""
    if offset + _HEADER.size > len(buffer):
        return None
    magic, crc, sequence, kind, _, name_len, body_len = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != _MAGIC:
        raise ServiceError(
            f"WAL record at byte {offset} has bad magic {magic!r}"
        )
    if kind not in _KINDS:
        raise ServiceError(
            f"WAL record {sequence} at byte {offset} has unknown kind {kind}"
        )
    end = offset + _HEADER.size + name_len + body_len
    if end > len(buffer):
        return None  # torn mid-payload
    payload = buffer[offset + 8 : end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ServiceError(
            f"WAL record {sequence} at byte {offset} failed its CRC32; "
            "refusing to replay corrupt bytes"
        )
    name_end = offset + _HEADER.size + name_len
    record = WalRecord(
        sequence=sequence,
        kind=kind,
        campaign=buffer[offset + _HEADER.size : name_end].decode("utf-8"),
        body=bytes(buffer[name_end:end]),
    )
    return record, end


def read_segment(path: Path) -> tuple[list[WalRecord], int]:
    """Decode one segment file; returns ``(records, valid_bytes)``.

    A torn tail — a final record with fewer bytes than its header
    promises, or a trailing partial header — is *cut*: the records before
    it are returned and ``valid_bytes`` marks where the damage starts.
    Damage that cannot be a torn append (bad magic or CRC **followed by
    further valid-looking bytes**, out-of-order sequences) raises
    :class:`ServiceError` instead: that is corruption, not a crash.
    """
    buffer = path.read_bytes()
    records: list[WalRecord] = []
    offset = 0
    while offset < len(buffer):
        try:
            decoded = _decode_one(buffer, offset)
        except ServiceError:
            # Damage at the very tail is indistinguishable from a torn
            # final write whose bytes landed out of order (the disk may
            # persist sectors in any order): cut there.  Damage with a
            # *complete, valid* record after it cannot be a torn append.
            if _has_valid_record_after(buffer, offset):
                raise
            break
        if decoded is None:
            break  # clean torn tail
        record, offset = decoded
        if records and record.sequence != records[-1].sequence + 1:
            raise ServiceError(
                f"WAL segment {path.name} jumps from sequence "
                f"{records[-1].sequence} to {record.sequence}; "
                "refusing to replay around a gap"
            )
        records.append(record)
    return records, offset


def _has_valid_record_after(buffer: bytes, damage_offset: int) -> bool:
    """Scan past a damaged region for any complete, CRC-valid record —
    the signature of mid-file corruption rather than a torn tail."""
    search = buffer.find(_MAGIC, damage_offset + 1)
    while search != -1:
        try:
            if _decode_one(buffer, search) is not None:
                return True
        except ServiceError:
            pass
        search = buffer.find(_MAGIC, search + 1)
    return False


class WriteAheadLog:
    """Append-only, group-committed WAL over one directory.

    All coroutine methods run on the service's event loop; file reads for
    recovery/replay are synchronous (callers wrap them in
    ``asyncio.to_thread`` when latency matters).

    Parameters
    ----------
    directory:
        Segment directory; created on :meth:`start`.
    segment_bytes:
        Rotate the active segment once it exceeds this size.
    fsync:
        ``False`` trades durability for speed (tests, benchmark floors
        for the no-durability comparison); the append protocol and
        recovery semantics are unchanged.
    """

    def __init__(
        self,
        directory,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
    ) -> None:
        if segment_bytes < 1024:
            raise ServiceError(
                f"segment_bytes must be >= 1024, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self.last_sequence = 0
        # Telemetry counters (plain ints; the service exposes them).
        self.appends_total = 0
        self.fsync_batches_total = 0
        self.bytes_written_total = 0
        self.truncations_total = 0
        #: Records re-dispatched from disk (startup replay + worker
        #: restores); bumped by the callers that replay.
        self.replayed_records_total = 0
        self._handle = None
        self._active_path: Path | None = None
        self._active_size = 0
        self._active_first_seq = 0
        self._active_last_seq = 0
        self._pending: list[tuple[bytes, int, asyncio.Future]] = []
        #: True while a swapped-out batch is being written on the flush
        #: thread; :meth:`truncate` (loop-side) must not close or unlink
        #: the active segment under it.
        self._flushing = False
        #: Set (to the error message) after any write/fsync failure; the
        #: WAL is then fail-stop — every append raises — because the disk
        #: state past the last good batch is unknown.
        self._failed: str | None = None
        self._kick: asyncio.Event | None = None
        self._flusher: asyncio.Task | None = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def segment_paths(self) -> list[Path]:
        """Existing segment files, in sequence order."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def scan(self) -> list[WalRecord]:
        """Read every record from disk, cutting torn tails (and truncating
        the damaged bytes so the next append starts clean).  Returns the
        records in sequence order; also positions :attr:`last_sequence`.

        Called once before :meth:`start`; the result is the replay set
        (the caller filters out sequences the last checkpoint covers).
        """
        if self._started:
            raise ServiceError("scan() must run before the WAL starts")
        records: list[WalRecord] = []
        for path in self.segment_paths():
            segment_records, valid_bytes = read_segment(path)
            if valid_bytes < path.stat().st_size:
                # Cut the torn tail now, so the next append never lands
                # after damaged bytes.
                with open(path, "rb+") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            if segment_records:
                # Truncation only ever removes *prefix* segments, so the
                # surviving log must be one contiguous sequence run; a gap
                # or overlap between segments is corruption, not a crash.
                if (
                    records
                    and segment_records[0].sequence != records[-1].sequence + 1
                ):
                    raise ServiceError(
                        f"WAL segment {path.name} starts at sequence "
                        f"{segment_records[0].sequence} but the previous "
                        f"segment ended at {records[-1].sequence}; refusing "
                        "to replay around a gap"
                    )
                records.extend(segment_records)
        if records:
            self.last_sequence = records[-1].sequence
        return records

    async def start(self) -> None:
        """Create the directory, position after any existing records, and
        start the group-commit flusher."""
        if self._started:
            raise ServiceError("WAL already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.last_sequence == 0 and self.segment_paths():
            self.scan()  # crash between construction and start()
        segments = self.segment_paths()
        if segments:
            path = segments[-1]
            records, valid_bytes = read_segment(path)
            self._active_path = path
            self._active_size = valid_bytes
            self._active_first_seq = int(
                _SEGMENT_RE.match(path.name).group(1)
            )
            self._active_last_seq = (
                records[-1].sequence if records else self._active_first_seq - 1
            )
            self._handle = open(path, "ab")
        self._kick = asyncio.Event()
        self._flusher = asyncio.create_task(
            self._flush_loop(), name="wal-flusher"
        )
        self._started = True

    async def stop(self) -> None:
        """Flush everything pending, then stop the flusher."""
        if not self._started:
            return
        self._started = False
        # Wake the flusher; it drains whatever is pending, then exits on
        # its own (no cancel — cancelling mid-flush would strand a batch
        # whose futures never resolve).
        self._kick.set()
        if self._flusher is not None:
            await asyncio.gather(self._flusher, return_exceptions=True)
            self._flusher = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- appending ---------------------------------------------------------

    async def append(
        self, kind: int, body: bytes, *, campaign: str = ""
    ) -> int:
        """Append one record and wait until it is durably on disk (one
        group-committed fsync may cover many concurrent appends).
        Returns the record's sequence number."""
        if not self._started:
            raise ServiceError("WAL is not running")
        if self._failed is not None:
            raise ServiceError(self._failed)
        self.last_sequence += 1
        sequence = self.last_sequence
        payload = encode_record(sequence, kind, body, campaign=campaign)
        future = asyncio.get_running_loop().create_future()
        self._pending.append((payload, sequence, future))
        self._kick.set()
        await future
        return sequence

    async def append_abort(self, aborted_sequence: int) -> int:
        """Mark an earlier record as never-folded (see :data:`KIND_ABORT`);
        replay will skip it.  Durable before the caller's error response,
        like any other append."""
        return await self.append(
            KIND_ABORT, struct.pack("<Q", int(aborted_sequence))
        )

    @staticmethod
    def aborted_sequences(records) -> set[int]:
        """The set of sequences tombstoned by abort records in ``records``."""
        return {
            struct.unpack("<Q", record.body)[0]
            for record in records
            if record.kind == KIND_ABORT
        }

    async def _flush_loop(self) -> None:
        while self._started or self._pending:
            await self._kick.wait()
            self._kick.clear()
            while self._pending:
                # Swap the batch out *here*, so the failure path below
                # still holds it — if the write/fsync raises, every
                # appender in the batch gets the error instead of
                # hanging forever on an unresolved future.
                batch, self._pending = self._pending, []
                if self._failed is None:
                    self._flushing = True
                    try:
                        await asyncio.to_thread(self._flush_batch, batch)
                    except Exception as error:  # noqa: BLE001 - fail appenders
                        # Fail-stop: a failed write may have left a partial
                        # batch on disk, and the failed appends consumed
                        # sequences — writing anything after them would
                        # land behind damaged bytes or leave a sequence
                        # gap that recovery correctly refuses.  Surface
                        # the error like a crash: this batch and every
                        # later append fail loudly; recovery cuts the log
                        # at the last valid record.
                        self._failed = f"WAL write failed: {error}"
                    finally:
                        self._flushing = False
                if self._failed is not None:
                    for _, _, future in batch:
                        if not future.done():
                            future.set_exception(ServiceError(self._failed))
                else:
                    for _, _, future in batch:
                        if not future.done():
                            future.set_result(None)

    def _flush_batch(self, batch) -> None:
        """Write + fsync one swapped-out batch (group commit).  Runs on a
        worker thread so the fsync — milliseconds on a loaded disk — never
        stalls the event loop; ordering needs no locks because the single
        flusher awaits each batch before swapping out the next."""
        for payload, sequence, _ in batch:
            self._ensure_segment(len(payload), sequence)
            self._handle.write(payload)
            self._active_size += len(payload)
            self._active_last_seq = sequence
            self.bytes_written_total += len(payload)
            self.appends_total += 1
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.fsync_batches_total += 1

    def _ensure_segment(self, record_bytes: int, sequence: int) -> None:
        """Open (rotating if needed) the segment that will hold the record
        about to be written; segment files are named by their first
        sequence."""
        if (
            self._handle is not None
            and self._active_size + record_bytes > self.segment_bytes
            and self._active_size > 0
        ):
            self._handle.close()
            self._handle = None
            self._active_path = None
        if self._handle is None:
            path = self.directory / f"segment-{sequence:016d}.wal"
            self._handle = open(path, "ab")
            self._active_path = path
            self._active_size = 0
            self._active_first_seq = sequence
            _fsync_dir(self.directory)

    # -- reading / truncation ---------------------------------------------

    def read_records(
        self, *, min_sequence: int = 0, sequences=None
    ) -> list[WalRecord]:
        """Decode records from disk: everything with ``sequence >
        min_sequence``, optionally restricted to an explicit ``sequences``
        set (worker-restore replay).  Synchronous — run off-loop for big
        logs."""
        wanted = None if sequences is None else set(sequences)
        out: list[WalRecord] = []
        for path in self.segment_paths():
            for record in read_segment(path)[0]:
                if record.sequence <= min_sequence:
                    continue
                if wanted is not None and record.sequence not in wanted:
                    continue
                out.append(record)
        return out

    def truncate(self, upto_sequence: int) -> int:
        """Delete segments whose records are all ``<= upto_sequence``
        (called after the covering checkpoint is durable).  Returns how
        many segment files were removed."""
        if self._flushing:
            # A batch is mid-write on the flush thread; closing or
            # rotating files under it would corrupt the log.  The next
            # checkpoint's truncate reclaims these segments.
            return 0
        removed = 0
        segments = self.segment_paths()
        for index, path in enumerate(segments):
            next_first = (
                int(_SEGMENT_RE.match(segments[index + 1].name).group(1))
                if index + 1 < len(segments)
                else self.last_sequence + 1
            )
            covered = next_first - 1 <= upto_sequence
            if not covered:
                continue
            if path == self._active_path:
                if self._active_last_seq > upto_sequence or self._pending:
                    continue
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
                self._active_path = None
                self._active_size = 0
            path.unlink()
            removed += 1
        if removed:
            _fsync_dir(self.directory)
            self.truncations_total += 1
        return removed

    @property
    def segment_count(self) -> int:
        return len(self.segment_paths())

    def stats(self) -> dict:
        return {
            "last_sequence": self.last_sequence,
            "appends": self.appends_total,
            "fsync_batches": self.fsync_batches_total,
            "bytes_written": self.bytes_written_total,
            "segments": self.segment_count,
            "truncations": self.truncations_total,
            "replayed_records": self.replayed_records_total,
        }

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(directory={str(self.directory)!r}, "
            f"last_sequence={self.last_sequence})"
        )
