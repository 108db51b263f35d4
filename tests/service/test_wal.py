"""Durable ingest WAL: framing, group commit, torn tails, truncation.

The recovery contract is the whole point: after any single crash the log
must replay to exactly the acked records — a torn final write is cut, a
flipped bit anywhere else refuses loudly, and no decoded record is ever
anything but byte-identical to what was appended.  The hypothesis fuzz
section drives that contract with arbitrary truncations and bit flips.
"""

import asyncio
import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service import WriteAheadLog
from repro.service.wal import (
    KIND_ABORT,
    KIND_FRAMES,
    KIND_JSON_BATCH,
    KIND_JSON_SINGLE,
    KIND_PARTIAL,
    encode_record,
    read_segment,
)

KINDS = (KIND_JSON_SINGLE, KIND_JSON_BATCH, KIND_FRAMES, KIND_PARTIAL)


def wal_for(tmp_path, **kwargs):
    kwargs.setdefault("segment_bytes", 1024)
    kwargs.setdefault("fsync", False)
    return WriteAheadLog(tmp_path / "wal", **kwargs)


async def append_bodies(wal, bodies, *, campaign="demo"):
    return [
        await wal.append(KIND_JSON_BATCH, body, campaign=campaign)
        for body in bodies
    ]


def write_raw_segment(directory, records, *, first_seq=None):
    """Byte-concatenate encoded records into a correctly named segment."""
    directory.mkdir(parents=True, exist_ok=True)
    first = first_seq if first_seq is not None else records[0][0]
    path = directory / f"segment-{first:016d}.wal"
    path.write_bytes(
        b"".join(
            encode_record(seq, kind, body, campaign=campaign)
            for seq, kind, body, campaign in records
        )
    )
    return path


class TestRecordFraming:
    def test_roundtrip_through_segment(self, tmp_path):
        rows = [
            (1, KIND_JSON_SINGLE, b'{"v": 1}', ""),
            (2, KIND_FRAMES, bytes(range(20)), ""),
            (3, KIND_PARTIAL, b'{"edge": "e1"}', "demo"),
        ]
        path = write_raw_segment(tmp_path, rows)
        records, valid = read_segment(path)
        assert valid == path.stat().st_size
        assert [
            (r.sequence, r.kind, r.body, r.campaign) for r in records
        ] == rows

    @pytest.mark.parametrize("kind", KINDS + (KIND_ABORT,))
    def test_reserved_byte_is_written_as_zero(self, kind):
        assert encode_record(1, kind, b"{}", campaign="demo")[17] == 0

    @pytest.mark.parametrize("tag", [1, 255])
    def test_older_round_tag_byte_is_ignored(self, tmp_path, tag):
        """Older logs stored a round tag in byte 17 (inside the CRC);
        readers take such records as they are."""
        rows = [
            (1, KIND_JSON_BATCH, b'{"campaign": "demo", "reports": [1]}', ""),
            (2, KIND_PARTIAL, b'{"edge": "e1"}', "demo"),
        ]
        buffer = bytearray()
        for sequence, kind, body, campaign in rows:
            record = bytearray(encode_record(sequence, kind, body, campaign=campaign))
            record[17] = tag
            record[4:8] = struct.pack("<I", zlib.crc32(record[8:]) & 0xFFFFFFFF)
            buffer += record
        path = tmp_path / f"segment-{1:016d}.wal"
        path.write_bytes(bytes(buffer))
        records, valid = read_segment(path)
        assert valid == len(buffer)
        assert [
            (r.sequence, r.kind, r.body, r.campaign) for r in records
        ] == rows

    def test_unknown_kind_rejected_at_encode(self):
        with pytest.raises(ServiceError, match="kind"):
            encode_record(1, 99, b"")

    def test_sequence_gap_in_segment_rejected(self, tmp_path):
        path = write_raw_segment(
            tmp_path,
            [(1, KIND_JSON_BATCH, b"a", ""), (3, KIND_JSON_BATCH, b"b", "")],
        )
        with pytest.raises(ServiceError, match="jumps"):
            read_segment(path)

    def test_flipped_bit_with_valid_record_after_rejected(self, tmp_path):
        rows = [(i, KIND_JSON_BATCH, b"x" * 40, "") for i in range(1, 4)]
        path = write_raw_segment(tmp_path, rows)
        raw = bytearray(path.read_bytes())
        mid = len(encode_record(1, KIND_JSON_BATCH, b"x" * 40)) + 30
        raw[mid] ^= 0xFF  # corrupt record 2's body; record 3 stays valid
        path.write_bytes(bytes(raw))
        with pytest.raises(ServiceError, match="CRC32"):
            read_segment(path)

    def test_flipped_bit_in_final_record_cuts_like_a_torn_tail(self, tmp_path):
        rows = [(i, KIND_JSON_BATCH, b"x" * 40, "") for i in range(1, 4)]
        path = write_raw_segment(tmp_path, rows)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # damage confined to the tail: torn write
        path.write_bytes(bytes(raw))
        records, valid = read_segment(path)
        assert [r.sequence for r in records] == [1, 2]
        assert valid < len(raw)


class TestWriteAheadLog:
    def test_append_scan_roundtrip(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            bodies = [f"body-{i}".encode() for i in range(5)]
            sequences = await append_bodies(wal, bodies)
            await wal.stop()
            return bodies, sequences

        bodies, sequences = asyncio.run(run())
        assert sequences == [1, 2, 3, 4, 5]
        recovered = WriteAheadLog(tmp_path / "wal", fsync=False)
        records = recovered.scan()
        assert [r.body for r in records] == bodies
        assert all(r.campaign == "demo" for r in records)
        assert recovered.last_sequence == 5

    def test_group_commit_covers_concurrent_appends(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            await asyncio.gather(
                *(wal.append(KIND_JSON_BATCH, b"x" * 32) for _ in range(40))
            )
            batches = wal.fsync_batches_total
            await wal.stop()
            return batches

        batches = asyncio.run(run())
        assert batches < 40  # at least some appends shared an fsync

    def test_rotation_by_size_and_cross_segment_scan(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path, segment_bytes=1024)
            await wal.start()
            await append_bodies(wal, [os.urandom(300) for _ in range(12)])
            count = wal.segment_count
            await wal.stop()
            return count

        count = asyncio.run(run())
        assert count > 1
        recovered = wal_for(tmp_path)
        assert [r.sequence for r in recovered.scan()] == list(range(1, 13))

    def test_torn_tail_is_cut_and_file_truncated(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            await append_bodies(wal, [b"a" * 50, b"b" * 50])
            await wal.stop()

        asyncio.run(run())
        [path] = wal_for(tmp_path).segment_paths()
        intact = path.stat().st_size
        torn = encode_record(3, KIND_JSON_BATCH, b"c" * 50)[:-20]
        with open(path, "ab") as handle:
            handle.write(torn)
        records = wal_for(tmp_path).scan()
        assert [r.sequence for r in records] == [1, 2]
        assert path.stat().st_size == intact  # damage physically removed

    def test_cross_segment_gap_rejected(self, tmp_path):
        directory = tmp_path / "wal"
        write_raw_segment(directory, [(1, KIND_JSON_BATCH, b"a", "")])
        write_raw_segment(directory, [(5, KIND_JSON_BATCH, b"b", "")])
        with pytest.raises(ServiceError, match="gap"):
            WriteAheadLog(directory, fsync=False).scan()

    def test_abort_tombstones(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            kept = await wal.append(KIND_JSON_BATCH, b"kept")
            doomed = await wal.append(KIND_JSON_BATCH, b"doomed")
            await wal.append_abort(doomed)
            await wal.stop()
            return kept, doomed

        kept, doomed = asyncio.run(run())
        records = wal_for(tmp_path).scan()
        aborted = WriteAheadLog.aborted_sequences(records)
        assert aborted == {doomed}
        live = [
            r.sequence
            for r in records
            if r.kind != KIND_ABORT and r.sequence not in aborted
        ]
        assert live == [kept]

    def test_truncate_removes_covered_segments_only(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path, segment_bytes=1024)
            await wal.start()
            await append_bodies(wal, [os.urandom(300) for _ in range(12)])
            before = wal.segment_count
            removed = wal.truncate(wal.last_sequence - 1)
            survivors = [r.sequence for r in wal.read_records()]
            # the active segment holds the uncovered record: must survive
            assert wal.last_sequence in survivors
            # appends keep working after truncation
            await wal.append(KIND_JSON_BATCH, b"after")
            await wal.stop()
            return before, removed, wal.segment_count

        before, removed, after = asyncio.run(run())
        assert removed > 0
        assert after < before
        assert wal_for(tmp_path).scan()[-1].body == b"after"

    def test_read_records_filters(self, tmp_path):
        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            await append_bodies(wal, [b"a", b"b", b"c", b"d"])
            by_min = [r.sequence for r in wal.read_records(min_sequence=2)]
            by_set = [r.body for r in wal.read_records(sequences={1, 3})]
            await wal.stop()
            return by_min, by_set

        by_min, by_set = asyncio.run(run())
        assert by_min == [3, 4]
        assert by_set == [b"a", b"c"]

    def test_write_failure_fails_appenders_instead_of_hanging(self, tmp_path):
        """An I/O error mid-flush must surface to every waiting append as
        a ServiceError — never a hung future — and fail-stop the log (a
        partial batch may be on disk; the consumed sequences would leave
        a gap recovery refuses)."""

        async def run():
            wal = wal_for(tmp_path)
            await wal.start()
            await wal.append(KIND_JSON_BATCH, b"ok")

            def boom(batch):
                raise OSError("disk full")

            wal._flush_batch = boom
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(wal.append(KIND_JSON_BATCH, b"doomed") for _ in range(4)),
                    return_exceptions=True,
                ),
                timeout=10,
            )
            assert len(results) == 4
            assert all(isinstance(r, ServiceError) for r in results)
            assert all("WAL write failed" in str(r) for r in results)
            # Fail-stop: later appends refuse immediately, even though
            # the underlying fault is gone.
            del wal._flush_batch
            with pytest.raises(ServiceError, match="WAL write failed"):
                await wal.append(KIND_JSON_BATCH, b"after")
            await asyncio.wait_for(wal.stop(), timeout=10)

        asyncio.run(run())
        records = WriteAheadLog(tmp_path / "wal", fsync=False).scan()
        assert [r.body for r in records] == [b"ok"]

    def test_rejects_tiny_segment_bytes(self, tmp_path):
        with pytest.raises(ServiceError, match="segment_bytes"):
            WriteAheadLog(tmp_path / "wal", segment_bytes=16)


# -- property-based recovery fuzzing ---------------------------------------

record_bodies = st.lists(
    st.binary(min_size=0, max_size=120), min_size=1, max_size=12
)


def build_segment(bodies):
    return [
        (seq, KINDS[seq % len(KINDS)], body, "camp" if seq % 3 == 0 else "")
        for seq, body in enumerate(bodies, start=1)
    ]


@settings(deadline=None, max_examples=60)
@given(bodies=record_bodies, cut=st.integers(min_value=0))
def test_fuzz_truncation_recovers_exact_prefix(tmp_path_factory, bodies, cut):
    """Cutting the log at ANY byte offset recovers a clean record prefix —
    never a crash, never a mangled record."""
    directory = tmp_path_factory.mktemp("fuzz-cut")
    rows = build_segment(bodies)
    path = write_raw_segment(directory, rows)
    raw = path.read_bytes()
    path.write_bytes(raw[: cut % (len(raw) + 1)])
    records = WriteAheadLog(directory, fsync=False).scan()
    assert [
        (r.sequence, r.kind, r.body, r.campaign) for r in records
    ] == rows[: len(records)]


@settings(deadline=None, max_examples=60)
@given(
    bodies=record_bodies,
    position=st.integers(min_value=0),
    flip=st.integers(min_value=1, max_value=255),
)
def test_fuzz_bit_flips_never_admit_corrupt_records(
    tmp_path_factory, bodies, position, flip
):
    """Flipping ANY byte either fails loudly or cuts a valid tail — a
    recovered record is always byte-identical to what was appended."""
    directory = tmp_path_factory.mktemp("fuzz-flip")
    rows = build_segment(bodies)
    path = write_raw_segment(directory, rows)
    raw = bytearray(path.read_bytes())
    raw[position % len(raw)] ^= flip
    path.write_bytes(bytes(raw))
    try:
        records = WriteAheadLog(directory, fsync=False).scan()
    except ServiceError:
        return  # loud refusal is a correct outcome
    for record, row in zip(records, rows):
        assert (record.sequence, record.kind, record.body, record.campaign) == row


@settings(deadline=None, max_examples=30)
@given(
    bodies=st.lists(
        st.binary(min_size=50, max_size=200), min_size=4, max_size=10
    ),
    segment_bytes=st.integers(min_value=1024, max_value=2048),
    cut=st.integers(min_value=0, max_value=400),
)
def test_fuzz_rotated_log_with_torn_final_segment(
    tmp_path_factory, bodies, segment_bytes, cut
):
    """Write through real rotation, then tear the final segment's tail:
    recovery returns a prefix and appending afterwards stays contiguous."""
    directory = tmp_path_factory.mktemp("fuzz-rot")

    async def write():
        wal = WriteAheadLog(
            directory, segment_bytes=segment_bytes, fsync=False
        )
        await wal.start()
        await append_bodies(wal, bodies)
        await wal.stop()

    asyncio.run(write())
    last = WriteAheadLog(directory, fsync=False).segment_paths()[-1]
    raw = last.read_bytes()
    last.write_bytes(raw[: max(0, len(raw) - cut)])
    wal = WriteAheadLog(directory, segment_bytes=segment_bytes, fsync=False)
    records = wal.scan()
    expected = [
        (seq, KIND_JSON_BATCH, body, "demo")
        for seq, body in enumerate(bodies, start=1)
    ]
    assert [
        (r.sequence, r.kind, r.body, r.campaign) for r in records
    ] == expected[: len(records)]

    async def append_more():
        await wal.start()
        sequence = await wal.append(KIND_JSON_BATCH, b"post-recovery")
        await wal.stop()
        return sequence

    sequence = asyncio.run(append_more())
    assert sequence == (records[-1].sequence if records else 0) + 1
    final = WriteAheadLog(directory, fsync=False).scan()
    assert final[-1].body == b"post-recovery"
    assert [r.sequence for r in final] == list(range(1, sequence + 1))


def test_abort_body_format_stable():
    # offline tooling decodes tombstones with struct: pin the layout
    record = encode_record(9, KIND_ABORT, struct.pack("<Q", 7))
    assert struct.unpack("<Q", record[-8:])[0] == 7
