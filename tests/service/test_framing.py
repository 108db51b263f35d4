"""Binary ingest framing: round trips, packing widths, damage handling."""

import struct

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service.framing import (
    FRAME_MAGIC,
    FRAME_VERSION,
    KIND_REPORTS,
    decode_frame,
    decode_frames,
    encode_reports,
    unpack_reports,
)


def legacy_histogram_frame(campaign: str, histogram) -> bytes:
    """A frame of the retired kind 2: a pre-aggregated float64 response
    histogram behind the same header.  The service no longer accepts it;
    edges forward sealed partials instead."""
    name = campaign.encode("utf-8")
    payload = np.asarray(histogram, dtype="<f8").tobytes()
    header = struct.pack(
        "<4sBBBBHHIQ",
        FRAME_MAGIC,
        FRAME_VERSION,
        2,
        8,
        0,
        len(name),
        0,
        len(name) + len(payload),
        len(histogram),
    )
    return header + name + payload


def round_tagged_frame(campaign: str, reports, round_id: int) -> bytes:
    """A report frame whose header byte 7 carries ``round_id``, as older
    writers tagged a multi-round campaign's cohort."""
    frame = bytearray(encode_reports(campaign, reports))
    frame[7] = round_id
    return bytes(frame)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "reports,item_size",
        [
            ([0, 1, 255], 1),
            ([0, 256, 65535], 2),
            ([0, 65536, 2**31], 4),
        ],
    )
    def test_reports_pack_in_smallest_width(self, reports, item_size):
        frame = decode_frame(encode_reports("demo", reports))
        assert frame.kind == KIND_REPORTS
        assert frame.campaign == "demo"
        assert frame.item_size == item_size
        assert frame.count == len(reports)
        assert frame.reports().tolist() == reports
        assert frame.reports().dtype == np.int64

    def test_numpy_input_round_trips(self, rng):
        reports = rng.integers(0, 500, size=1000)
        frame = decode_frame(encode_reports("c", reports))
        assert np.array_equal(frame.reports(), reports)

    def test_histogram_frames_are_refused(self):
        # Pre-aggregated counts enter only as edge partials, whose counts
        # are checked; a kind-2 frame fails to decode, alone or packed
        # after a good frame, so its body folds nothing.
        legacy = legacy_histogram_frame("demo", [5.0, 0.0, 2.0])
        with pytest.raises(ServiceError, match="unknown frame kind 2"):
            decode_frame(legacy)
        with pytest.raises(ServiceError, match="unknown frame kind 2"):
            decode_frames(encode_reports("demo", [1]) + legacy)

    def test_multiple_frames_pack_back_to_back(self):
        buffer = (
            encode_reports("a", [1, 2])
            + encode_reports("b", [300, 0])
            + encode_reports("a", [3])
        )
        frames = decode_frames(buffer)
        assert [(f.campaign, f.item_size, f.count) for f in frames] == [
            ("a", 1, 2),
            ("b", 2, 2),
            ("a", 1, 1),
        ]

    def test_binary_is_smaller_than_json(self):
        reports = list(range(256)) * 4
        as_json = len(str(reports))
        as_frame = len(encode_reports("demo", reports))
        assert as_frame < as_json / 2


class TestEncodeValidation:
    def test_negative_reports_rejected(self):
        with pytest.raises(ServiceError, match="non-negative"):
            encode_reports("demo", [0, -1])

    def test_non_integer_reports_rejected(self):
        with pytest.raises(ServiceError, match="integer"):
            encode_reports("demo", [0.5])

    def test_empty_batch_rejected(self):
        with pytest.raises(ServiceError, match="non-empty"):
            encode_reports("demo", [])

    def test_oversized_output_id_rejected(self):
        with pytest.raises(ServiceError, match="32-bit"):
            encode_reports("demo", [2**40])

    def test_empty_campaign_name_rejected(self):
        with pytest.raises(ServiceError, match="campaign name"):
            encode_reports("", [1])

    def test_overlong_campaign_name_rejected(self):
        with pytest.raises(ServiceError, match="campaign name"):
            encode_reports("x" * 300, [1])


class TestDecodeValidation:
    def test_bad_magic_fails_loudly(self):
        payload = bytearray(encode_reports("demo", [1]))
        payload[:4] = b"NOPE"
        with pytest.raises(ServiceError, match="magic"):
            decode_frame(bytes(payload))

    def test_future_version_fails_loudly(self):
        payload = bytearray(encode_reports("demo", [1]))
        payload[4] = 99
        with pytest.raises(ServiceError, match="version 99"):
            decode_frame(bytes(payload))

    def test_unknown_kind_rejected(self):
        payload = bytearray(encode_reports("demo", [1]))
        payload[5] = 7
        with pytest.raises(ServiceError, match="kind"):
            decode_frame(bytes(payload))

    def test_truncated_header_rejected(self):
        with pytest.raises(ServiceError, match="truncated"):
            decode_frame(FRAME_MAGIC + b"\x01")

    def test_truncated_body_rejected(self):
        payload = encode_reports("demo", list(range(100)))
        with pytest.raises(ServiceError, match="truncated"):
            decode_frame(payload[:-10])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ServiceError, match="trailing"):
            decode_frame(encode_reports("demo", [1]) + b"junk")

    def test_inconsistent_body_length_rejected(self):
        payload = bytearray(encode_reports("demo", [1, 2, 3]))
        # Overwrite the u32 body-length field (offset 12) with a lie.
        payload[12:16] = struct.pack("<I", 9999)
        with pytest.raises(ServiceError, match="disagrees"):
            decode_frame(bytes(payload))

    def test_non_utf8_name_rejected(self):
        payload = bytearray(encode_reports("demé", [1]))
        # Corrupt one byte of the UTF-8 name (name starts at offset 24).
        payload[24] = 0xFF
        with pytest.raises(ServiceError, match="UTF-8"):
            decode_frame(bytes(payload))

    def test_empty_body_rejected(self):
        with pytest.raises(ServiceError, match="empty"):
            decode_frames(b"")

    def test_unpack_reports_validates_item_size(self):
        with pytest.raises(ServiceError, match="item size"):
            unpack_reports(b"\x00\x00", 3)
        with pytest.raises(ServiceError, match="multiple"):
            unpack_reports(b"\x00\x00\x00", 2)


class TestReservedByte:
    @pytest.mark.parametrize(
        "frame",
        [
            encode_reports("demo", [1, 2, 3]),
            encode_reports("demo", [300, 70000]),
            encode_reports("demo", [4], trace_id="ab" * 8),
        ],
        ids=["1-byte-items", "4-byte-items", "traced"],
    )
    def test_byte_seven_is_written_as_zero(self, frame):
        assert frame[7] == 0
        assert decode_frame(frame).reports().size >= 1

    @pytest.mark.parametrize("tag", [1, 3, 128, 255])
    def test_nonzero_byte_seven_refused(self, tag):
        # An older writer's multi-round cohort tagged its round here; the
        # reports belong to some other strategy.
        with pytest.raises(ServiceError, match=f"byte 7 is {tag},"):
            decode_frame(round_tagged_frame("demo", [1, 2], tag))
        with pytest.raises(ServiceError, match=f"byte 7 is {tag},"):
            decode_frames(
                encode_reports("demo", [1]) + round_tagged_frame("demo", [1], tag)
            )


class TestTraceField:
    def test_trace_id_round_trips(self):
        trace = "deadbeefcafef00d"
        frame = decode_frame(encode_reports("demo", [1, 2], trace_id=trace))
        assert frame.trace_id == trace

    def test_traceless_frame_is_byte_identical_to_pre_trace_format(self):
        # trace length lands in what version 1 reserved as zero padding,
        # so a frame with no trace attached must not change by a byte
        plain = encode_reports("demo", [1, 2, 3])
        assert encode_reports("demo", [1, 2, 3], trace_id=None) == plain
        assert encode_reports("demo", [1, 2, 3], trace_id="") == plain
        assert plain[10:12] == b"\x00\x00"

    def test_trace_rides_after_the_body(self):
        trace = "ab" * 8
        traced = encode_reports("demo", [1, 2], trace_id=trace)
        plain = encode_reports("demo", [1, 2])
        assert traced.endswith(trace.encode("ascii"))
        assert len(traced) == len(plain) + len(trace)
        # body length (offset 12) excludes the trace bytes
        assert traced[12:16] == plain[12:16]

    def test_traced_frames_concatenate_back_to_back(self):
        buffer = encode_reports("a", [1], trace_id="00" * 8) + encode_reports(
            "b", [2, 3]
        )
        frames = decode_frames(buffer)
        assert [f.trace_id for f in frames] == ["00" * 8, ""]
        assert [f.campaign for f in frames] == ["a", "b"]

    def test_oversized_trace_rejected_on_encode_and_decode(self):
        with pytest.raises(ServiceError, match="trace"):
            encode_reports("demo", [1], trace_id="x" * 65)
        frame = bytearray(encode_reports("demo", [1]))
        struct.pack_into("<H", frame, 10, 65)  # lie about the trace length
        with pytest.raises(ServiceError, match="trace"):
            decode_frame(bytes(frame) + b"x" * 65)

    def test_truncated_trace_rejected(self):
        traced = encode_reports("demo", [1], trace_id="ab" * 8)
        with pytest.raises(ServiceError, match="truncated"):
            decode_frame(traced[:-3])

    def test_non_utf8_trace_rejected(self):
        traced = bytearray(encode_reports("demo", [1], trace_id="ab" * 8))
        traced[-1] = 0xFF
        with pytest.raises(ServiceError, match="not UTF-8"):
            decode_frame(bytes(traced))
