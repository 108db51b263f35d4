"""Length-prefixed binary ingest framing.

JSON is a fine control-plane format, but on the ingest hot path it
dominates the cost of a report batch: every output id is re-parsed from
decimal text, and a 10k-report batch is ~50 KB of JSON for what is at most
40 KB — usually 10 KB — of packed integers.  This module defines the
compact alternative the service and SDK speak on ``POST /v1/reports``:
self-delimiting frames that pack a report batch as little-endian machine
integers behind a fixed header.

Frame layout (all little-endian)::

    offset  size  field
    0       4     magic  b"RPRF"
    4       1     format version (1)
    5       1     kind: 1 = report batch (the only kind accepted)
    6       1     item size in bytes (1, 2, 4 or 8)
    7       1     reserved, written as 0 (a nonzero value is refused)
    8       2     campaign-name length in bytes
    10      2     trace-id length in bytes (0 = no trace attached)
    12      4     body length  = name length + count * item size
    16      8     item count
    24      ...   campaign name (UTF-8), then the packed payload,
                  then the optional trace id (UTF-8)

Byte 7 once tagged the cohort of a multi-round campaign with its round.
Campaigns have one strategy now, so a frame with a nonzero byte 7 was
randomized against some other strategy: the decoder refuses it rather than
fold it into this campaign's histogram.  Frames with a zero byte 7 are
byte-identical to what every writer emitted, so the format version stays 1.

The trace-id length at offset 10 follows the same discipline: it was the
version-1 reserved (zero) field, so a frame with no trace attached is
byte-identical to the pre-telemetry encoding, and older writers' frames
decode as trace-free.  When a telemetry trace id rides along, its UTF-8
bytes follow the body (outside *body length*, which keeps its original
meaning) and :func:`decode_frames` hands it back on the
:class:`Frame` so worker processes can correlate their spans with the
HTTP edge that minted the id.

The *body length* field makes a frame self-delimiting, so the same bytes
work as an HTTP request body (where ``Content-Length`` already bounds it)
or concatenated on a raw stream; :func:`decode_frames` walks any number of
frames packed back to back.  Reports are packed in the smallest unsigned
width that holds the batch's largest output id.  The magic + version tag
follows the :class:`~repro.protocol.engine.ShardAccumulator` payload-tag
idiom: bytes from an incompatible writer fail loudly with
:class:`~repro.exceptions.ServiceError`, never as a silent misparse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ServiceError

#: First bytes of every frame ("RePRo Frame").
FRAME_MAGIC = b"RPRF"

#: Frame format version; bumped on incompatible layout changes.
FRAME_VERSION = 1

#: Frame kind of a report batch, the one kind the service accepts.
#: (Pre-aggregated counts cross tiers as edge partials, never as frames.)
KIND_REPORTS = 1

#: Content type the service and SDK use for binary ingest bodies.
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: magic, version, kind, item_size, reserved, name_len, trace_len,
#: body_len, count.  ``trace_len`` occupies what version 1 reserved as zero
#: padding, so trace-free frames are byte-identical to the original encoding.
_HEADER = struct.Struct("<4sBBBBHHIQ")

#: Longest accepted trace id on the wire (minted ids are 16 hex chars;
#: the cap leaves room for foreign tracing systems without letting the
#: field smuggle arbitrary payloads).
_MAX_TRACE_BYTES = 64

#: Longest accepted campaign name on the wire (matches the service's
#: 64-character campaign-name alphabet with UTF-8 headroom).
_MAX_NAME_BYTES = 256

_REPORT_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


@dataclass(frozen=True)
class Frame:
    """One decoded ingest frame (payload kept packed until asked for).

    Examples
    --------
    >>> frame = decode_frame(encode_reports("demo", [0, 3, 3, 1]))
    >>> (frame.campaign, frame.count, frame.item_size)
    ('demo', 4, 1)
    >>> frame.reports()
    array([0, 3, 3, 1])
    """

    kind: int
    campaign: str
    count: int
    item_size: int
    payload: bytes
    trace_id: str = ""

    def reports(self) -> np.ndarray:
        """The packed report batch as an ``int64`` array."""
        return unpack_reports(self.payload, self.item_size)


def unpack_reports(payload: bytes, item_size: int) -> np.ndarray:
    """Decode a packed report payload back to an ``int64`` array.

    Shared by :meth:`Frame.reports` and the cluster workers, which receive
    the packed bytes verbatim so the decode cost lands on *their* core,
    not the coordinator's.

    Examples
    --------
    >>> unpack_reports(b"\\x00\\x02\\x02", 1)
    array([0, 2, 2])
    """
    dtype = _REPORT_DTYPES.get(item_size)
    if dtype is None:
        raise ServiceError(f"invalid report item size {item_size}")
    if len(payload) % item_size:
        raise ServiceError(
            f"packed payload of {len(payload)} bytes is not a multiple of "
            f"the {item_size}-byte item size"
        )
    return np.frombuffer(payload, dtype=np.dtype(dtype).newbyteorder("<")).astype(
        np.int64
    )


def encode_reports(
    campaign: str, reports, *, trace_id: str | None = None
) -> bytes:
    """Pack a batch of privatized reports (output ids) into one frame.

    The ids are packed in the smallest unsigned width that holds the
    batch's maximum, so a typical batch costs 1-2 bytes per report instead
    of 2-6 characters of JSON.

    Examples
    --------
    >>> len(encode_reports("demo", [0, 1, 2, 3])) - 24 - len("demo")
    4
    >>> decode_frame(encode_reports("demo", [70000])).reports()
    array([70000])

    A trace id rides outside the body; a frame without one is
    byte-identical to the pre-telemetry encoding:

    >>> traced = encode_reports("demo", [1, 2], trace_id="ab" * 8)
    >>> decode_frame(traced).trace_id
    'abababababababab'
    >>> traced.endswith(b"abababababababab")
    True
    >>> len(traced) - len(encode_reports("demo", [1, 2]))
    16
    """
    array = np.asarray(reports)
    if array.ndim != 1 or array.shape[0] == 0:
        raise ServiceError("reports must be a non-empty flat list")
    if not np.issubdtype(array.dtype, np.integer):
        as_int = array.astype(np.int64, copy=False)
        if not np.array_equal(as_int, array):
            raise ServiceError("reports must be integer output ids")
        array = as_int
    low, high = int(array.min()), int(array.max())
    if low < 0:
        raise ServiceError("reports must be non-negative output ids")
    if high < 1 << 8:
        item_size = 1
    elif high < 1 << 16:
        item_size = 2
    elif high < 1 << 32:
        item_size = 4
    else:
        raise ServiceError(f"output id {high} does not fit a 32-bit frame")
    payload = (
        array.astype(np.dtype(_REPORT_DTYPES[item_size]).newbyteorder("<"))
        .tobytes()
    )
    name = str(campaign).encode("utf-8")
    if not name or len(name) > _MAX_NAME_BYTES:
        raise ServiceError(
            f"campaign name of {len(name)} bytes outside [1, {_MAX_NAME_BYTES}]"
        )
    trace = (trace_id or "").encode("utf-8")
    if len(trace) > _MAX_TRACE_BYTES:
        raise ServiceError(
            f"trace id of {len(trace)} bytes exceeds {_MAX_TRACE_BYTES}"
        )
    header = _HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        KIND_REPORTS,
        item_size,
        0,
        len(name),
        len(trace),
        len(name) + len(payload),
        int(array.shape[0]),
    )
    return header + name + payload + trace


def decode_frame(buffer: bytes, offset: int = 0) -> Frame:
    """Decode the single frame starting at ``offset``; extra trailing bytes
    are an error (use :func:`decode_frames` for packed sequences).

    Examples
    --------
    >>> decode_frame(encode_reports("a", [1])).campaign
    'a'
    """
    frame, end = _decode_at(buffer, offset)
    if end != len(buffer):
        raise ServiceError(
            f"{len(buffer) - end} trailing bytes after the frame"
        )
    return frame


def decode_frames(buffer: bytes) -> list[Frame]:
    """Decode any number of frames packed back to back.

    Examples
    --------
    >>> frames = decode_frames(
    ...     encode_reports("a", [1, 2]) + encode_reports("b", [300])
    ... )
    >>> [(f.campaign, f.item_size) for f in frames]
    [('a', 1), ('b', 2)]
    """
    frames: list[Frame] = []
    offset = 0
    while offset < len(buffer):
        frame, offset = _decode_at(buffer, offset)
        frames.append(frame)
    if not frames:
        raise ServiceError("empty frame body")
    return frames


def _decode_at(buffer: bytes, offset: int) -> tuple[Frame, int]:
    head = bytes(buffer[offset : offset + len(FRAME_MAGIC)])
    if head != FRAME_MAGIC:
        raise ServiceError(
            f"bad frame magic {head!r} (expected {FRAME_MAGIC!r}); "
            "is the client speaking the binary transport?"
        )
    if len(buffer) - offset < _HEADER.size:
        raise ServiceError(
            f"truncated frame: {len(buffer) - offset} bytes is shorter than "
            f"the {_HEADER.size}-byte header"
        )
    (
        magic,
        version,
        kind,
        item_size,
        reserved,
        name_len,
        trace_len,
        body_len,
        count,
    ) = _HEADER.unpack_from(buffer, offset)
    if version != FRAME_VERSION:
        raise ServiceError(
            f"frame format version {version} != supported version "
            f"{FRAME_VERSION} — upgrade the older side"
        )
    if kind != KIND_REPORTS:
        raise ServiceError(
            f"unknown frame kind {kind}; only report batches (kind "
            f"{KIND_REPORTS}) are accepted"
        )
    if item_size not in _REPORT_DTYPES:
        raise ServiceError(f"invalid report item size {item_size}")
    if reserved:
        raise ServiceError(
            f"frame byte 7 is {reserved}, not 0: it tags the cohort of a "
            "multi-round campaign, and campaigns take no round tag"
        )
    if name_len < 1:
        raise ServiceError("frame has an empty campaign name")
    if body_len != name_len + count * item_size:
        raise ServiceError(
            f"frame body length {body_len} disagrees with its fields "
            f"({name_len} name bytes + {count} x {item_size}-byte items)"
        )
    if trace_len > _MAX_TRACE_BYTES:
        raise ServiceError(
            f"frame trace id of {trace_len} bytes exceeds {_MAX_TRACE_BYTES}"
        )
    body_start = offset + _HEADER.size
    body_end = body_start + body_len
    end = body_end + trace_len
    if end > len(buffer):
        raise ServiceError(
            f"truncated frame: header promises {body_len} body bytes "
            f"+ {trace_len} trace bytes, {len(buffer) - body_start} present"
        )
    try:
        campaign = buffer[body_start : body_start + name_len].decode("utf-8")
    except UnicodeDecodeError as error:
        raise ServiceError(f"frame campaign name is not UTF-8: {error}")
    payload = bytes(buffer[body_start + name_len : body_end])
    try:
        trace = bytes(buffer[body_end:end]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ServiceError(f"frame trace id is not UTF-8: {error}")
    frame = Frame(kind, campaign, int(count), item_size, payload, trace)
    return frame, end
