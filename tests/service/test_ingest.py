"""Tests for the ingest path: validation, ack-time folding, refusals."""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError, ServiceError
from repro.service import CampaignManager, IngestPipeline, encode_reports
from repro.service.ingest import fold_frame_body, fold_json_body
from repro.telemetry import MetricsRegistry
from tests.service.test_framing import legacy_histogram_frame, round_tagged_frame


def make_manager(domain_size: int = 8) -> CampaignManager:
    manager = CampaignManager()
    manager.create(
        "demo",
        workload="Histogram",
        domain_size=domain_size,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    return manager


def run(coroutine):
    return asyncio.run(coroutine)


def json_body(campaign="demo", reports=(0, 1, 7), round_id=None) -> bytes:
    document = {"campaign": campaign, "reports": list(reports)}
    if round_id is not None:
        document["round"] = round_id
    return json.dumps(document).encode("utf-8")


class TestValidation:
    @pytest.mark.parametrize(
        "reports",
        [[], [[0, 1]], [0, 8], [-1], [0.5], ["a"], [None], [0, "x"],
         [[0], [1, 2]], "abc"],
    )
    def test_rejects_bad_reports_with_service_error(self, reports):
        # Every malformed payload — including strings, nulls, and ragged
        # nesting — must surface as ServiceError (HTTP 400), never as a
        # raw ValueError/TypeError (HTTP 500).
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        with pytest.raises(ServiceError):
            run(pipeline.submit_reports("demo", reports))
        assert manager.get("demo").num_reports == 0

    def test_rejected_batch_is_all_or_nothing(self):
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        with pytest.raises(ServiceError):
            run(pipeline.submit_reports("demo", [0, 1, 2, 99]))
        assert manager.get("demo").num_reports == 0
        assert pipeline.stats.rejected_batches == 1

    def test_float_integer_reports_accepted(self):
        # JSON has no int/float distinction; 3.0 must count as 3.
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        run(pipeline.submit_reports("demo", [0.0, 3.0, 3.0]))
        accumulator = manager.get("demo").accumulator
        assert accumulator.num_reports == 3
        assert accumulator.histogram[3] == 2

    def test_unknown_campaign(self):
        pipeline = IngestPipeline(make_manager())
        with pytest.raises(ServiceError, match="unknown campaign"):
            run(pipeline.submit_reports("ghost", [0]))


class TestFolding:
    def test_batches_fold_at_ack_time(self):
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        run(pipeline.submit_reports("demo", [0, 1, 1]))
        # Folded by the time the submit returns: no drain, no flush.
        assert manager.get("demo").num_reports == 3
        run(pipeline.submit_reports("demo", [2] * 5))
        accumulator = manager.get("demo").accumulator
        assert accumulator.num_reports == 8
        assert np.array_equal(
            accumulator.histogram, [1, 2, 5, 0, 0, 0, 0, 0]
        )

    def test_concurrent_ingest_matches_serial_fold(self):
        """Any interleaving of submissions == a serial fold."""
        rng = np.random.default_rng(7)
        batches = [rng.integers(0, 8, size=size) for size in rng.integers(1, 200, 64)]
        manager = make_manager()
        pipeline = IngestPipeline(manager)

        async def feed():
            await asyncio.gather(
                *(pipeline.submit_reports("demo", batch) for batch in batches)
            )

        run(feed())
        serial = manager.get("demo").session.new_accumulator()
        for batch in batches:
            serial.add_reports(batch)
        live = manager.get("demo").accumulator
        assert live == serial  # bit-identical histogram + count
        assert pipeline.stats.ingested == sum(len(b) for b in batches)

    def test_stats_json_round_trip(self):
        pipeline = IngestPipeline(make_manager())
        payload = pipeline.stats.to_json()
        assert json.loads(json.dumps(payload)) == payload


REFUSED_BODIES = {
    "json-bad-id": (fold_json_body, json_body(reports=[0, 8])),
    "json-unknown-campaign": (fold_json_body, json_body(campaign="ghost")),
    "json-undecodable": (fold_json_body, b'{"campaign": "demo", "repo\xff'),
    "binary-bad-id": (fold_frame_body, encode_reports("demo", [0, 8])),
    "binary-unknown-campaign": (fold_frame_body, encode_reports("ghost", [0])),
    "binary-undecodable": (fold_frame_body, b"not a frame body"),
    "binary-bad-last-frame": (
        fold_frame_body,
        encode_reports("demo", [0, 1]) + encode_reports("demo", [9]),
    ),
    # The retired pre-aggregated kind, on both transports: edges forward
    # sealed partials to /partials instead.
    "binary-histogram-frame": (
        fold_frame_body,
        legacy_histogram_frame("demo", [1.0] * 8),
    ),
    "json-histogram-body": (
        fold_json_body,
        json.dumps({"campaign": "demo", "histogram": [2.0] * 8}).encode("utf-8"),
    ),
}


class TestRefusedBodies:
    @pytest.mark.parametrize(
        ("fold", "body"), REFUSED_BODIES.values(), ids=REFUSED_BODIES.keys()
    )
    def test_refused_body_counts_once_and_folds_nothing(self, fold, body):
        """Every refusal — decode, campaign lookup, or validation — counts
        as exactly one rejected batch, on both transports."""
        manager = make_manager()
        registry = MetricsRegistry()
        pipeline = IngestPipeline(manager, registry=registry)
        with pytest.raises(ServiceError):
            run(fold(pipeline, body))
        assert pipeline.stats.rejected_batches == 1
        assert registry.to_json()["repro_ingest_rejected_batches_total"] == 1
        assert pipeline.stats.ingested == 0
        assert manager.get("demo").num_reports == 0

    @pytest.mark.parametrize(
        ("fold", "body"),
        [
            (fold_json_body, json_body(reports=[0, 1, 2], round_id=1)),
            (fold_json_body, json_body(reports=[0, 1, 2], round_id=True)),
            (fold_json_body, json_body(reports=[0, 1, 2], round_id="0")),
            (fold_json_body, json_body(reports=[0, 1, 2], round_id=-1)),
            (fold_json_body, json_body(reports=[0, 1, 2], round_id=0.5)),
            (fold_frame_body, round_tagged_frame("demo", [0, 1, 2], 1)),
            (
                fold_frame_body,
                encode_reports("demo", [0, 1]) + round_tagged_frame("demo", [2], 1),
            ),
        ],
        ids=[
            "json",
            "json-bool",
            "json-string",
            "json-negative",
            "json-fraction",
            "binary",
            "binary-second-frame",
        ],
    )
    def test_round_tag_refused_and_counted(self, fold, body):
        """A campaign has no rounds: a round-tagged batch was randomized
        against some other strategy, so it folds nothing."""
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        with pytest.raises(ServiceError, match="round"):
            run(fold(pipeline, body))
        assert pipeline.stats.rejected_batches == 1
        assert manager.get("demo").num_reports == 0

    def test_untagged_and_zero_round_fold(self):
        manager = make_manager()
        pipeline = IngestPipeline(manager)
        run(fold_json_body(pipeline, json_body(reports=[0, 1])))
        run(fold_json_body(pipeline, json_body(reports=[2], round_id=0)))
        run(fold_frame_body(pipeline, encode_reports("demo", [3, 3])))
        assert manager.get("demo").num_reports == 5
        assert pipeline.stats.rejected_batches == 0


# -- fuzzing the one fold path -----------------------------------------------

FRAMES = [
    encode_reports("demo", [0, 1, 7, 7]),
    encode_reports("demo", np.arange(8), trace_id="ab" * 8),
    legacy_histogram_frame("demo", [1.0] * 8),  # retired kind: refused
    encode_reports("demo", [8]),  # out of range: a bad frame
]

JSON_BODIES = [
    json_body(),
    json.dumps({"campaign": "demo", "histogram": [2.0] * 8}).encode("utf-8"),
    json.dumps(
        {"campaign": "demo", "reports": [2, 3], "round": 0, "trace": "cd" * 8}
    ).encode("utf-8"),
]

JSON_BYTES = list(b'0123456789[]{},:"-.eE \\') + [0x80, 0xFF]


@st.composite
def frame_bodies(draw):
    """Concatenated frames, then byte mutations, truncation, and junk."""
    body = bytearray(
        b"".join(draw(st.lists(st.sampled_from(FRAMES), min_size=1, max_size=3)))
    )
    for _ in range(draw(st.integers(0, 3))):
        body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del body[draw(st.integers(0, len(body))) :]
    body += draw(st.binary(max_size=12))
    return bytes(body)


@st.composite
def json_bodies(draw):
    body = bytearray(draw(st.sampled_from(JSON_BODIES)))
    for _ in range(draw(st.integers(0, 4))):
        body[draw(st.integers(0, len(body) - 1))] = draw(
            st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255))
        )
    if draw(st.booleans()):
        del body[draw(st.integers(0, len(body))) :]
    return bytes(body)


def assert_folds_whole_or_refuses(fold, body):
    manager = make_manager()
    pipeline = IngestPipeline(manager)
    campaign = manager.get("demo")
    before = campaign.accumulator.snapshot()
    try:
        accepted = run(fold(pipeline, body))
    except ReproError:
        assert campaign.accumulator == before
        assert campaign.num_reports == before.num_reports
        assert pipeline.stats.ingested == 0
        assert pipeline.stats.rejected_batches == 1
        return
    folded = campaign.num_reports - before.num_reports
    assert folded == pipeline.stats.ingested == sum(accepted.values()) > 0
    assert pipeline.stats.rejected_batches == 0


@settings(deadline=None, max_examples=300)
@given(body=frame_bodies())
def test_fuzz_frame_bodies_fold_whole_or_refuse(body):
    assert_folds_whole_or_refuses(fold_frame_body, body)


@settings(deadline=None, max_examples=300)
@given(body=json_bodies())
def test_fuzz_json_bodies_fold_whole_or_refuse(body):
    assert_folds_whole_or_refuses(fold_json_body, body)
