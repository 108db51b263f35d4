"""Unit tests for the metrics registry: exact quantiles, commutative
snapshot merges, and valid Prometheus text exposition."""

import math
import pickle
import re

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
)

# The two line shapes the Prometheus text format allows (comments and
# samples); scripts/service_smoke.py applies the same discipline to the
# live endpoint.
PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? "
    r"(?:[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN)$"
)


def assert_valid_exposition(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        pattern = PROM_COMMENT if line.startswith("#") else PROM_SAMPLE
        assert pattern.match(line), f"malformed exposition line: {line!r}"


class TestCounter:
    def test_increments_and_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_callback_sampled_on_read(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        box = {"v": 2.0}
        counter.set_function(lambda: box["v"])
        assert counter.value == 2.0
        box["v"] = 9.0
        assert counter.value == 9.0
        assert "# TYPE c_total counter\nc_total 9\n" in registry.render_prometheus()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_callback_sampled_on_read(self):
        gauge = MetricsRegistry().gauge("g")
        box = {"v": 1.0}
        gauge.set_function(lambda: box["v"])
        assert gauge.value == 1.0
        box["v"] = 7.0
        assert gauge.value == 7.0
        gauge.set(3.0)  # explicit set clears the callback
        assert gauge.value == 3.0


class TestHistogram:
    def test_exact_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        assert h.quantile(0.0) == 1.0  # rank clamps to the first observation
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.99) == 4.0

    def test_overflow_bucket_reports_recorded_max(self):
        h = Histogram(bounds=(1.0,))
        h.observe(123.0)
        assert h.quantile(0.99) == 123.0

    def test_empty_quantile_is_nan_and_bounds_checked(self):
        h = Histogram(bounds=(1.0,))
        assert math.isnan(h.quantile(0.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            h.quantile(1.5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="distinct and ascending"):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="distinct and ascending"):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="implicit"):
            Histogram(bounds=(1.0, math.inf))

    def test_percentiles_keys(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        assert set(h.percentiles()) == {"p50", "p95", "p99"}

    def test_snapshot_is_plain_picklable_data(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["count"] == 1 and snap["min"] == snap["max"] == 1.5


class TestSnapshotMerge:
    def _observed(self, values):
        h = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
        for value in values:
            h.observe(value)
        return h

    def test_merge_is_order_independent(self):
        """The cluster invariant: element-wise snapshot merges commute,
        so the coordinator's view never depends on worker order."""
        parts = [
            self._observed([0.0005, 0.05]),
            self._observed([0.005, 0.005, 2.0]),
            self._observed([0.5]),
        ]
        snaps = [h.snapshot() for h in parts]
        forward = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
        backward = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
        for snap in snaps:
            forward.merge_snapshot(snap)
        for snap in reversed(snaps):
            backward.merge_snapshot(snap)
        assert forward.snapshot() == backward.snapshot()
        assert forward.count == 6
        assert forward.sum == pytest.approx(sum(h.sum for h in parts))
        # The merged quantiles match a single histogram fed everything.
        single = self._observed([0.0005, 0.05, 0.005, 0.005, 2.0, 0.5])
        assert forward.percentiles() == single.percentiles()

    def test_merge_refuses_mismatched_bounds(self):
        h = Histogram(bounds=(1.0, 2.0))
        other = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError, match="different bounds"):
            h.merge_snapshot(other.snapshot())

    def test_empty_snapshot_merge_keeps_minmax_unset(self):
        h = Histogram(bounds=(1.0,))
        h.merge_snapshot(Histogram(bounds=(1.0,)).snapshot())
        assert h.count == 0
        assert h.snapshot()["min"] is None


class TestRegistry:
    def test_reregistration_returns_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "help")
        b = registry.counter("hits_total")
        assert a is b

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x", labelnames=("b",))

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad name")

    def test_labeled_family_addressing(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", labelnames=("path", "status"))
        family.labels("/a", 200).inc()
        family.labels(path="/a", status=200).inc()
        family.labels("/b", 500).inc()
        assert family.labels("/a", "200").value == 2.0
        with pytest.raises(ValueError, match="expects labels"):
            family.labels("/a")
        with pytest.raises(ValueError, match="not both"):
            family.labels("/a", status=200)

    def test_to_json_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.histogram("h_seconds", bounds=(1.0,)).observe(0.5)
        registry.gauge("g_by", labelnames=("k",)).labels("v").set(4)
        doc = registry.to_json()
        assert doc["c_total"] == 2.0
        assert doc["h_seconds"]["count"] == 1
        assert set(doc["h_seconds"]) == {"count", "sum", "p50", "p95", "p99"}
        assert doc["g_by"] == [{"labels": {"k": "v"}, "value": 4.0}]

    def test_get_registry_is_process_global(self):
        assert get_registry() is get_registry()

    def test_default_latency_buckets_are_valid(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        Histogram(bounds=DEFAULT_LATENCY_BUCKETS)  # constructs cleanly


class TestRenderPrometheus:
    def test_full_exposition_is_valid(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Hits.").inc(3)
        registry.gauge("repro_depth", "Depth.").set(1.5)
        family = registry.histogram(
            "repro_latency_seconds", "Latency.", labelnames=("path",),
            bounds=(0.1, 1.0),
        )
        child = family.labels("/v1/campaigns/{name}")
        child.observe(0.05)
        child.observe(0.5)
        child.observe(5.0)
        text = render_prometheus(registry)
        assert_valid_exposition(text)
        lines = text.splitlines()
        assert "# TYPE repro_hits_total counter" in lines
        assert "repro_hits_total 3" in lines
        assert "repro_depth 1.5" in lines
        # Cumulative le-buckets, the +Inf bucket, and _sum/_count series;
        # literal braces inside label values must render untouched.
        label = 'path="/v1/campaigns/{name}"'
        assert f'repro_latency_seconds_bucket{{{label},le="0.1"}} 1' in lines
        assert f'repro_latency_seconds_bucket{{{label},le="1"}} 2' in lines
        assert f'repro_latency_seconds_bucket{{{label},le="+Inf"}} 3' in lines
        assert f"repro_latency_seconds_count{{{label}}} 3" in lines

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", labelnames=("k",)).labels('a"b\\c\nd').set(1)
        text = render_prometheus(registry)
        assert '{k="a\\"b\\\\c\\nd"}' in text
        assert_valid_exposition(text)

    def test_multi_registry_first_wins(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        first.counter("dup_total").inc(1)
        second.counter("dup_total").inc(99)
        second.counter("only_total").inc(5)
        lines = render_prometheus(first, second).splitlines()
        assert "dup_total 1" in lines
        assert "dup_total 99" not in lines
        assert "only_total 5" in lines

    def test_empty_families_are_skipped(self):
        registry = MetricsRegistry()
        registry.counter("never_used_total", labelnames=("k",))
        assert "never_used_total" not in render_prometheus(registry)
