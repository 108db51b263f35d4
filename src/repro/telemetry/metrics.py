"""Lock-cheap in-process metrics: counters, gauges, latency histograms.

The registry is the single source of truth for operational metrics across
the service (HTTP edge, ingest pipeline, worker pool, checkpoints,
campaign round transitions) and the optimizer drivers.  Design goals, in
order:

1. **Cheap on the hot path.**  An increment or observation is a couple of
   attribute writes — no locks are taken.  The service mutates metrics
   from a single asyncio event loop (and worker processes each own a
   private registry), so updates are single-writer by construction;
   under the GIL a concurrent reader can at worst see a value that is a
   few updates stale, never a torn one.
2. **Mergeable.**  Histograms share fixed bucket bounds, so merging two
   snapshots is element-wise addition — commutative and associative,
   which makes cross-worker aggregation order-independent.
3. **Exact quantile read-out.**  `Histogram.quantile` computes the
   bucket bracketing the requested rank from the exact cumulative
   counts; p50/p95/p99 are deterministic functions of the recorded
   observations, not sampled estimates.

Nothing here ever touches estimate math: telemetry is observation only.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "render_prometheus",
]

# Upper bounds (seconds) for latency histograms: 100us .. 10s, log-spaced.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Metric:
    """Base for a single sample stream (one label combination)."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[tuple[str, str], ...]) -> None:
        self.labels = labels


class Counter(_Metric):
    """Monotonically increasing count; optionally backed by a callback
    sampled on read (a running total kept by the object it describes)."""

    __slots__ = ("_value", "_fn")

    def __init__(self, labels: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(labels)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn`` at read time; it must never decrease."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge(_Metric):
    """Point-in-time value; optionally backed by a callback sampled on read."""

    __slots__ = ("_value", "_fn")

    def __init__(self, labels: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(labels)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn`` at read time instead of storing a value."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram with exact rank-based quantile read-out.

    Buckets are cumulative-upper-bound style (Prometheus ``le``
    semantics): ``counts[i]`` holds the number of observations ``<=
    bounds[i]``, with one implicit +Inf bucket at the end.  Because the
    bounds are fixed at construction, two histograms with the same
    bounds merge by element-wise addition — the merge is commutative and
    associative, so cross-worker aggregation is order-independent.

    >>> h = Histogram(bounds=(1.0, 2.0, 4.0))
    >>> for v in (0.5, 1.5, 1.5, 3.0):
    ...     h.observe(v)
    >>> h.count, h.quantile(0.5), h.quantile(0.99)
    (4, 2.0, 4.0)
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        labels: tuple[tuple[str, str], ...] = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(labels)
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be distinct and ascending")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; pass finite bounds")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        # Linear scan: bucket lists are short (<=17 entries) and the scan
        # stays allocation-free, which beats bisect for this size.
        idx = 0
        bounds = self.bounds
        while idx < len(bounds) and value > bounds[idx]:
            idx += 1
        self._counts[idx] += 1
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-rank observation.

        Exact with respect to the recorded bucket counts: the returned
        bound is the smallest bucket edge ``b`` such that at least
        ``ceil(q * count)`` observations were ``<= b``.  Returns ``nan``
        when empty; observations beyond the last finite bound report the
        recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self._count))
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if idx < len(self.bounds):
                    return self.bounds[idx]
                return self._max
        return self._max  # pragma: no cover - cumulative always reaches count

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict[str, object]:
        """Serializable state for cross-process merging."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
            "min": None if self._count == 0 else self._min,
            "max": None if self._count == 0 else self._max,
        }

    def merge_snapshot(self, snap: Mapping[str, object]) -> None:
        """Fold another histogram's snapshot into this one (element-wise)."""
        bounds = tuple(float(b) for b in snap["bounds"])  # type: ignore[union-attr]
        if bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        counts = snap["counts"]
        for idx, c in enumerate(counts):  # type: ignore[arg-type]
            self._counts[idx] += int(c)
        self._sum += float(snap["sum"])  # type: ignore[arg-type]
        self._count += int(snap["count"])  # type: ignore[arg-type]
        if snap.get("min") is not None:
            self._min = min(self._min, float(snap["min"]))  # type: ignore[arg-type]
        if snap.get("max") is not None:
            self._max = max(self._max, float(snap["max"]))  # type: ignore[arg-type]

    def cumulative_counts(self) -> list[int]:
        out = []
        total = 0
        for c in self._counts:
            total += c
            out.append(total)
        return out


class _Family:
    """A named metric family: one or more label-addressed children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.bounds = bounds
        self._children: dict[tuple[str, ...], _Metric] = {}
        self._lock = threading.Lock()

    def _make(self, labelvalues: tuple[str, ...]) -> _Metric:
        labels = tuple(zip(self.labelnames, labelvalues))
        if self.kind == "counter":
            return Counter(labels)
        if self.kind == "gauge":
            return Gauge(labels)
        return Histogram(labels, bounds=self.bounds or DEFAULT_LATENCY_BUCKETS)

    def labels(self, *values: object, **kwargs: object) -> _Metric:
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kwargs[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {key}"
            )
        child = self._children.get(key)
        if child is None:
            # Child creation is rare; the lock never sits on the hot path.
            with self._lock:
                child = self._children.setdefault(key, self._make(key))
        return child

    def children(self) -> Iterable[_Metric]:
        return list(self._children.values())


class MetricsRegistry:
    """Name → metric family map with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the unlabeled child
    directly when ``labelnames`` is empty (the common case), or the
    family — call ``.labels(...)`` — when labels are declared.
    Re-registering an existing name returns the existing object and
    verifies the kind matches.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        bounds: Sequence[float] | None = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, kind, tuple(labelnames), bounds)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                    f"{family.labelnames}"
                )
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter | _Family:
        family = self._register(name, help_text, "counter", labelnames)
        if not family.labelnames:
            return family.labels()  # type: ignore[return-value]
        return family

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge | _Family:
        family = self._register(name, help_text, "gauge", labelnames)
        if not family.labelnames:
            return family.labels()  # type: ignore[return-value]
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram | _Family:
        family = self._register(name, help_text, "histogram", labelnames, bounds)
        if not family.labelnames:
            return family.labels()  # type: ignore[return-value]
        return family

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    def unregister(self, name: str) -> None:
        with self._lock:
            self._families.pop(name, None)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- read-out ---------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        """Nested JSON snapshot: name → value / labeled rows / histogram."""
        out: dict[str, object] = {}
        for family in self.families():
            rows = []
            for child in family.children():
                if isinstance(child, Histogram):
                    value: object = {
                        "count": child.count,
                        "sum": child.sum,
                        **child.percentiles(),
                    }
                else:
                    value = child.value  # type: ignore[union-attr]
                if family.labelnames:
                    rows.append({"labels": dict(child.labels), "value": value})
                else:
                    out[family.name] = value
            if family.labelnames:
                out[family.name] = rows
        return out

    def render_prometheus(self) -> str:
        return render_prometheus(self)


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry.

    The server, optimizer drivers, and checkpoint store register here
    unless handed an explicit registry; worker processes each get their
    own fresh instance so snapshots merge cleanly at the coordinator.
    """
    return _DEFAULT_REGISTRY


def _fmt_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render one or more registries in the Prometheus text exposition
    format.

    Counters get a ``_total``-as-written name (families are expected to
    already follow naming conventions), histograms expand into
    ``_bucket``/``_sum``/``_count`` series with cumulative ``le``
    labels, and every family carries ``# HELP`` / ``# TYPE`` headers.
    With several registries, a family name appearing in more than one is
    rendered from the first registry that defines it — exposing the same
    family twice would be malformed exposition.
    """
    families: dict[str, _Family] = {}
    for registry in registries:
        for family in registry.families():
            families.setdefault(family.name, family)
    lines: list[str] = []
    for family in sorted(families.values(), key=lambda f: f.name):
        children = list(family.children())
        if not children:
            continue
        help_text = family.help_text.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {family.name} {help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in children:
            if isinstance(child, Histogram):
                cumulative = child.cumulative_counts()
                for bound, cum in zip(child.bounds, cumulative):
                    labels = child.labels + (("le", _fmt_value(bound)),)
                    lines.append(
                        f"{family.name}_bucket{_label_str(labels)} {cum}"
                    )
                labels = child.labels + (("le", "+Inf"),)
                lines.append(f"{family.name}_bucket{_label_str(labels)} {child.count}")
                lines.append(
                    f"{family.name}_sum{_label_str(child.labels)} "
                    f"{_fmt_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{_label_str(child.labels)} {child.count}")
            else:
                value = child.value  # type: ignore[union-attr]
                lines.append(
                    f"{family.name}{_label_str(child.labels)} {_fmt_value(value)}"
                )
    return "\n".join(lines) + "\n"
