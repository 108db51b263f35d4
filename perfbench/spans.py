"""Benchmark-owned tracing: in-memory spans around the program's public
calls, installed from outside the program (nothing under ``src/`` knows).

A span is ``[id, parent, name, start, end, trace, attrs]`` with
``time.perf_counter`` stamps, which on Linux read ``CLOCK_MONOTONIC`` and
so compare across the processes of one machine.  The parent is the
innermost wrapped call on the same task or thread (a context variable),
and the trace id is the request's, where the call carries one.  Spans stay
in memory and are written once, at process exit.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time

#: Directory the traced processes write their span files into.
TRACE_ENV = "PERFBENCH_TRACE_DIR"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.meta: dict = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=(0, ""))

    def wrap(self, owner, attribute: str, name: str, *, trace=None, attrs=None):
        """Replace ``owner.attribute`` (a function or method) with a timing
        wrapper.  ``trace(args, kwargs)`` names the call's trace id and
        ``attrs(args, kwargs, result)`` what to keep from the call."""
        function = getattr(owner, attribute)
        recorder = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span = recorder._open(name, trace(args, kwargs) if trace else "")
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    recorder._close(span, attrs(args, kwargs, result) if attrs else None)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span = recorder._open(name, trace(args, kwargs) if trace else "")
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    recorder._close(span, attrs(args, kwargs, result) if attrs else None)

        setattr(owner, attribute, wrapper)

    def _open(self, name: str, trace: str) -> list:
        parent, inherited = self._current.get()
        span_id = next(self._ids)
        token = self._current.set((span_id, trace or inherited))
        return [span_id, parent, name, time.perf_counter(), 0.0, trace or inherited, None, token]

    def _close(self, span: list, attrs) -> None:
        span[4] = time.perf_counter()
        self._current.reset(span.pop())
        span[6] = attrs
        self.spans.append(span)

    def dump(self, path: str) -> None:
        temporary = f"{path}.tmp"
        with open(temporary, "w") as handle:
            json.dump({"pid": os.getpid(), "meta": self.meta, "spans": self.spans}, handle)
        os.replace(temporary, path)


def _engine(recorder: SpanRecorder) -> None:
    from repro.protocol.engine import ShardAccumulator

    recorder.wrap(
        ShardAccumulator, "add_reports", "engine.fold", attrs=lambda a, k, r: len(a[1])
    )
    recorder.wrap(ShardAccumulator, "merge", "engine.merge")


def install_coordinator(recorder: SpanRecorder) -> None:
    """Spans in the ``repro serve`` process."""
    from repro.postprocess import intervals
    from repro.service import campaigns, checkpoint, cluster, server, wal

    recorder.wrap(
        server.CollectionService,
        "_dispatch",
        "server.request",
        trace=lambda a, k: a[1].trace,
        attrs=lambda a, k, r: f"{a[1].method} {a[1].path}",
    )
    recorder.wrap(wal.WriteAheadLog, "append", "wal.append")
    recorder.wrap(cluster.WorkerPool, "submit_frames", "cluster.dispatch")
    recorder.wrap(cluster.WorkerPool, "snapshots", "cluster.snapshot")
    recorder.wrap(cluster.WorkerPool, "cut", "cluster.cut")
    recorder.wrap(server.CollectionService, "checkpoint", "checkpoint.total")
    recorder.wrap(checkpoint.CheckpointStore, "save_frozen", "checkpoint.save")
    recorder.wrap(server, "fold_json_body", "ingest.fold_json")
    recorder.wrap(campaigns.CampaignManager, "query", "query.total")
    recorder.wrap(campaigns, "workload_confidence_intervals", "query.reconstruct")
    recorder.wrap(intervals, "per_query_variances", "query.variance")
    recorder.wrap(campaigns.QueryAnswer, "to_json", "query.to_json")
    _engine(recorder)


def install_worker(recorder: SpanRecorder) -> None:
    """Spans in a spawned cluster worker."""
    from repro.service import cluster

    recorder.wrap(
        cluster,
        "fold_frame_body",
        "worker.fold_frames",
        trace=lambda a, k: a[2] if len(a) > 2 else k.get("trace_id", ""),
    )
    _engine(recorder)


def _restart_attrs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    telemetry = {} if result is None else result.telemetry
    return {
        "warm": config is not None and config.initial_strategy is not None,
        "iterations": telemetry.get("iterations", 0),
        "line_search": telemetry.get("line_search_attempts", 0),
        "projections": telemetry.get("projection_passes", 0),
    }


def install_optimizer(recorder: SpanRecorder) -> None:
    """Spans around Algorithm 2's restart loop, kernels, projection and store."""
    from repro.optimization import kernels, restarts
    from repro.store.store import StrategyStore

    recorder.wrap(restarts, "optimize_strategy", "restarts.restart", attrs=_restart_attrs)
    for method in ("value_and_gradient", "value_batch", "project", "project_batch"):
        layer = "projection" if method.startswith("project") else "kernels"
        recorder.wrap(kernels.FastEngine, method, f"{layer}.{method}")
    recorder.wrap(StrategyStore, "put", "store.put")
    recorder.wrap(
        StrategyStore, "get", "store.get", attrs=lambda a, k, r: r is not None
    )
    recorder.wrap(StrategyStore, "nearest", "store.nearest")


# -- analysis ---------------------------------------------------------------


def load(directory: str) -> list[dict]:
    """Every span file in ``directory``: ``[{"pid", "meta", "spans"}]``."""
    files = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                files.append(json.load(handle))
    return files


def union_seconds(intervals) -> float:
    """Length covered by possibly overlapping ``(start, end)`` intervals."""
    covered, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover (one
    process's spans)."""
    children: dict[int, list[list]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    return {
        span[0]: span[4]
        - span[3]
        - union_seconds(
            (max(child[3], span[3]), min(child[4], span[4]))
            for child in children.get(span[0], ())
        )
        for span in spans
    }
