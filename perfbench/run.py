"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload ingest_durable --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` runs the workload untraced and
then traced, and prints the per-layer metrics from the spans plus the
tracing overhead (traced minus untraced).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from service import FAILED_MS  # noqa: E402

WORKLOADS = ("ingest_durable", "query_mix", "strategy_build")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Percentile recorded as query_tail_ms: the 50 dashboard queries of a
#: 25-s window leave twelve beyond it.
QUERY_TAIL = 75.0

#: Percentile recorded as ack_tail_ms: about 30% of query_mix acks queue
#: behind a query, and p95 of its 1250 acks sits well inside that mode.
ACK_TAIL = 95.0

#: Percentile reported as wal.append_tail_ms.
WAL_TAIL = 95.0

#: What every workload reports and ``BENCHMARK.json`` gates.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
    "objective": "sq_error",
}

#: Latencies printed on every run of the workloads that have them, but not
#: gated: each exists on one or two workloads only, and the ingest
#: latencies track CPU steal too closely to repeat between runs of
#: identical code (see the README).
RECORDED = {
    "ack_p50_ms": "ms",
    "ack_tail_ms": "ms",
    "visible_p50_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "build_s": "s",
}

PER_LAYER = {
    "server.listen_s": "s",
    "server.create_campaign_ms": "ms",
    "server.ack_self_ms": "ms",
    "wal.append_p50_ms": "ms",
    "wal.append_tail_ms": "ms",
    "wal.appends_per_fsync": "ratio",
    "cluster.dispatch_p50_ms": "ms",
    "cluster.snapshot_p50_ms": "ms",
    "cluster.cut_ms": "ms",
    "cluster.worker_cpu_s": "s",
    "checkpoint.total_ms": "ms",
    "checkpoint.save_ms": "ms",
    "ingest.fold_json_p50_ms": "ms",
    "engine.fold_us_per_kreport": "us/kreport",
    "engine.merge_ms": "ms",
    "query.total_p50_ms": "ms",
    "query.reconstruct_p50_ms": "ms",
    "query.variance_p50_ms": "ms",
    "query.to_json_ms": "ms",
    "optimizer.iterations": "count",
    "optimizer.ms_per_iteration": "ms",
    "optimizer.line_search_per_iteration": "ratio",
    "optimizer.projection_passes_per_iteration": "ratio",
    "kernels.value_and_gradient_ms": "ms",
    "kernels.value_and_gradient_calls": "count",
    "kernels.value_batch_ms": "ms",
    "kernels.value_batch_calls": "count",
    "projection.ms": "ms",
    "projection.calls": "count",
    "restarts.restart_s": "s",
    "restarts.warm_started": "count",
    "store.put_ms": "ms",
    "store.hit_ms": "ms",
    "store.nearest_ms": "ms",
    "setup.import_s": "s",
    "rss.coordinator_mb": "MiB",
    "rss.workers_mb": "MiB",
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ms(seconds: float) -> float:
    return FAILED_MS if seconds == float("inf") else seconds * 1e3


# -- end-to-end metrics ------------------------------------------------------------


def _by_second(samples, start: float) -> list[list[float]]:
    """``(due, ms)`` samples grouped by the second of the window they were
    due in."""
    seconds: dict[int, list[float]] = defaultdict(list)
    for due, value in samples:
        seconds[int(due - start)].append(value)
    return [seconds[key] for key in sorted(seconds)]


def _acks(m) -> list[tuple[float, float]]:
    return [(due, _ms(done - due)) for due, _, done in m.window.acks]


def service_end_to_end(m) -> dict:
    return {
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": m.peak_rss_mb,
        "cpu_s": m.cpu_s,
        "objective": m.objective,
    }


def service_recorded(m) -> dict:
    acks = [ms for _, ms in _acks(m)]
    recorded = {"ack_p50_ms": pct(acks, 50), "ack_tail_ms": pct(acks, ACK_TAIL)}
    if m.window.visible:
        recorded["visible_p50_ms"] = pct([ms for _, ms in m.window.visible], 50)
    else:
        queries = [_ms(done - due) for due, done in m.window.side]
        recorded["query_p50_ms"] = pct(queries, 50)
        recorded["query_tail_ms"] = pct(queries, QUERY_TAIL)
    return recorded


def _per_second(m) -> list[list[float]]:
    """[steal s, acks, ack p50 ms, ack p95 ms] for each second of the window."""
    steal = [after - before for (_, before), (_, after) in zip(m.window.steal, m.window.steal[1:])]
    return [
        [stolen, len(acks), pct(acks, 50), pct(acks, 95)]
        for stolen, acks in zip(steal, _by_second(_acks(m), m.window.start))
    ]


def service_record(m) -> dict:
    lateness = [(sent - due) * 1e3 for due, sent, _ in m.window.acks]
    acks = [ms for _, ms in _acks(m)]
    side = [ms for _, ms in m.window.visible] or [_ms(done - due) for due, done in m.window.side]
    record = {
        "window_s": m.window.end - m.window.start,
        "acks": len(m.window.acks),
        "side_ops": len(m.window.side) + len(m.window.visible),
        "steal_s": m.steal_s,
        "generator_cpu_s": m.generator_cpu_s,
        "generator_lateness_p50_ms": pct(lateness, 50),
        "generator_lateness_max_ms": max(lateness, default=0.0),
        "errors": m.ledger.errors,
        "ack_percentiles_ms": {q: pct(acks, q) for q in (50, 75, 90, 95, 99)},
        "side_percentiles_ms": {q: pct(side, q) for q in (50, 66, 75, 90)},
        "per_second": _per_second(m),
    }
    return record


def build_end_to_end(result: dict) -> dict:
    reps = result["reps"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        # The mean: each repetition draws its own optimizer seeds, and
        # their iteration counts differ; the mean over the window's
        # repetitions averages more of those draws than the median does.
        "cpu_s": statistics.fmean(rep["cpu_s"] for rep in reps),
        "objective": statistics.median(rep["objective"] for rep in reps),
    }


# -- per-layer metrics ----------------------------------------------------------------


@dataclasses.dataclass
class Span:
    role: str
    name: str
    start: float
    end: float
    self_s: float
    trace: str
    attrs: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


def load_spans(trace_dir: Path) -> tuple[list[Span], dict]:
    loaded, meta = [], {}
    for document in spans.load(str(trace_dir)):
        role = document["meta"].get("role", "optimizer")
        meta.setdefault(role, document["meta"])
        self_times = spans.self_times(document["spans"])
        for span_id, _, name, start, end, trace, attrs in document["spans"]:
            loaded.append(Span(role, name, start, end, self_times[span_id], trace, attrs))
    return loaded, meta


def _p50_ms(window: list[Span], name: str, attribute: str = "seconds") -> float:
    return pct([getattr(s, attribute) * 1e3 for s in window if s.name == name], 50)


def service_layers(m, spec) -> tuple[dict, list[Span]]:
    loaded, meta = load_spans(m.trace_dir)
    window = [s for s in loaded if m.window.start <= s.start < m.window.end]
    layers = dict.fromkeys(PER_LAYER, 0.0)
    inner = defaultdict(list)
    for span in window:
        if span.role == "coordinator" and span.name in (
            "wal.append", "cluster.dispatch", "ingest.fold_json"
        ):
            inner[span.trace].append((span.start, span.end))
    ack_self = [
        (done - sent - spans.union_seconds(inner.get(trace, ()))) * 1e3
        for name, trace, sent, done in m.ack_traces
        if name == spec.load.name and m.window.start <= sent < m.window.end
    ]
    appends = m.wal_after.get("appends", 0) - m.wal_before.get("appends", 0)
    fsyncs = m.wal_after.get("fsync_batches", 0) - m.wal_before.get("fsync_batches", 0)
    folds = [s for s in window if s.name == "engine.fold"]
    folded = sum(s.attrs for s in folds)
    wal_ms = [s.seconds * 1e3 for s in window if s.name == "wal.append"]
    layers.update(
        {
            "server.listen_s": m.listen_s,
            "server.create_campaign_ms": m.create_s * 1e3,
            "server.ack_self_ms": pct(ack_self, 50),
            "wal.append_p50_ms": pct(wal_ms, 50),
            "wal.append_tail_ms": pct(wal_ms, WAL_TAIL),
            "wal.appends_per_fsync": appends / fsyncs if fsyncs else 0.0,
            "cluster.dispatch_p50_ms": _p50_ms(window, "cluster.dispatch"),
            "cluster.snapshot_p50_ms": _p50_ms(window, "cluster.snapshot"),
            "cluster.cut_ms": _p50_ms(window, "cluster.cut"),
            "cluster.worker_cpu_s": m.worker_cpu_s,
            "checkpoint.total_ms": _p50_ms(window, "checkpoint.total"),
            "checkpoint.save_ms": _p50_ms(window, "checkpoint.save"),
            "ingest.fold_json_p50_ms": _p50_ms(window, "ingest.fold_json"),
            "engine.fold_us_per_kreport": (
                sum(s.seconds for s in folds) * 1e6 / (folded / 1e3) if folded else 0.0
            ),
            "engine.merge_ms": _p50_ms(window, "engine.merge"),
            "query.total_p50_ms": _p50_ms(window, "query.total"),
            "query.reconstruct_p50_ms": _p50_ms(window, "query.reconstruct", "self_s"),
            "query.variance_p50_ms": _p50_ms(window, "query.variance"),
            "query.to_json_ms": _p50_ms(window, "query.to_json"),
            "setup.import_s": meta.get("coordinator", {}).get("import_s", 0.0),
            "rss.coordinator_mb": m.rss_coordinator_mb,
            "rss.workers_mb": m.rss_workers_mb,
        }
    )
    return layers, window


def build_layers(result: dict, trace_file: Path) -> tuple[dict, list[Span]]:
    loaded, meta = load_spans(trace_file.parent)
    # The first repetition: its counts repeat exactly for a given seed.
    start, end = result["reps"][0]["window"]
    window = [s for s in loaded if start <= s.start < end]
    restarts = [s for s in window if s.name == "restarts.restart"]
    iterations = sum(s.attrs["iterations"] for s in restarts)
    per_iteration = 1.0 / iterations if iterations else 0.0

    def named(*names):
        return [s for s in window if s.name in names]

    projections = named("projection.project", "projection.project_batch")
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(
        {
            "optimizer.iterations": iterations,
            "optimizer.ms_per_iteration": sum(s.seconds for s in restarts) * 1e3 * per_iteration,
            "optimizer.line_search_per_iteration": sum(s.attrs["line_search"] for s in restarts)
            * per_iteration,
            "optimizer.projection_passes_per_iteration": sum(
                s.attrs["projections"] for s in restarts
            )
            * per_iteration,
            "kernels.value_and_gradient_ms": sum(
                s.seconds for s in named("kernels.value_and_gradient")
            )
            * 1e3,
            "kernels.value_and_gradient_calls": len(named("kernels.value_and_gradient")),
            "kernels.value_batch_ms": sum(s.seconds for s in named("kernels.value_batch")) * 1e3,
            "kernels.value_batch_calls": len(named("kernels.value_batch")),
            "projection.ms": sum(s.seconds for s in projections) * 1e3,
            "projection.calls": len(projections),
            "restarts.restart_s": pct([s.seconds for s in restarts], 50),
            "restarts.warm_started": sum(1 for s in restarts if s.attrs["warm"]),
            "store.put_ms": _p50_ms(window, "store.put"),
            "store.hit_ms": pct([s.seconds * 1e3 for s in named("store.get") if s.attrs], 50),
            "store.nearest_ms": _p50_ms(window, "store.nearest"),
            "setup.import_s": meta.get("optimizer", {}).get("import_s", 0.0),
            "rss.coordinator_mb": result["peak_rss_mb"],
        }
    )
    return layers, window


def self_time_table(window: list[Span]) -> str:
    rows = defaultdict(list)
    for span in window:
        rows[(span.role, span.name)].append(span)
    lines = [f"{'process':<12} {'span':<30} {'calls':>7} {'total ms':>11} {'self ms':>11} {'p50 ms':>9}"]
    for (role, name), group in sorted(rows.items(), key=lambda item: -sum(s.self_s for s in item[1])):
        lines.append(
            f"{role:<12} {name:<30} {len(group):>7} "
            f"{sum(s.seconds for s in group) * 1e3:>11.2f} "
            f"{sum(s.self_s for s in group) * 1e3:>11.2f} "
            f"{pct([s.seconds * 1e3 for s in group], 50):>9.3f}"
        )
    return "\n".join(lines)


# -- one run ----------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    end_to_end: dict
    recorded: dict
    record: dict
    attempted: int
    failed: int
    checks: dict
    layers: dict | None = None
    window: list | None = None


def run_service(root, workdir, spec, seed, seconds, setups, trace_dir=None) -> Outcome:
    import service

    m = service.measure(root, workdir, spec, seed, seconds, setups, trace_dir)
    outcome = Outcome(
        service_end_to_end(m),
        service_recorded(m),
        service_record(m),
        m.ledger.attempted,
        m.ledger.failed,
        m.checks,
    )
    if trace_dir is not None:
        outcome.layers, outcome.window = service_layers(m, spec)
    return outcome


def run_build(root, workdir, seed, seconds, setups, trace_dir=None, quick=False) -> Outcome:
    import build

    trace_file = None if trace_dir is None else trace_dir / "optimizer.json"
    result = build.measure(root, workdir, seed, seconds, setups, trace_file, quick)
    checks = {}
    for index, rep in enumerate(result["reps"]):
        for name, ok in rep["checks"].items():
            checks[f"rep{index}.{name}"] = ok
    record = {
        "reps": len(result["reps"]),
        "build_s": [rep["build_s"] for rep in result["reps"]],
        "cpu_s": [rep["cpu_s"] for rep in result["reps"]],
        "steal_s": result["steal_s"],
    }
    recorded = {"build_s": statistics.median(rep["build_s"] for rep in result["reps"])}
    outcome = Outcome(
        build_end_to_end(result), recorded, record, result["attempted"], result["failed"], checks
    )
    if trace_file is not None:
        outcome.layers, outcome.window = build_layers(result, trace_file)
    return outcome


def measure(arguments, root: Path, workdir: Path, trace_root: Path):
    """Returns the outcomes: one untraced, then one traced when tracing."""
    import service

    specs = {"ingest_durable": service.INGEST_DURABLE, "query_mix": service.QUERY_MIX}

    def once(setups, trace_dir, tag):
        target = workdir / tag
        target.mkdir(parents=True)
        if arguments.workload == "strategy_build":
            return run_build(
                root, target, arguments.seed, arguments.seconds, setups, trace_dir, arguments.quick
            )
        spec = specs[arguments.workload]
        if arguments.quick:
            spec = dataclasses.replace(
                spec,
                load=dataclasses.replace(spec.load, domain_size=64, pool=4),
                load_rate=min(spec.load_rate, 40.0),
                side_rate=4.0,
                warmup=3,
            )
        return run_service(root, target, spec, arguments.seed, arguments.seconds, setups, trace_dir)

    if not arguments.trace:
        return [once(1 if arguments.quick else SETUPS, None, "untraced")]
    untraced = once(1, None, "untraced")
    trace_dir = trace_root / f"{arguments.workload}-seed{arguments.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    return [untraced, once(1, trace_dir, "traced")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes for the self-test"
    )
    arguments = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    import procfs

    # Two generator threads share one interpreter lock; a short switch
    # interval keeps one from delaying the other's due send by up to 5 ms.
    sys.setswitchinterval(0.0005)
    scratch = root / ".perfbench-run"
    workdir = scratch / f"work-{arguments.workload}-{os.getpid()}"
    started = time.perf_counter()
    try:
        outcomes = measure(arguments, root, workdir, scratch / "traces")
    except Exception:  # noqa: BLE001 - reported, and the run fails without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = procfs.environment()
    for index, outcome in enumerate(outcomes):
        label = "traced" if index else "untraced"
        print(f"perfbench {label} {json.dumps({**environment, **outcome.record})}")
        print(f"perfbench {label} checks {json.dumps(outcome.checks)}")
        for name, value in outcome.end_to_end.items():
            print(f"  {arguments.workload}/{name} = {value:.6g} {END_TO_END[name]}")
        for name, value in outcome.recorded.items():
            print(f"  {arguments.workload}/{name} = {value:.6g} {RECORDED[name]} (recorded, not gated)")
    if arguments.trace:
        untraced, traced = outcomes
        layers = dict(traced.layers)
        for name, value in traced.end_to_end.items():
            layers[f"overhead.{name}"] = value - untraced.end_to_end[name]
        print(f"self time, traced window of {arguments.workload}:")
        print(self_time_table(traced.window))
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        metrics = {
            name: {"value": outcomes[0].end_to_end[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    correct = all(all(outcome.checks.values()) for outcome in outcomes)
    print(f"perfbench wall {time.perf_counter() - started:.1f} s")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(outcome.attempted for outcome in outcomes),
                "failed": sum(outcome.failed for outcome in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
