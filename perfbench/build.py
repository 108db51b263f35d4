"""The ``strategy_build`` workload: the ``multi_restart_optimize`` path that
``repro strategy build`` runs, in a process of its own.

Each repetition builds a fixed list of the paper's workloads into a fresh
:class:`~repro.store.StrategyStore` (restarts=2, otherwise the CLI's
defaults: 500 iterations, m = 4n, serial restarts, history kept), then
requests the same list again, where every request is a store hit.  Prefix
appears at two budgets, so its second build warm-starts from the first.
Repetitions run until ``--seconds`` have passed, each with its own
optimizer seed derived from ``--seed``.  Before it reports ready, the
process runs one short warm-up build of the list's first workload.

The parent side (:func:`measure`) launches the optimizer process, which
runs under ``__main__``::

    PYTHONPATH=src python3 perfbench/build.py --seed 0 --seconds 10 --store-root DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procfs  # noqa: E402

#: (workload, n, epsilon); Prefix twice so its second build warm-starts.
BUILD_LIST = (
    ("Histogram", 64, 1.0),
    ("Prefix", 32, 1.0),
    ("Prefix", 32, 2.0),
    ("AllRange", 32, 1.0),
    ("3-Way Marginals", 32, 1.0),
    ("Parity", 32, 1.0),
    ("AllMarginals", 16, 1.0),
)

QUICK_LIST = (("Histogram", 8, 1.0), ("Prefix", 8, 1.0), ("Prefix", 8, 2.0))

RESTARTS = 2
ITERATIONS = 500

#: Iterations of the warm-up build before "ready": the first build of a
#: list-sized workload in a process pays about 0.5 s of one-time costs.
WARMUP_ITERATIONS = 20


def rep_seed(seed: int, rep: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


# -- output checks ------------------------------------------------------------


def check_strategy(probabilities, epsilon: float) -> bool:
    """The strategy re-validates as epsilon-LDP (and column-stochastic)."""
    from repro.exceptions import ReproError
    from repro.mechanisms.base import StrategyMatrix

    try:
        StrategyMatrix(probabilities, epsilon)
    except ReproError:
        return False
    return True


def check_objective(probabilities, gram, reported: float) -> bool:
    """L(Q) recomputed from scratch matches the reported value to 1e-9."""
    from repro.optimization.objective import objective_value

    value = objective_value(probabilities, gram)
    return math.isfinite(value) and abs(value - reported) <= 1e-9 * abs(reported)


def check_hit(cold: bytes, hit: bytes) -> bool:
    return cold == hit


# -- the optimizer process ----------------------------------------------------------


def _optimizer(arguments) -> int:
    recorder = None
    if arguments.trace_file:
        import spans

        recorder = spans.SpanRecorder()
        started = time.perf_counter()
        import repro  # noqa: F401

        recorder.meta["import_s"] = time.perf_counter() - started
        spans.install_optimizer(recorder)
    from repro.optimization import OptimizerConfig, multi_restart_optimize
    from repro.store import StrategyStore
    from repro.workloads import by_name

    build_list = QUICK_LIST if arguments.quick else BUILD_LIST
    items = [(by_name(name, n), epsilon) for name, n, epsilon in build_list]
    grams = [workload.gram() for workload, _ in items]
    workload, epsilon = items[0]
    multi_restart_optimize(
        workload,
        epsilon,
        OptimizerConfig(num_iterations=WARMUP_ITERATIONS, seed=arguments.seed, track_history=True),
        restarts=RESTARTS,
        backend="serial",
        store=StrategyStore(Path(arguments.store_root) / "warm-up"),
    )
    print("ready", flush=True)
    if arguments.setup_only:
        return 0

    reps, failed, attempted = [], 0, 0
    window_start, steal_start = time.perf_counter(), procfs.steal_seconds()
    while not reps or time.perf_counter() - window_start < arguments.seconds:
        rep = len(reps)
        store = StrategyStore(Path(arguments.store_root) / f"rep{rep}")
        config = OptimizerConfig(
            num_iterations=ITERATIONS, seed=rep_seed(arguments.seed, rep), track_history=True
        )
        passes = {"cold": [], "hit": []}
        started, cpu = time.perf_counter(), os.times()
        for name in passes:
            for workload, epsilon in items:
                attempted += 1
                try:
                    report = multi_restart_optimize(
                        workload, epsilon, config, restarts=RESTARTS, backend="serial", store=store
                    )
                except Exception as error:  # noqa: BLE001 - counted as failed
                    print(f"build failed: {type(error).__name__}: {error}", file=sys.stderr)
                    failed += 1
                    report = None
                passes[name].append(report)
        ended, cpu_end = time.perf_counter(), os.times()
        checks = {"store_hits": True, "ldp": True, "objective": True, "hit_bytes": True}
        objectives = []
        for (workload, epsilon), gram, cold, hit in zip(items, grams, passes["cold"], passes["hit"]):
            if cold is None or hit is None or cold.store_hit or not hit.store_hit:
                checks["store_hits"] = False
                continue
            probabilities = cold.result.strategy.probabilities
            objectives.append(cold.objective)
            checks["ldp"] &= check_strategy(probabilities, epsilon)
            checks["objective"] &= check_objective(probabilities, gram, cold.objective)
            checks["hit_bytes"] &= check_hit(
                probabilities.tobytes(), hit.result.strategy.probabilities.tobytes()
            )
        reps.append(
            {
                "window": [started, ended],
                "build_s": ended - started,
                "cpu_s": (cpu_end.user + cpu_end.system) - (cpu.user + cpu.system),
                "objective": math.exp(sum(map(math.log, objectives)) / len(objectives))
                if objectives
                else 0.0,
                "checks": checks,
            }
        )
    if recorder is not None:
        recorder.dump(arguments.trace_file)
    result = {
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "steal_s": procfs.steal_seconds() - steal_start,
        "peak_rss_mb": procfs.peak_rss_mib(os.getpid()),
    }
    print(json.dumps(result), flush=True)
    return 0


# -- the parent side -----------------------------------------------------------------


def measure(
    root: Path,
    workdir: Path,
    seed: int,
    seconds: float,
    setups: int,
    trace_file: Path | None = None,
    quick: bool = False,
) -> dict:
    """Launch the optimizer process ``setups`` times (all but the last stop once
    ready) and return the last one's result plus every set-up time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    setup_times = []
    for attempt in range(setups):
        last = attempt == setups - 1
        command = [
            sys.executable,
            str(root / "perfbench" / "build.py"),
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--store-root", str(workdir / f"stores-{attempt}"),
        ]
        if not last:
            command.append("--setup-only")
        if quick:
            command.append("--quick")
        if trace_file is not None and last:
            command += ["--trace-file", str(trace_file)]
        log_path = workdir / f"optimizer-{attempt}.log"
        with open(log_path, "wb") as log:
            launched = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
            try:
                line, rest = procfs.wait_for_line(process, "ready", timeout=90.0)
                setup_times.append(time.perf_counter() - launched)
                output, _ = process.communicate(timeout=170.0)
                output = rest + output
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        if line is None or process.returncode != 0:
            raise RuntimeError(
                f"optimizer process failed ({process.returncode}):\n"
                + log_path.read_text(errors="replace")[-2000:]
            )
    result = json.loads(output.decode("utf-8").strip().splitlines()[-1])
    result["setup_s"] = setup_times
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--store-root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--quick", action="store_true")
    sys.exit(_optimizer(parser.parse_args()))
