"""Profile one strategy optimization and print the top cumulative costs.

cProfile wrapper for the optimizer hot path: runs ``optimize_strategy``
for a named configuration and prints the top-N functions by cumulative
time, so a regression in the kernels (projection solver, workspace
factorization, line-search batching) shows up as a shifted profile rather
than a mystery slowdown.

Run::

    PYTHONPATH=src python scripts/profile_optimizer.py --domain 128 \
        --iterations 100 --top 20
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

from repro.optimization import OptimizerConfig, optimize_strategy
from repro.workloads import histogram, prefix


WORKLOADS = {"histogram": histogram, "prefix": prefix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=128)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="histogram")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--num-outputs",
        type=int,
        default=None,
        help="strategy rows m (default: the paper's 4n)",
    )
    parser.add_argument("--top", type=int, default=15, help="functions to print")
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
    )
    parser.add_argument(
        "--output", default=None, help="also dump pstats data to this path"
    )
    parser.add_argument(
        "--telemetry-output",
        default=None,
        help="write the run's optimizer telemetry (objective trajectory, "
        "line-search attempts, projection passes) as JSON to this path "
        "(default: <output>.telemetry.json when --output is given)",
    )
    arguments = parser.parse_args(argv)

    workload = WORKLOADS[arguments.workload](arguments.domain)
    config = OptimizerConfig(
        num_iterations=arguments.iterations,
        seed=arguments.seed,
        num_outputs=arguments.num_outputs,
        track_history=True,
    )
    print(
        f"profiling optimize_strategy: {arguments.workload}({arguments.domain}), "
        f"m = {arguments.num_outputs or 4 * arguments.domain}, "
        f"{arguments.iterations} iterations"
    )

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = optimize_strategy(workload, arguments.epsilon, config)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"ran {result.iterations_run} iterations in {elapsed:.3f}s "
        f"({result.iterations_run / elapsed:.2f} it/s), "
        f"objective {result.objective:.6f}"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(arguments.sort).print_stats(arguments.top)
    print(stream.getvalue())
    if arguments.output:
        stats.dump_stats(arguments.output)
        print(f"wrote pstats data to {arguments.output}")
    telemetry_path = arguments.telemetry_output
    if telemetry_path is None and arguments.output:
        telemetry_path = f"{arguments.output}.telemetry.json"
    if telemetry_path:
        document = {
            "workload": arguments.workload,
            "domain": arguments.domain,
            "epsilon": arguments.epsilon,
            "seed": arguments.seed,
            "elapsed_seconds": elapsed,
            "objective": result.objective,
            "iterations_run": result.iterations_run,
            "step_size": result.step_size,
            "objective_trajectory": result.history,
            **result.telemetry,
        }
        Path(telemetry_path).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote optimizer telemetry to {telemetry_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
