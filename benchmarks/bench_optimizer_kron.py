"""Benchmark the factored (Kronecker) optimizer against the dense path.

Measures wall-clock and traced peak memory for strategy optimization over
product domains, comparing:

* ``dense`` — materialize the joint Gram (``n x n``) and run the PR-5 PGD
  engine on the full domain.
* ``factored`` — per-factor alternating solves via
  :func:`repro.optimization.optimize_factored_strategy`; never forms an
  ``n^2`` array.

Three measurement modes, chosen per config by joint domain size ``n``:

* ``full``  (``n <= --dense-full-cells``): dense runs its complete budget;
  ``speedup = dense_seconds / factored_seconds`` is a direct wall ratio.
* ``probe`` (larger but still materializable): dense runs only
  ``--dense-probe-iterations`` iterations; ``speedup_lower_bound`` is the
  probe wall over the *entire* factored build — a strict lower bound on
  the true full-run speedup.
* ``unmaterializable`` (Gram over the allocation cap): the dense path
  cannot even allocate its workspace.  ``speedup_lower_bound`` prices a
  *single* dense iteration by scaling the largest measured dense
  per-iteration time quadratically in ``n`` (actual cost is cubic, so
  this undercounts) and divides by the full factored wall.

Every config whose joint Gram is materializable also cross-checks the
factored objective against the dense objective of the materialized joint
strategy (``--objective-rtol``, default 1e-9) — the equivalence gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_optimizer_kron.py \
        --configs 16x16,32x32,64x64x16x16 --json results.json
    PYTHONPATH=src python benchmarks/bench_optimizer_kron.py \
        --configs 16x16 --check-against benchmarks/baselines/optimizer_kron.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from math import prod

import numpy as np

from repro.exceptions import AllocationCapError
from repro.linalg.blas import thread_counts
from repro.optimization import (
    FactoredOptimizerConfig,
    OptimizerConfig,
    objective_value,
    optimize_factored_strategy,
    optimize_strategy,
)
from repro.workloads import k_way_product_marginals


def parse_config(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.strip().split("x"))
    except ValueError:
        raise SystemExit(f"bad config {text!r}: expected e.g. 16x16 or 64x64x16x16")
    if len(sizes) < 2 or any(size < 2 for size in sizes):
        raise SystemExit(f"bad config {text!r}: need >=2 factors, each >=2")
    return sizes


def time_factored(workload, epsilon, iterations, rounds, seed):
    config = FactoredOptimizerConfig(
        base=OptimizerConfig(num_iterations=iterations, seed=seed),
        rounds=rounds,
    )
    tracemalloc.start()
    start = time.perf_counter()
    result = optimize_factored_strategy(workload, epsilon, config)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "seconds": seconds,
        "iterations": result.iterations_run,
        "iters_per_sec": result.iterations_run / seconds if seconds > 0 else 0.0,
        "objective": result.objective,
        "traced_peak_bytes": peak,
    }, result


def time_dense(gram, epsilon, iterations, seed):
    config = OptimizerConfig(num_iterations=iterations, seed=seed)
    tracemalloc.start()
    start = time.perf_counter()
    result = optimize_strategy(gram, epsilon, config)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    iterations_run = max(result.iterations_run, 1)
    return {
        "seconds": seconds,
        "iterations": result.iterations_run,
        "per_iteration_seconds": seconds / iterations_run,
        "objective": result.objective,
        "traced_peak_bytes": peak,
    }


def run_config(
    sizes,
    *,
    way,
    epsilon,
    iterations,
    rounds,
    seed,
    dense_full_cells,
    dense_probe_iterations,
    objective_rtol,
    dense_reference,
):
    """Benchmark one product-domain config; returns (entry, dense_reference).

    ``dense_reference`` carries the largest measured dense per-iteration
    time forward so unmaterializable configs can price a dense iteration.
    """
    domain_size = prod(sizes)
    label = "x".join(str(size) for size in sizes)
    workload = k_way_product_marginals(sizes, way)
    entry = {
        "config": label,
        "sizes": list(sizes),
        "domain_size": domain_size,
        "way": way,
    }

    factored, result = time_factored(workload, epsilon, iterations, rounds, seed)
    entry["factored"] = factored
    print(
        f"config {label}: n={domain_size:,} factored "
        f"{factored['seconds']:.3f}s ({factored['iterations']} iters, "
        f"{factored['iters_per_sec']:,.1f} it/s, "
        f"peak {factored['traced_peak_bytes'] / 1e6:.1f} MB)"
    )

    try:
        gram = workload.gram()
    except AllocationCapError as error:
        entry["dense"] = {"mode": "unmaterializable", "error": str(error)}
        if dense_reference is None:
            print(f"config {label}: dense unmaterializable, no reference point")
            return entry, dense_reference
        reference_n, reference_per_iter = dense_reference
        scale = (domain_size / reference_n) ** 2
        single_iteration_seconds = reference_per_iter * scale
        bound = single_iteration_seconds / factored["seconds"]
        entry["dense"]["projected_single_iteration_seconds"] = (
            single_iteration_seconds
        )
        entry["dense"]["reference_domain_size"] = reference_n
        entry["speedup_lower_bound"] = bound
        print(
            f"config {label}: dense Gram over allocation cap; one dense "
            f"iteration >= {single_iteration_seconds:,.0f}s (quadratic "
            f"scaling from n={reference_n:,}) -> speedup >= {bound:,.0f}x"
        )
        return entry, dense_reference

    mode = "full" if domain_size <= dense_full_cells else "probe"
    budget = iterations if mode == "full" else dense_probe_iterations
    dense = time_dense(gram, epsilon, budget, seed)
    dense["mode"] = mode
    entry["dense"] = dense
    if dense_reference is None or domain_size > dense_reference[0]:
        dense_reference = (domain_size, dense["per_iteration_seconds"])

    if mode == "full":
        entry["speedup"] = dense["seconds"] / factored["seconds"]
        quality = factored["objective"] / dense["objective"]
        entry["objective_ratio_factored_over_dense"] = quality
        print(
            f"config {label}: dense {dense['seconds']:.3f}s "
            f"({dense['iterations']} iters) -> speedup "
            f"{entry['speedup']:,.1f}x, objective ratio {quality:.3f}"
        )
    else:
        entry["speedup_lower_bound"] = dense["seconds"] / factored["seconds"]
        print(
            f"config {label}: dense probe {dense['seconds']:.3f}s "
            f"({dense['iterations']} iters, "
            f"{dense['per_iteration_seconds']:.2f}s/iter) -> speedup >= "
            f"{entry['speedup_lower_bound']:,.1f}x"
        )

    joint = result.strategy.materialize(max_entries=None).probabilities
    evaluated = objective_value(joint, gram)
    gap = abs(evaluated - factored["objective"]) / abs(evaluated)
    entry["objective_rel_gap"] = gap
    entry["objective_gate"] = "pass" if gap <= objective_rtol else "FAIL"
    print(
        f"config {label}: factored-vs-dense objective rel gap {gap:.2e} "
        f"({entry['objective_gate']}, rtol {objective_rtol:g})"
    )
    return entry, dense_reference


def check_against(results, baseline_path):
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    tolerance = float(baseline.get("tolerance", 0.0))
    entries = baseline.get("entries", {})
    failures = 0
    for entry in results:
        floors = entries.get(entry["config"])
        if floors is None:
            print(f"check: no baseline for config {entry['config']}, skipping")
            continue
        measured = {
            "factored_iters_per_sec": entry["factored"]["iters_per_sec"],
            "speedup": entry.get("speedup"),
            "speedup_lower_bound": entry.get("speedup_lower_bound"),
        }
        for key, floor_value in floors.items():
            got = measured.get(key)
            if got is None:
                print(
                    f"check: MISSING config={entry['config']} {key}: "
                    "baseline has a floor but this run has no measurement"
                )
                failures += 1
                continue
            floor = float(floor_value) * (1.0 - tolerance)
            verdict = "ok" if got >= floor else "REGRESSION"
            if verdict != "ok":
                failures += 1
            print(
                f"check: {verdict:>10} config={entry['config']} {key}: "
                f"{got:,.2f} (floor {floor:,.2f} = {floor_value} "
                f"- {tolerance:.0%})"
            )
        if entry.get("objective_gate") == "FAIL":
            failures += 1
            print(
                f"check: REGRESSION config={entry['config']} objective "
                f"equivalence gate failed (rel gap {entry['objective_rel_gap']:.2e})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--configs",
        default="16x16,32x32,64x64,64x64x16x16",
        help="comma-separated factor-size specs, e.g. 16x16,64x64x16x16",
    )
    parser.add_argument("--way", type=int, default=2)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument(
        "--iterations",
        type=int,
        default=60,
        help="PGD budget: per factor for factored, total for full dense runs",
    )
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dense-full-cells",
        type=int,
        default=1024,
        help="run dense to full budget when the joint domain is at most this",
    )
    parser.add_argument(
        "--dense-probe-iterations",
        type=int,
        default=2,
        help="dense budget for materializable domains above --dense-full-cells",
    )
    parser.add_argument("--objective-rtol", type=float, default=1e-9)
    parser.add_argument("--json", help="write results to this path")
    parser.add_argument("--check-against", help="baseline JSON with floors")
    arguments = parser.parse_args(argv)

    configs = [parse_config(part) for part in arguments.configs.split(",")]
    results = []
    dense_reference = None
    for sizes in configs:
        entry, dense_reference = run_config(
            sizes,
            way=arguments.way,
            epsilon=arguments.epsilon,
            iterations=arguments.iterations,
            rounds=arguments.rounds,
            seed=arguments.seed,
            dense_full_cells=arguments.dense_full_cells,
            dense_probe_iterations=arguments.dense_probe_iterations,
            objective_rtol=arguments.objective_rtol,
            dense_reference=dense_reference,
        )
        results.append(entry)

    if arguments.json:
        document = {
            "cpu_count": os.cpu_count(),
            "blas_threads": thread_counts(),
            "entries": results,
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {arguments.json}")

    failures = 0
    for entry in results:
        if entry.get("objective_gate") == "FAIL":
            failures += 1
    if arguments.check_against:
        failures += check_against(results, arguments.check_against)
    if failures:
        print(f"{failures} gate failure(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
