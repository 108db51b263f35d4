"""Optimizer hot-path benchmark (iterations/sec, time-to-tolerance, JSON).

Times Algorithm 2 end to end — objective evaluations, line-search probes,
corridor sweep, and projections — on both evaluation engines:

* ``fast``      — the factorization-cached workspace of
  :mod:`repro.optimization.kernels` (Cholesky solves, BLAS ``syrk`` core,
  bracketed-Newton projection, batched candidates).
* ``reference`` — the pre-workspace straight-line path (unconditional
  eigenvalue pseudo-inverse, dense residual-map feasibility check,
  sort-based projection), kept verbatim as the test oracle
  ``tests/optimization/reference.py::ReferenceEngine`` and patched in for
  ``pgd.FastEngine`` to run Algorithm 2 on it.

Both engines walk the same iterates, so iterations/sec is an
apples-to-apples rate and the final objectives must agree — the script
exits 1 if they drift beyond ``--objective-rtol``.  ``time to tolerance``
is the wall-clock until the best-so-far objective first comes within 0.1%
of the run's final best (computed from the tracked history at the measured
per-iteration rate).

The documented configuration for the committed baseline is n = 256,
m = 4n, 500 iterations (``--domains 256 --iterations 500``); CI runs a
smaller sweep against the committed floors.

Run::

    PYTHONPATH=src python benchmarks/bench_optimizer_hotpath.py \
        --domains 64,128,256 --iterations 500 --json results.json \
        --check-against benchmarks/baselines/optimizer_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

# The reference engine is a test oracle; make the repo root importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.linalg.blas import thread_counts  # noqa: E402
from repro.optimization import OptimizerConfig, optimize_strategy, pgd  # noqa: E402
from repro.workloads import histogram  # noqa: E402
from tests.optimization.reference import ReferenceEngine  # noqa: E402

#: Evaluators Algorithm 2 is timed on, by engine name.
ENGINES = {"fast": pgd.FastEngine, "reference": ReferenceEngine}

#: Relative window for the time-to-tolerance metric.
TOLERANCE_WINDOW = 1e-3


def time_engine(workload, epsilon, config, engine):
    """One full optimization on the given engine; returns timing + quality."""
    run_config = replace(config, track_history=True)
    with mock.patch.object(pgd, "FastEngine", ENGINES[engine]):
        start = time.perf_counter()
        result = optimize_strategy(workload, epsilon, run_config)
        seconds = time.perf_counter() - start
    iterations = max(result.iterations_run, 1)
    seconds_per_iteration = seconds / iterations
    history = np.minimum.accumulate(
        np.where(np.isfinite(result.history), result.history, np.inf)
    )
    target = history[-1] * (1.0 + TOLERANCE_WINDOW)
    first_within = int(np.argmax(history <= target)) + 1
    return {
        "seconds": round(seconds, 6),
        "iterations": iterations,
        "iters_per_sec": round(iterations / seconds, 3),
        "objective": result.objective,
        "time_to_tolerance_seconds": round(first_within * seconds_per_iteration, 6),
    }


def run_domain(domain, epsilon, iterations, seed, reference_iterations):
    workload = histogram(domain)
    config = OptimizerConfig(num_iterations=iterations, seed=seed)
    fast = time_engine(workload, epsilon, config, "fast")
    reference_config = replace(
        config, num_iterations=min(iterations, reference_iterations)
    )
    reference = time_engine(workload, epsilon, reference_config, "reference")
    speedup = fast["iters_per_sec"] / reference["iters_per_sec"]
    gap = abs(fast["objective"] - reference["objective"]) / max(
        abs(reference["objective"]), 1e-30
    )
    entry = {
        "domain": domain,
        "num_outputs": 4 * domain,
        "fast": fast,
        "reference": reference,
        "speedup": round(speedup, 3),
        "objective_rel_gap": gap,
    }
    print(
        f"n={domain:>4} m={4 * domain:>5}: "
        f"fast {fast['iters_per_sec']:>8.2f} it/s "
        f"({fast['seconds']:.2f}s/{fast['iterations']} it), "
        f"reference {reference['iters_per_sec']:>7.2f} it/s "
        f"({reference['seconds']:.2f}s/{reference['iterations']} it)  "
        f"speedup {speedup:5.2f}x  objective gap {gap:.2e}"
    )
    return entry


def check_against(results, baseline_path):
    """Regression gate: floors on fast iterations/sec and on the speedup."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    tolerance = float(baseline.get("tolerance", 0.30))
    regressions = 0
    by_domain = {str(entry["domain"]): entry for entry in results["entries"]}
    for domain, floors in baseline.get("entries", {}).items():
        entry = by_domain.get(domain)
        if entry is None:
            continue
        checks = (
            ("fast_iters_per_sec", entry["fast"]["iters_per_sec"]),
            ("speedup", entry["speedup"]),
        )
        for key, got in checks:
            if key not in floors:
                continue
            floor = float(floors[key]) * (1.0 - tolerance)
            verdict = "ok" if got >= floor else "REGRESSION"
            if got < floor:
                regressions += 1
            print(
                f"check: {verdict:>10}  n={domain} {key}: {got:,.2f} "
                f"(floor {floor:,.2f} = baseline - {tolerance:.0%})"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--domains",
        default="64,128,256",
        help="comma-separated n sweep (m = 4n each)",
    )
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument(
        "--reference-iterations",
        type=int,
        default=None,
        help="cap the reference run's iterations (it is the slow path; "
        "rates per iteration stay comparable).  Default: no cap.",
    )
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--objective-rtol",
        type=float,
        default=1e-4,
        help="max relative gap between the engines' final objectives",
    )
    parser.add_argument("--json", default=None, help="write results here")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON of iterations/sec and speedup floors; exit 1 "
        "on a regression beyond the baseline's tolerance (default 30%%)",
    )
    arguments = parser.parse_args(argv)

    domains = [int(part) for part in arguments.domains.split(",") if part]
    reference_iterations = (
        arguments.iterations
        if arguments.reference_iterations is None
        else arguments.reference_iterations
    )
    print(
        f"optimizer hot path: {arguments.iterations} iterations, "
        f"eps = {arguments.epsilon}, seed = {arguments.seed}, "
        f"cpu_count = {os.cpu_count()}, blas_threads = {thread_counts()}"
    )
    entries = [
        run_domain(
            domain,
            arguments.epsilon,
            arguments.iterations,
            arguments.seed,
            reference_iterations,
        )
        for domain in domains
    ]
    results = {
        "iterations": arguments.iterations,
        "reference_iterations": reference_iterations,
        "epsilon": arguments.epsilon,
        "seed": arguments.seed,
        "cpu_count": os.cpu_count(),
        "blas_threads": thread_counts(),
        "entries": entries,
    }

    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {arguments.json}")

    failures = 0
    if reference_iterations >= arguments.iterations:
        for entry in entries:
            if entry["objective_rel_gap"] > arguments.objective_rtol:
                print(
                    f"MISMATCH: n={entry['domain']} engines disagree: "
                    f"rel gap {entry['objective_rel_gap']:.3e} > "
                    f"{arguments.objective_rtol:.1e}"
                )
                failures += 1
    else:
        # A capped reference run stops before converging, so its final
        # objective legitimately differs from the fast run's; the
        # equivalence gate only makes sense on equal budgets.
        print(
            "note: --reference-iterations caps the reference budget; "
            "skipping the engine-equivalence gate"
        )
    if arguments.check_against:
        failures += check_against(results, arguments.check_against)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
