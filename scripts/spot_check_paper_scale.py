"""Paper-scale spot check: does Optimized still beat every baseline at the
paper's domain size?

Runs the Figure 1/2 comparison at the paper's domain size (n = 512,
eps = 1.0) for a subset of workloads, and a mid-scale (n = 128) run of all
six.  Results are appended to stdout in the experiment-table format; the
full grids at n = 512 are left to ``REPRO_SCALE=paper`` runs with more
compute.

Runtime warning: the n = 512 sweep with the full optimizer budget takes
tens of minutes *per workload* on one core; see
``spot_check_512_trimmed.py`` for a reduced-budget variant.

Run:  python scripts/spot_check_paper_scale.py
"""

import time

from repro.experiments.reporting import format_table
from repro.experiments.runner import mechanism_roster, safe_sample_complexity
from repro.workloads import by_name

EPSILON = 1.0


def sweep(domain_size: int, workload_names: list[str], iterations: int) -> None:
    print(f"\n=== n = {domain_size}, eps = {EPSILON} ===")
    mechanisms = mechanism_roster(optimizer_iterations=iterations)
    rows = []
    for name in workload_names:
        workload = by_name(name, domain_size)
        start = time.time()
        cells = [
            safe_sample_complexity(mechanism, workload, EPSILON)
            for mechanism in mechanisms
        ]
        best_baseline = min(cells[:-1])
        rows.append(
            [name, *cells, best_baseline / cells[-1], time.time() - start]
        )
        print(f"  [{name}: {time.time() - start:.0f}s]", flush=True)
    headers = (
        ["workload"]
        + [mechanism.name for mechanism in mechanisms]
        + ["gain", "seconds"]
    )
    print(format_table(headers, rows))


if __name__ == "__main__":
    sweep(
        128,
        [
            "Histogram",
            "Prefix",
            "AllRange",
            "AllMarginals",
            "3-Way Marginals",
            "Parity",
        ],
        iterations=800,
    )
    sweep(512, ["Histogram", "Prefix", "AllRange"], iterations=500)
