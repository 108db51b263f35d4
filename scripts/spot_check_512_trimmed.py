"""Trimmed n=512 spot check (Prefix + AllRange): the paper's worst-case
sample-complexity comparison of Figures 1 and 2 at its own domain size.

Uses a reduced optimizer budget (120 iterations, no baseline floor), so the
Optimized numbers are an upper bound on what the full budget achieves.
"""

import time

from repro.experiments.reporting import format_table
from repro.experiments.runner import safe_sample_complexity
from repro.mechanisms import paper_baselines
from repro.optimization import OptimizedMechanism, OptimizerConfig
from repro.workloads import by_name

EPSILON = 1.0

if __name__ == "__main__":
    mechanisms = list(paper_baselines()) + [
        OptimizedMechanism(
            OptimizerConfig(num_iterations=120, seed=0), floor_baselines=False
        )
    ]
    rows = []
    for name in ("Prefix", "AllRange"):
        workload = by_name(name, 512)
        start = time.time()
        cells = [safe_sample_complexity(m, workload, EPSILON) for m in mechanisms]
        rows.append([name, *cells, min(cells[:-1]) / cells[-1]])
        print(f"[{name}: {time.time() - start:.0f}s]", flush=True)
    headers = ["workload"] + [m.name for m in mechanisms] + ["gain"]
    print(format_table(headers, rows))
