"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

1. Runs every workload with ``--quick``, untraced and traced, and checks
   that each run is correct with no failed operation, and that it prints
   exactly the metrics of ``BENCHMARK.json`` with their units, each a
   finite number: every end-to-end metric untraced (none of them 0), every
   per-layer metric traced.
2. Hands the output checks corrupted outputs and checks that each is
   caught: an estimate one ulp off, a count one report off, a strategy
   that breaks epsilon-LDP, an objective off by 1e-6, and a store hit
   whose strategy bytes differ.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

def check_metric_names(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", "3", "--seconds", "2", "--trace", str(trace), "--quick",
            ]
            completed = subprocess.run(
                command, cwd=root, capture_output=True, text=True, timeout=300
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                raise AssertionError(f"{name} trace={trace} failed:\n{completed.stderr[-2000:]}")
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            printed = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            assert printed == units[trace], (name, trace, set(printed.items()) ^ set(units[trace].items()))
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric, value)
                assert trace or value > 0, (name, metric, "an end-to-end metric read 0")
            print(f"ok  {name} trace={trace}: {len(printed)} metrics named and unit-checked")


def check_fault_detection() -> None:
    import numpy as np

    import build
    import service
    from repro.mechanisms import randomized_response
    from repro.optimization.objective import objective_value
    from repro.service.campaigns import CampaignManager
    from repro.workloads import histogram

    manager = CampaignManager()
    campaign = manager.create(
        "selftest", workload="Histogram", domain_size=8, epsilon=1.0, mechanism="Hadamard"
    )
    rng = np.random.default_rng(0)
    reports = campaign.session.strategy.sample_responses(rng.integers(0, 8, 500), rng)
    campaign.accumulator.add_reports(reports)
    expected = manager.query("selftest").to_json()
    answer = json.loads(json.dumps(expected))  # what crosses the wire
    assert service.check_estimates(answer, expected)
    assert service.check_count(answer, len(reports))

    corrupted = json.loads(json.dumps(expected))
    corrupted["estimates"][3] = float(np.nextafter(corrupted["estimates"][3], np.inf))
    assert not service.check_estimates(corrupted, expected), "corrupted estimate missed"
    assert not service.check_count(answer, len(reports) + 1), "wrong count missed"
    print("ok  a corrupted estimate and a wrong count are caught")

    strategy = randomized_response(4, 1.0).probabilities
    assert build.check_strategy(strategy, 1.0)
    broken = strategy.copy()
    broken[:, 0] = [1.0, 0.0, 0.0, 0.0]  # column 0 now reveals its input
    assert not build.check_strategy(broken, 1.0), "invalid strategy missed"
    gram = histogram(4).gram()
    value = objective_value(strategy, gram)
    assert build.check_objective(strategy, gram, value)
    assert not build.check_objective(strategy, gram, value * (1 + 1e-6)), "objective missed"
    assert not build.check_hit(strategy.tobytes(), broken.tobytes()), "changed hit missed"
    print("ok  an invalid strategy, a wrong objective and a changed hit are caught")


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(HERE), str(root / "src")]
    check_fault_detection()
    check_metric_names(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
