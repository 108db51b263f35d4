"""Import budget: a serving process loads no heavy scipy subpackage.

A served answer needs only the reconstruction ``B·y`` (numpy ``eigh``),
Theorem 3.4's variances and one normal quantile
(:class:`statistics.NormalDist`), and the K-Way Marginals Gram takes its
binomials from :func:`math.comb`.  Only Algorithm 2 factors with Cholesky,
``syrk`` and triangular solves, and it imports ``scipy.linalg`` inside the
functions that do; only WNNLS runs L-BFGS-B, and it imports
``scipy.optimize`` itself.  Every server, cluster worker and edge pays for
what it imports at start-up: with ``scipy.linalg`` and ``scipy.special``
gone, a fresh ``import repro.service.cluster`` fell from 697 modules,
68.4 MiB peak RSS and 0.96 s to 385 modules, 42.4 MiB and 0.51 s (medians
of 9 interpreters on a 2-vCPU VM), after ``scipy.stats`` and
``scipy.optimize`` had already gone.  Each check runs in a new
interpreter, because this test process has long since loaded all four.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special")


def heavy_modules_after(statement: str) -> list[str]:
    """The :data:`HEAVY` modules a new interpreter holds after ``statement``."""
    report = f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{statement}\n{report}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


# ``repro.service.cluster`` is what a spawned worker imports to unpickle its
# entry point; ``repro.cli`` is what ``repro serve`` and ``repro edge`` run.
@pytest.mark.parametrize("module", ["repro", "repro.service.cluster", "repro.cli"])
def test_import_leaves_heavy_scipy_modules_unloaded(module):
    assert heavy_modules_after(f"import {module}") == []


def test_served_lifecycle_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """Create, ingest on both transports, answer and checkpoint with the WAL
    on: a Hadamard campaign on 3-Way Marginals (n = 32) beside
    Histogram-64, one JSON and one binary batch."""
    statement = "\n".join(
        [
            "from pathlib import Path",
            "from repro.service import CollectionService, ServiceClient",
            "from repro.service import ServiceThread",
            f"root = Path({str(tmp_path)!r})",
            "service = CollectionService(",
            "    checkpoint_dir=root / 'ckpt',",
            "    checkpoint_interval=3600.0,",
            "    wal_dir=root / 'wal',",
            ")",
            "with ServiceThread(service) as (host, port):",
            "    client = ServiceClient(host, port)",
            "    binary = ServiceClient(host, port, transport='binary')",
            "    for name, workload, n in [",
            "        ('marginals', '3-Way Marginals', 32),",
            "        ('histogram', 'Histogram', 64),",
            "    ]:",
            "        client.create_campaign(",
            "            name, workload=workload, domain_size=n, epsilon=1.0,",
            "            mechanism='Hadamard',",
            "        )",
            "    assert client.send_reports('marginals', [0, 1, 2, 5])['accepted']",
            "    assert binary.send_reports('histogram', [0, 3, 7])['accepted']",
            "    answer = client.query('marginals', sync=True)",
            "    assert answer['num_reports'] == 4, answer",
            "    assert client.checkpoint()",
            "    binary.close()",
            "    client.close()",
        ]
    )
    assert heavy_modules_after(statement) == []


def test_wnnls_loads_its_solver_on_call():
    statement = "\n".join(
        [
            "import numpy as np",
            "from repro.postprocess import wnnls_from_data_estimate",
            "from repro.workloads import prefix",
            "assert 'scipy.optimize' not in sys.modules",
            "b = np.array([3.0, -1.0, 2.0, 0.5])",
            "x = wnnls_from_data_estimate(prefix(4), b)",
            "assert x.shape == (4,) and (x >= 0).all(), x",
        ]
    )
    # scipy.optimize brings scipy.linalg and scipy.special with it.
    assert heavy_modules_after(statement) == [
        "scipy.optimize",
        "scipy.linalg",
        "scipy.special",
    ]


def test_optimizer_loads_scipy_linalg_on_call():
    """The positive control: Algorithm 2's factorizations do import it."""
    statement = "\n".join(
        [
            "from repro.optimization import OptimizerConfig, optimize_strategy",
            "from repro.workloads import prefix",
            "assert 'scipy.linalg' not in sys.modules",
            "config = OptimizerConfig(num_iterations=5, seed=0)",
            "result = optimize_strategy(prefix(8), 1.0, config)",
            "assert result.objective > 0, result.objective",
        ]
    )
    assert heavy_modules_after(statement) == ["scipy.linalg"]
