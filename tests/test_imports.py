"""Import budget: a fresh process loads neither ``scipy.stats`` nor
``scipy.optimize``.

A served answer needs only the reconstruction ``B·y``, Theorem 3.4's
variances and one normal quantile (:class:`statistics.NormalDist`); only
WNNLS runs L-BFGS-B, and it imports ``scipy.optimize`` itself.  Together the
two modules add ~0.3 s and ~39 MiB to every server, cluster worker and
optimizer process that imports them at start-up.  Each check runs in a new
interpreter, because this test process has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy.stats", "scipy.optimize")


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
    assert heavy_modules_after(statement) == ["scipy.optimize"]
