"""Run ``repro serve`` with benchmark spans around its public calls.

    PERFBENCH_TRACE_DIR=<dir> python3 perfbench/traced_serve.py serve [options]

Takes the same arguments as ``python -m repro``.  Each process writes
``<role>-<pid>.json`` into the trace directory when it exits.  Cluster
workers are spawned, and a spawned child re-runs this file as
``__mp_main__`` before its worker loop starts: that is the hook that puts
spans into the workers too.
"""

from __future__ import annotations

import atexit
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def _recorder(role: str) -> spans.SpanRecorder:
    recorder = spans.SpanRecorder()
    started = time.perf_counter()
    import repro  # noqa: F401

    recorder.meta["import_s"] = time.perf_counter() - started
    recorder.meta["role"] = role
    path = os.path.join(os.environ[spans.TRACE_ENV], f"{role}-{os.getpid()}.json")
    atexit.register(recorder.dump, path)
    return recorder


if __name__ == "__main__":
    spans.install_coordinator(_recorder("coordinator"))
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and spans.TRACE_ENV in os.environ:
    spans.install_worker(_recorder("worker"))
