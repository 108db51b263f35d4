"""A cluster worker entry point that crashes on purpose.

A test arms it with ``monkeypatch.setattr(cluster, "_worker_main",
functools.partial(drop_reply_main, marker_dir, op, at))``: every worker
then exits after handling its ``at``-th ``op`` message but before replying,
which leaves the coordinator unable to know whether the op landed.  Each
worker dies this way once: the death claims an ``O_EXCL`` marker file
named after the worker process, so its respawns (which run this entry too)
live.  Spawned workers import this module by name, so the partial pickles.

The crash itself is the chaos drill's, from ``scripts/chaos_serve.py``,
which :data:`chaos_serve` holds.
"""

import importlib.util
import multiprocessing
import os
import sys
from pathlib import Path

from repro.service import cluster


def _load_chaos_serve():
    path = Path(__file__).resolve().parents[2] / "scripts" / "chaos_serve.py"
    spec = importlib.util.spec_from_file_location("chaos_serve", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


#: The drill's entry script, imported as a module (neither of its entry
#: branches runs).
chaos_serve = _load_chaos_serve()

_worker_main = cluster._worker_main


def drop_reply_main(marker_dir, op: str, at: int, connection) -> None:
    marker = os.path.join(marker_dir, multiprocessing.current_process().name)
    _worker_main(chaos_serve._DropReply(connection, marker, op, at))
