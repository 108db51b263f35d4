"""Process-tree CPU and memory, CPU steal, and the run environment, read
from ``/proc`` so the benchmark needs no package the repository lacks."""

from __future__ import annotations

import ctypes
import os
import platform
import select
import sys
import time

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: BLAS thread variables recorded (never set) by the benchmark.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume after
    # the last ')'.  fields[0] is the state, fields[1] the parent pid.
    return data[data.rindex(")") + 2 :].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process, all threads included."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def is_spawned_worker(pid: int) -> bool:
    """True for a ``multiprocessing`` spawn child (not its resource
    tracker)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"spawn_main" in handle.read()
    except OSError:
        return False


def steal_seconds() -> float:
    """Cumulative CPU steal of the whole machine (all cores)."""
    with open("/proc/stat") as handle:
        values = handle.readline().split()[1:]
    return int(values[7]) / _CLOCK_TICKS


def wait_for_line(process, marker: str, timeout: float) -> tuple[str | None, bytes]:
    """Read the child's stdout until a line containing ``marker``; returns
    that line (``None`` on exit or timeout) and whatever followed it."""
    deadline = time.monotonic() + timeout
    buffer = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.2)
        if not ready:
            if process.poll() is not None:
                break
            continue
        chunk = os.read(process.stdout.fileno(), 65536)
        if not chunk:
            break
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            text = line.decode("utf-8", "replace")
            if marker in text:
                return text, buffer
    return None, buffer


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """OpenBLAS's live thread count, asked from the loaded library."""
    try:
        with open("/proc/self/maps") as handle:
            mapped = {line.split()[-1] for line in handle if line.strip()}
        paths = {p for p in mapped if "openblas" in p.lower() and ".so" in p}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    """What a reader needs to compare two runs: machine, versions, BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # noqa: BLE001 - best-effort provenance only
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
    }
