"""One OpenBLAS thread for the library's many small BLAS calls.

numpy and scipy each bundle their own OpenBLAS, and each defaults to one
thread per core.  Algorithm 2's iterations and a served answer (``B·y``,
``W·x̂``, ``M·x̂₊``) are thousands of small BLAS calls, and on two threads
the second one spins after every call: on a 2-vCPU box a served query's
``M·x̂₊`` matvec (3-Way Marginals, n = 1024) took 7.8 ms at p50 on two
threads and 0.76 ms on one.
:func:`single_threaded` sets both libraries to one thread for its scope
and restores the caller's counts on exit.  It also works as a decorator.

>>> with single_threaded():
...     inside = thread_counts()
>>> all(count == 1 for count in inside.values())
True

OpenBLAS keeps one thread count per library for the whole process
(``openblas_set_num_threads_local`` is process-wide too in a pthreads
build), so overlapping scopes share it: a depth count under a lock lets
the first entrant save the counts and set 1, and the last one out restore
them.  A BLAS call that another thread makes while a scope is open
therefore runs single-threaded as well, including one-off builds such as a
reconstruction operator's ``eigh``, which otherwise keep the process
default.

The libraries are looked up once, in the ``numpy.libs`` and ``scipy.libs``
directories the wheels install beside the packages.  Without them, or
without their thread-count symbols, the scope does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

#: ``(setter, getter)`` names tried in every library: numpy bundles the
#: 64-bit-integer build, scipy the 32-bit one.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


@functools.cache
def _libraries() -> tuple[tuple[str, object, object], ...]:
    """``(package, set_num_threads, get_num_threads)`` of every bundled
    OpenBLAS found."""
    import numpy

    # A bare ``import scipy`` loads no submodule, yet it locates
    # ``scipy.libs``: the OpenBLAS opened below is the one ``scipy.linalg``
    # links when the optimizer first imports it, so a scope entered before
    # that import already covers it.
    import scipy

    found = []
    for package in (numpy, scipy):
        directory = os.path.dirname(package.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(directory, "*openblas*.so*"))):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for setter, getter in _SYMBOLS:
                set_threads = getattr(library, setter, None)
                get_threads = getattr(library, getter, None)
                if set_threads is not None and get_threads is not None:
                    set_threads.argtypes = [ctypes.c_int]
                    set_threads.restype = None
                    get_threads.argtypes = []
                    get_threads.restype = ctypes.c_int
                    found.append((package.__name__, set_threads, get_threads))
                    break
    return tuple(found)


def thread_counts() -> dict[str, int]:
    """Live OpenBLAS thread count per package (``{}`` when none is found)."""
    return {name: int(get_threads()) for name, _, get_threads in _libraries()}


@contextlib.contextmanager
def single_threaded():
    """Run the enclosed BLAS calls of numpy and scipy on one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            libraries = _libraries()
            _saved = tuple(get_threads() for _, _, get_threads in libraries)
            for _, set_threads, _ in libraries:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_threads, _), count in zip(_libraries(), _saved):
                    set_threads(count)
