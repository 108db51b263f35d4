"""Tests for the single-threaded OpenBLAS scope."""

import sys
import threading

import pytest

from repro.linalg import blas
from repro.linalg.blas import single_threaded, thread_counts


def counts_of(count: int) -> dict[str, int]:
    return {name: count for name, _, _ in blas._libraries()}


class TestSingleThreaded:
    def test_sets_one_thread_and_restores_the_callers_counts(self, set_blas_threads):
        set_blas_threads(2)
        with single_threaded():
            assert thread_counts() == counts_of(1)
        assert thread_counts() == counts_of(2)

    def test_restores_after_an_exception(self, set_blas_threads):
        set_blas_threads(2)
        with pytest.raises(RuntimeError, match="inside"):
            with single_threaded():
                raise RuntimeError("inside")
        assert thread_counts() == counts_of(2)

    def test_nested_scopes_restore_only_at_the_outermost_exit(self, set_blas_threads):
        set_blas_threads(2)
        with single_threaded():
            with single_threaded():
                assert thread_counts() == counts_of(1)
            assert thread_counts() == counts_of(1)
        assert thread_counts() == counts_of(2)

    def test_overlapping_scopes_on_two_threads(self, set_blas_threads):
        # The first thread leaves while the second is still inside: the
        # second keeps one thread, and the last one out restores 2.
        set_blas_threads(2)
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with single_threaded():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with single_threaded():
                second_in.set()
                first_out.wait(10)
                seen["after the first left"] = thread_counts()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen["after the first left"] == counts_of(1)
        assert thread_counts() == counts_of(2)

    def test_is_a_no_op_without_libraries(self, set_blas_threads, monkeypatch):
        set_blas_threads(2)
        libraries = blas._libraries()

        def live_counts():
            return [get_threads() for _, _, get_threads in libraries]

        monkeypatch.setattr(blas, "_libraries", lambda: ())
        with single_threaded():
            assert thread_counts() == {}
            assert live_counts() == [2] * len(libraries)
        assert live_counts() == [2] * len(libraries)

    def test_many_threads_entering_and_leaving(self, set_blas_threads):
        # A lost update of the depth count would restore 2 threads under a
        # scope that is still open, or never restore them at all.
        set_blas_threads(2)
        inside = []

        def churn():
            for _ in range(1000):
                with single_threaded():
                    inside.append(thread_counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 8 * 1000
        assert all(counts == counts_of(1) for counts in inside)
        assert thread_counts() == counts_of(2)
