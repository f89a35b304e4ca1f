"""One BLAS thread for the 256-dimensional kernels.

The numpy and scipy wheels each bundle their own OpenBLAS, and each
defaults to one thread per CPU.  The steady-state and expansion kernels
alternate 256 x 256 calls between the two libraries (scipy's dense
solves, numpy's SVD and matrix products), so the two thread pools contend
for the same cores and these kernels run many times slower than on one
thread.

single_blas_thread() sets every bundled OpenBLAS that exposes the
scipy_openblas thread API to one thread and restores each library's own
count on exit.  Where no such API is found (MKL, a system OpenBLAS,
another build) it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy
import scipy


@functools.cache
def _thread_apis() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS."""
    found = []
    for package in (numpy, scipy):
        pattern = os.path.join(
            os.path.dirname(package.__file__), "..", package.__name__ + ".libs", "*openblas*"
        )
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


def thread_counts() -> list[int]:
    """Current thread count of each bundled OpenBLAS, in lookup order."""
    return [get() for get, _ in _thread_apis()]


def _set_thread_counts(counts: list[int]) -> None:
    for (_, put), count in zip(_thread_apis(), counts):
        put(count)


# The thread counts are process-wide, so nested and concurrent users share
# one pin: the outermost entry saves and pins, the last exit restores.
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


@contextmanager
def single_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread.

    Also usable as a function decorator.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = thread_counts()
            _set_thread_counts([1] * len(_saved))
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                _set_thread_counts(_saved)
