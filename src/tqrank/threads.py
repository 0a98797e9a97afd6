"""Thread policy of a solve: OpenBLAS at one thread, slice SVDs across cores.

numpy's batched SVD releases the GIL, so the live slices of a prox can run
on Python threads, which pays only while BLAS itself runs one thread per
call.  The OpenBLAS count is process-wide: concurrent solves share one
scope, and the last solve out restores the count the first one found.
Without a bundled OpenBLAS the count is left alone and solves run
serially.  Each slice gets the same LAPACK and BLAS calls however the
stack is split, so every policy gives bit-identical results.
"""

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# thread-count symbols of the OpenBLAS builds numpy wheels bundle, newest first
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "openblas_{}_num_threads")

_lock = threading.Lock()
_blas = None      # (get, set) once looked up, () when there is no bundled OpenBLAS
_solves = 0       # solves inside the scope
_saved = None     # the thread count the first solve in found


def _find_blas():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for pattern in _SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


def blas_control():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up on the first solve, so importing tqrank loads nothing.
    """
    global _blas
    if _blas is None:
        _blas = _find_blas()
    return _blas or None


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class SlicePool:
    """Runs a function over an index array in one contiguous chunk per core.

    The calling thread takes the first chunk and pool threads the rest;
    ``run`` returns once every chunk is done and re-raises the first error.
    """

    def __init__(self, cores):
        # imported on the first solve, so that importing tqrank does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        self.cores = cores
        self._executor = ThreadPoolExecutor(cores - 1, thread_name_prefix="tqrank-slices")

    def run(self, fn, items):
        chunks = np.array_split(items, min(self.cores, len(items)) or 1)
        futures = [self._executor.submit(fn, chunk) for chunk in chunks[1:]]
        try:
            fn(chunks[0])
        finally:
            errors = [f.exception() for f in futures]
        for error in errors:
            if error is not None:
                raise error

    def close(self):
        self._executor.shutdown()


@contextmanager
def solve_scope():
    """Run one solve with OpenBLAS at one thread; yields a SlicePool or None.

    None means run serially: BLAS is not a bundled OpenBLAS, or there is
    one core.  The pool lives for one solve, so a process forked after a
    solve never inherits its threads.
    """
    global _solves, _saved
    blas = blas_control()
    if blas is None:
        yield None
        return
    get, put = blas
    with _lock:
        if _solves == 0:
            _saved = get()
            put(1)
        _solves += 1
    pool = None
    try:
        cores = _cores()
        pool = SlicePool(cores) if cores > 1 else None
        yield pool
    finally:
        if pool is not None:
            pool.close()
        with _lock:
            _solves -= 1
            if _solves == 0:
                put(_saved)
