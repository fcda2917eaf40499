"""The thread count of numpy's bundled OpenBLAS, pinned to one inside a block.

OpenBLAS takes one thread per core unless told otherwise, and its matrix
products can round differently at another thread count, so `train` and
`generate` would give other bytes on another machine. They run inside
`one_thread()`: numpy's wheels bundle OpenBLAS as a shared library that
exports `scipy_openblas_set_num_threads64_`, which sets the count for the
whole process. Where numpy's OpenBLAS does not export it (a numpy built
against another BLAS), `one_thread()` does nothing and the count stays
whatever the environment made it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np


@cache
def _thread_count_functions():
    """(get, set) of the bundled OpenBLAS's thread count, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        library = ctypes.CDLL(path)
        try:
            get = library.scipy_openblas_get_num_threads64_
            put = library.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put
    return None


_lock = threading.Lock()
_inside = 0  # blocks running inside one_thread(), over all threads
_saved = None  # the count before the first of them began


@contextmanager
def one_thread():
    """Runs the block with OpenBLAS on one thread, then restores the caller's count.

    The count is global to the process, so only the outermost block sets
    and restores it; nested blocks, and blocks that overlap on other
    threads, leave it alone.
    """
    global _inside, _saved
    functions = _thread_count_functions()
    if functions is None:
        yield
        return
    get, put = functions
    with _lock:
        if _inside == 0:
            _saved = get()
            put(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if _inside == 0:
                put(_saved)
