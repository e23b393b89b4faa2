"""One BLAS thread in every loaded OpenBLAS while a solve runs.

The numpy and scipy wheels each bundle their own OpenBLAS, and each keeps a
thread pool of its own.  A solve makes many small BLAS calls into both, and
on a machine with few cores the two spinning pools contend: on two cores,
one thread per pool made every benchmark workload faster than the default
two (README, "Threads").  :func:`single_thread` holds every pool at one
thread and puts the previous counts back when the last solve leaves it.  The
count is process-wide, so other BLAS work in the process runs
single-threaded too while a solve is running.  Where no OpenBLAS with a
thread-count entry point is loaded (MKL, Accelerate, or another platform),
the guard does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

# process-wide, like the thread counts they guard: the number of open
# single_thread blocks, and the (set, count) pairs to restore when it is 0
_lock = threading.Lock()
_depth = 0
_saved = []


def _thread_controls(path):
    """``(get, set)`` thread-count functions of one library, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def libraries():
    """Thread-count controls of every OpenBLAS loaded when first called."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split(None, 5)[-1].strip()
                            for ln in fh if "openblas" in ln})
    except OSError:
        return ()
    return tuple(c for c in map(_thread_controls, paths) if c is not None)


@contextlib.contextmanager
def single_thread():
    """Hold every OpenBLAS pool at one thread inside the block.

    Reference-counted: the first block to enter saves each library's count
    and sets it to one, and the last to leave restores the saved counts, also
    when an exception propagates.  Overlapping blocks on other threads never
    see the count change.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in libraries()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
