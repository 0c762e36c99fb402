"""The thread counts of the OpenBLAS copies loaded in the process.

numpy and scipy each load their own OpenBLAS copy (numpy's ILP64
``scipy_openblas_*64_``, scipy's ``scipy_openblas_*``), and each keeps its
own worker threads.  :func:`one_blas_thread` sets every copy to one thread
for the length of a block: small CLI commands, sweep workers and threaded marches.
"""

from __future__ import annotations

import contextlib
import ctypes

__all__ = ["openblas_thread_controls", "blas_threads", "one_blas_thread"]


def openblas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS copy already loaded in the process."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already mapped, so this binds the loaded copy
        except OSError:
            continue
        # numpy's copy is scipy_openblas_*64_, scipy's scipy_openblas_*, others openblas_*
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


def blas_threads() -> int:
    """The largest thread count of the OpenBLAS copies loaded in the process; 1 if none is found."""
    return max((get() for get, _ in openblas_thread_controls()), default=1)


@contextlib.contextmanager
def one_blas_thread(pin: bool = True):
    """Run the block with every loaded OpenBLAS copy on one thread when ``pin`` is true.

    Restores every copy's previous thread count on the way out, whether the
    block returns or raises.  Never raises a count, and does nothing when
    ``pin`` is false or no OpenBLAS copy is found.
    """
    controls = openblas_thread_controls() if pin else []
    saved = [(put, threads) for get, put in controls if (threads := get()) > 1]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, threads in saved:
            put(threads)
