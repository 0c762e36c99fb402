"""numpy's own OpenBLAS: LAPACK's LU factor and solve for the Crank-Nicolson march, and its threads.

numpy links one OpenBLAS copy, ``libscipy_openblas64_`` (64-bit integers, symbols ``scipy_*64_``),
into its ``_multiarray_umath`` extension, whose handle resolves them.  :func:`one_blas_thread` holds
it at one thread for small CLI commands, sweep workers and threaded marches.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable

import numpy as np
import numpy._core._multiarray_umath

__all__ = ["getrf", "getrs", "blas_threads", "one_blas_thread"]

_SYMBOLS = ("scipy_dgetrf_64_", "scipy_dgetrs_64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
_lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
try:
    _dgetrf, _dgetrs, _get_threads, _set_threads = [getattr(_lib, name) for name in _SYMBOLS]
except AttributeError:  # a numpy built against another BLAS
    raise ImportError("complim needs a numpy whose bundled OpenBLAS exports " + ", ".join(_SYMBOLS)) from None
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
_dgetrf.argtypes, _dgetrf.restype = [_INT, _INT, _DOUBLE, _INT, _INT, _INT], None
_dgetrs.argtypes, _dgetrs.restype = [ctypes.c_char_p, _INT, _INT, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT], None
_get_threads.argtypes, _get_threads.restype = [], ctypes.c_int
_set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None


def _pointer(array: np.ndarray, ctype):
    """``array.ctypes.data_as(ctype)``, which keeps array alive, without its cast of a c_void_p: that
    cast's reference cycle (CPython bpo-12836) is garbage that only the cyclic collector frees."""
    ptr = ctypes.cast(array.ctypes.data, ctype)
    ptr._arr = array
    return ptr


def _square(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.f_contiguous and a.shape == (len(a), len(a))


def getrf(a: np.ndarray) -> tuple[np.ndarray, int]:
    """LU-factor the square, Fortran-ordered float64 ``a`` in place: (1-based pivots, info) of dgetrf."""
    if not _square(a):
        raise ValueError("getrf factors a square, Fortran-ordered float64 array")
    n_ref, info, piv = ctypes.byref(ctypes.c_int64(len(a))), ctypes.c_int64(), np.empty(len(a), np.int64)
    _dgetrf(n_ref, n_ref, _pointer(a, _DOUBLE), n_ref, _pointer(piv, _INT), ctypes.byref(info))
    return piv, info.value


def getrs(lu: np.ndarray, piv: np.ndarray, rows: np.ndarray) -> Callable[[int], int]:
    """``solve(k)``: solves lu x = rows[k] in place with :func:`getrf`'s factor and returns dgetrs's
    info.  Every argument but the row's address is bound here, once; ``rows`` is a float64 array
    of len(lu) contiguous columns, which the solver keeps alive."""
    if not (_square(lu) and piv.dtype == np.int64 and piv.shape == (len(lu),) and piv.flags.c_contiguous):
        raise ValueError("getrs solves with the factor and pivots of getrf")
    if rows.dtype != np.float64 or rows.shape[1:] != (len(lu),) or rows.strides[1] != rows.itemsize:
        raise ValueError("getrs solves in float64 rows of len(lu) contiguous values")
    n, one, info = ctypes.c_int64(len(lu)), ctypes.c_int64(1), ctypes.c_int64()
    n_ref, info_ref = ctypes.byref(n), ctypes.byref(info)
    head = functools.partial(
        _dgetrs, b"N", n_ref, ctypes.byref(one), _pointer(lu, _DOUBLE), n_ref, _pointer(piv, _INT)
    )
    addresses = [_pointer(row, _DOUBLE) for row in rows]  # each keeps its row alive

    def solve(k: int) -> int:
        head(addresses[k], n_ref, info_ref)
        return info.value

    return solve


def blas_threads() -> int:
    """The thread count of numpy's OpenBLAS."""
    return _get_threads()


@contextlib.contextmanager
def one_blas_thread(pin: bool = True):
    """Run the block with numpy's OpenBLAS on one thread when ``pin`` is true, then restore its
    thread count, whether the block returns or raises.  Never raises a count."""
    threads = _get_threads() if pin else 1
    if threads > 1:
        _set_threads(1)
    try:
        yield
    finally:
        if threads > 1:
            _set_threads(threads)
