"""OpenBLAS thread count of this process.

numpy bundles OpenBLAS, which runs every matrix product ftcdf makes on
as many threads as it was told to at load time.  On a small machine the
extra threads spin without saving wall time, and the thread count moves
the last bits of a sum.  _one_blas_thread runs a body with numpy's
OpenBLAS at one thread and gives the caller's count back afterwards.
Any other OpenBLAS in the process, such as the build scipy.special
loads, carries no ftcdf arithmetic and is left as it loads.  Nothing
here runs at import.
"""
from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

# (getter, setter) names of the thread count in the OpenBLAS builds
# numpy bundles (64-bit and 32-bit integer interfaces) and in a plain
# OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _DlInfo(ctypes.Structure):
    """The Dl_info that dladdr fills: the defining file comes first."""
    _fields_ = (("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p))


def _blas_controls(lib):
    """(get, set) thread-count functions of a loaded library, or None."""
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            get.argtypes = ()
            set_.restype = None
            set_.argtypes = (ctypes.c_int,)
            return get, set_
    return None


def _blas_libraries() -> list:
    """[(basename, get, set)] of numpy's OpenBLAS, or [] when numpy's
    extension resolves no thread knob or its library cannot be named.

    The symbols resolve through numpy's own extension, so no other
    OpenBLAS in the process can answer, and without /proc; the name is
    that of the file that defines the getter.
    """
    from numpy._core import _multiarray_umath
    info = _DlInfo()
    try:
        controls = _blas_controls(ctypes.CDLL(_multiarray_umath.__file__))
        if controls is None or not ctypes.CDLL(None).dladdr(
                ctypes.cast(controls[0], ctypes.c_void_p), ctypes.byref(info)):
            return []
    except (OSError, AttributeError):  # no dlopen, or no dladdr
        return []
    return [(os.path.basename(os.fsdecode(info.fname)), *controls)]


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread.

    Yields the dict diagnostics.blas prints: the library found, the
    caller's thread count, each as a list, and the count the body runs
    at, 1, or None when no library was found and BLAS is left as it
    was.  The caller's count comes back on every way out.
    """
    libs = _blas_libraries()
    saved = tuple(get() for _, get, _ in libs)
    for _, _, set_ in libs:
        set_(1)
    try:
        yield {"libraries": [name for name, _, _ in libs],
               "caller_threads": list(saved),
               "threads": 1 if libs else None}
    finally:
        for (_, _, set_), threads in zip(libs, saved):
            set_(threads)
