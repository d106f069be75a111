"""OpenBLAS thread count of this process.

numpy bundles OpenBLAS, which runs every matrix product ftcdf makes on
as many threads as it was told to at load time.  On a small machine the
extra threads spin without saving wall time, and the thread count moves
the last bits of a sum.  scipy bundles a second build, which loads with
scipy.special and carries no ftcdf arithmetic.  _one_blas_thread runs a
body with every OpenBLAS mapped into the process at one thread and
gives the caller's counts back afterwards.  Nothing here runs at
import.
"""
from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

# (getter, setter) names of the thread count in the OpenBLAS builds
# numpy and scipy bundle (64-bit and 32-bit integer interfaces) and in a
# plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)  # the 6th is the path
                if (len(fields) == 6 and "openblas" in
                        os.path.basename(fields[5]).lower()):
                    paths.add(fields[5].rstrip("\n"))
    except OSError:
        return []
    return sorted(paths)


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
    """(basename, get, set) for each loaded OpenBLAS with a thread knob."""
    found = []
    for path in _loaded_openblas_paths():
        try:
            controls = _blas_controls(ctypes.CDLL(path))
        except OSError:
            continue
        if controls is not None:
            found.append((os.path.basename(path), *controls))
    return found


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Yields the dict diagnostics.blas prints: the libraries found, the
    caller's thread counts in the same order, and the count the body
    runs at, 1, or None when no library was found and BLAS is left as
    it was.  The caller's counts come back on every way out.  Libraries
    loaded inside the body are left as they load.
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
