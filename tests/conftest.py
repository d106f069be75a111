from __future__ import annotations

import os
from pathlib import Path

import pytest

import ftcdf.blas as blas

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(not blas._blas_libraries(),
                                    reason="no OpenBLAS loaded")


def blas_threads() -> list:
    """numpy's OpenBLAS thread counts, in library order."""
    return [get() for _, get, _ in blas._blas_libraries()]


def src_env(**extra) -> dict:
    """os.environ with PYTHONPATH at this checkout's src, plus extra."""
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def start_env(threads=None) -> dict:
    """src_env() with OPENBLAS_NUM_THREADS unset, or set to threads."""
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.fixture()
def spy(monkeypatch):
    """spy(module, name) wraps module.name for the test and returns the
    list of argument tuples of the calls made through that name."""
    def install(module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls
    return install


def _blas_threads() -> dict:
    return {name: get() for name, get, _ in blas._blas_libraries()}


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fails a test that leaves numpy's OpenBLAS at another thread
    count than it found; a leak would change later tests' timings and,
    at large n, their bits."""
    before = _blas_threads()
    yield
    after = _blas_threads()
    changed = {name: (before[name], after[name])
               for name in before.keys() & after.keys()
               if before[name] != after[name]}
    assert not changed, f"BLAS thread count (before, after) {changed}"


@pytest.fixture()
def blas_threads_at():
    """blas_threads_at(k) puts numpy's OpenBLAS at k threads for the
    rest of the test and returns the counts set, in library order; the
    counts the test started with come back at teardown."""
    libs = blas._blas_libraries()
    saved = [get() for _, get, _ in libs]

    def set_all(threads):
        for _, _, set_ in libs:
            set_(threads)
        return [threads] * len(libs)

    yield set_all
    for (_, _, set_), old in zip(libs, saved):
        set_(old)


@pytest.fixture()
def caller_threads(blas_threads_at):
    """Runs the test with numpy's OpenBLAS at 3 threads, a count
    that is neither 1 nor this machine's default."""
    return blas_threads_at(3)
