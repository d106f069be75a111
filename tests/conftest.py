from __future__ import annotations

import pytest

import ftcdf.blas as blas


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
