from __future__ import annotations

import pytest

import ftcdf.simulate as sim


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
    return {name: get() for name, get, _ in sim._blas_libraries()}


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fails a test that leaves any loaded OpenBLAS at another thread
    count than it found; a leak would change later tests' timings and,
    at large n, their bits."""
    before = _blas_threads()
    yield
    after = _blas_threads()
    changed = {name: (before[name], after[name])
               for name in before.keys() & after.keys()
               if before[name] != after[name]}
    assert not changed, f"BLAS thread count (before, after) {changed}"
