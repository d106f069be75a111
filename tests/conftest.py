from __future__ import annotations

import pytest


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
