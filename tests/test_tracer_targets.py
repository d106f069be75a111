"""The per-layer tracer must find every function it is told to time.

perfbench/tracer.py reports a missing target only on stderr and then
counts zero for it, so a renamed function would silently zero a layer.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# stale entries the benchmark still lists; see ROADMAP item 5
KNOWN_MISSING = {("ftcdf.bandwidth", "cv_bandwidth_gaussian")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = set()
    for mod_name, attr in _load_tracer().TARGETS:
        holder = importlib.import_module(mod_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.add((mod_name, attr))
    assert missing <= KNOWN_MISSING
