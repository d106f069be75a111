"""The per-layer tracer must find every function it is told to time,
and run the CLI through every counter it installs.

perfbench/tracer.py reports a missing target only on stderr and then
counts zero for it, so a renamed function would silently zero a layer.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src"

# stale entries the benchmark still lists; see ROADMAP item 1
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


# the counter keys each traced run must report, by span name
_SURVIVAL_COUNTS = {
    "ftcdf.bandwidth.ecf": {"terms", "freqs"},
    "ftcdf.bandwidth.select_bandwidth": {"useful", "freqs"},
    "ftcdf.estimators.smoothed_measure_on_grid": {"terms"},
    "ftcdf.survival.kaplan_meier": {"jumps"},
    "ftcdf.kernels.build_table": {"builds"},
}
_STUDY_COUNTS = {
    "ftcdf.bandwidth.ecf": {"terms", "freqs"},
    "ftcdf.bandwidth.select_bandwidth": {"useful", "freqs"},
    "ftcdf.bandwidth.cv_bandwidth_km": {"evals"},
    "ftcdf.estimators.smoothed_measure_on_grid": {"terms"},
    "ftcdf.simulate._replicate": {"attempts"},
    "ftcdf.kernels.build_table": {"builds"},
}


def _censored_csv(path: Path) -> str:
    rng = np.random.default_rng(11)
    life = 1.5 * rng.weibull(3.0, 300)
    cens = 3.0 * rng.weibull(4.0, 300)
    rows = zip(np.minimum(life, cens).tolist(), (life <= cens).tolist())
    path.write_text("time,event\n"
                    + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
    return str(path)


@pytest.mark.parametrize("argv, counts", [
    (["survival", "--input", "CSV", "--kernel", "smooth", "--boundary", "0",
      "--standardize"], _SURVIVAL_COUNTS),
    (["simulate", "--scenario", "normal-iid", "--n", "15", "--reps", "4",
      "--workers", "2"], _STUDY_COUNTS),
], ids=["survival", "simulate"])
def test_traced_run_counts_every_layer(tmp_path, argv, counts):
    # the counters read the arguments and results of the functions they
    # wrap, so a changed signature crashes a traced run
    spans = tmp_path / "spans"
    spans.mkdir()
    argv = [_censored_csv(tmp_path / "in.csv") if a == "CSV" else a
            for a in argv]
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    missing = set(re.findall(r"^tracer: (\S+) not found", done.stderr,
                             re.MULTILINE))
    assert missing <= {f"{m}.{a}" for m, a in KNOWN_MISSING}
    records = [json.loads(line) for f in spans.iterdir()
               for line in f.read_text().splitlines()]
    for name, keys in counts.items():
        assert any(r["name"] == name and keys <= r["counts"].keys()
                   for r in records), name
