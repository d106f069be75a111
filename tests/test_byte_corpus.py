"""The byte corpus against its manifest: every command of
tools/byte_corpus.py, run in this process, keeps its exit code and the
bytes of its stdout (less diagnostics.blas), stderr and artifacts.

A change that moves a byte on purpose rewrites the manifest in the same
commit (python3 tools/byte_corpus.py --manifest OUT_DIR).  The manifest
holds the environment it was recorded under; another numpy, scipy,
OpenBLAS core or numpy SIMD target can move last bits, so there the
test fails and names both environments instead of comparing.
"""
from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ftcdf.cli as cli
import ftcdf.kernels as kernels

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_corpus.py"


def _corpus_tool():
    spec = importlib.util.spec_from_file_location("byte_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_matches_manifest(tmp_path, monkeypatch):
    corpus = _corpus_tool()
    recorded = json.loads(corpus.MANIFEST.read_text())
    stamp = corpus.environment_stamp()
    assert stamp == recorded["stamp"], (
        f"the manifest was recorded under {recorded['stamp']}, and this "
        f"run is under {stamp}: compare a fresh-process run "
        f"(tools/byte_corpus.py) with one under the recorded environment")
    # the tables a command uses are built as in a fresh process
    monkeypatch.setattr(kernels, "_TABLE_CACHE", {})
    got = corpus.run_in_process(tmp_path)
    want = recorded["entries"]
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, f"corpus entries that moved: {moved}"


def test_manifest_pins_every_documented_exit_code():
    # the CLI's docstring gives one exit code per error class; success
    # exits 0
    documented = {0, *(int(code) for code in re.findall(
        r"\b(\d) (?:usage|I/O|parse|domain)\b", cli.__doc__))}
    assert documented == {0, 2, 3, 4, 5}
    assert {cli.EXIT_IO, cli.EXIT_PARSE, cli.EXIT_DOMAIN} <= documented
    entries = json.loads(_corpus_tool().MANIFEST.read_text())["entries"]
    missing = documented - {entry["exit"] for entry in entries.values()}
    assert not missing, f"no corpus entry exits with {sorted(missing)}"


def test_stamp_names_the_numpy_simd_targets():
    # a process with some of numpy's SIMD targets turned off computes
    # other bits, and its stamp says so
    stamp = _corpus_tool().environment_stamp()
    active = stamp["numpy_simd"]
    if not active:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    disabled = active[1:] or active
    code = ("import importlib.util, json, sys\n"
            "spec = importlib.util.spec_from_file_location('c', sys.argv[1])\n"
            "tool = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tool)\n"
            "print(json.dumps(tool.environment_stamp()))\n")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    done = subprocess.run([sys.executable, "-c", code, str(TOOL)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    assert child != stamp
    assert child == {**stamp, "numpy_simd": [t for t in active
                                             if t not in disabled]}
