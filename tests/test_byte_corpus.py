"""The byte corpus against its manifest: every command of
tools/byte_corpus.py, run in this process, keeps its exit code and the
bytes of its stdout, stderr and artifacts; and a few commands, each run
in a fresh interpreter, print and write the same bytes.

A change that moves a byte on purpose rewrites the manifest in the same
commit (python3 tools/byte_corpus.py --manifest OUT_DIR).  The manifest
holds the environment it was recorded under; another numpy, scipy,
OpenBLAS build or core, or numpy SIMD target can move last bits, so
there the tests fail and name both environments instead of comparing.
"""
from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ftcdf.cli as cli
import ftcdf.kernels as kernels

from conftest import src_env, start_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_corpus.py"
# what the installed ftcdf script runs
_SCRIPT = "import sys; from ftcdf.cli import main; sys.exit(main())"


def _corpus_tool():
    spec = importlib.util.spec_from_file_location("byte_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded_entries(corpus) -> dict:
    """The manifest's entries, once its stamp is this environment's."""
    recorded = json.loads(corpus.MANIFEST.read_text())
    stamp = corpus.environment_stamp()
    assert stamp == recorded["stamp"], (
        f"the manifest was recorded under {recorded['stamp']}, and this "
        f"run is under {stamp}: run tools/byte_corpus.py here and under "
        f"the recorded environment, and diff -r the two trees")
    return recorded["entries"]


def test_corpus_matches_manifest(tmp_path, monkeypatch):
    corpus = _corpus_tool()
    want = _recorded_entries(corpus)
    # the tables a command uses are built as in a fresh process
    monkeypatch.setattr(kernels, "_TABLE_CACHE", {})
    got = corpus.run_in_process(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, f"corpus entries that moved: {moved}"


@pytest.mark.parametrize("name", [
    "estimate-auto-normal", "survival-smooth-weibull",
    "simulate-polya-bandlimited-workers2", "refused-kernel-table-json"])
def test_fresh_process_matches_manifest(tmp_path, name):
    # what the ftcdf script prints with OPENBLAS_NUM_THREADS unset, the
    # start-up rule's case: the manifest pins caller_threads [1]
    corpus = _corpus_tool()
    want = _recorded_entries(corpus)[name]
    corpus.write_inputs(tmp_path / "inputs")
    args = [a.replace("OUT/", f"{name}/")
            for a in dict(corpus.commands())[name]]
    (tmp_path / name).mkdir()
    done = subprocess.run([sys.executable, "-c", _SCRIPT, *args],
                          cwd=tmp_path, env=start_env(), capture_output=True)
    corpus.record(tmp_path / name, done.stdout, done.stderr, done.returncode)
    assert corpus.manifest_entry(tmp_path / name) == want


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
    env = src_env(NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    done = subprocess.run([sys.executable, "-c", code, str(TOOL)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    assert child != stamp
    assert child == {**stamp, "numpy_simd": [t for t in active
                                             if t not in disabled]}
