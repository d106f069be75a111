"""Byte corpus of the ftcdf CLI: what a fixed set of commands prints and
writes.

Usage: python3 tools/byte_corpus.py OUT_DIR

Writes three seeded inputs to OUT_DIR/inputs, then runs each command of
the corpus in a fresh interpreter that imports ftcdf from the ``src``
directory of the checkout holding this script, with OUT_DIR as the
working directory, so that the paths a command echoes are the same
for any checkout.  Command NAME leaves OUT_DIR/NAME/ holding
``stdout``, ``stderr``, ``exit`` (the exit code) and the artifacts it
wrote.  The commands run one at a time.

To compare two checkouts, run the script from each (copy it into a
checkout that predates it) into two directories and ``diff -r`` them:
the difference is the byte report.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = "import sys; from ftcdf.cli import main; sys.exit(main())"
CHECK = ("import sys, ftcdf.cli; from pathlib import Path; "
         "sys.exit(Path(ftcdf.cli.__file__).resolve().parents[1] != "
         "Path(sys.argv[1]))")

INPUTS = ("normal", "weibull", "tiny")
# (name, arguments) of the estimate and survival variants; OUT is the
# command's own directory
CURVE_VARIANTS = (
    ("auto", ["--output", "OUT/curve.csv"]),
    ("fixed", ["--bandwidth", "0.25", "--output", "OUT/curve.csv"]),
    ("smooth", ["--kernel", "smooth", "--output", "OUT/curve.csv"]),
    ("gaussian", ["--kernel", "gaussian", "--output", "OUT/curve.csv"]),
    ("boundary", ["--boundary", "0", "--output", "OUT/curve.csv"]),
    ("standardize", ["--standardize", "--output", "OUT/curve.csv"]),
    ("inline", ["--grid", "-3:3:41"]),
)
BANDWIDTH_VARIANTS = (
    ("auto", []),
    ("freq-grid", ["--freq-grid", "0:8:64"]),
    ("ecf-out", ["--ecf-out", "OUT/ecf.csv"]),
    ("cv", ["--method", "cv"]),
    ("cv-freq-grid-ecf-out", ["--method", "cv", "--freq-grid", "0:5:11",
                              "--ecf-out", "OUT/ecf.csv"]),
)
DEFICIENCY = (
    ("assumption", ["--assumption", "exponential", "--d", "1", "--F", "0.5",
                    "--f", "0.25", "--a", "1", "--n", "1e3,1e6"]),
    ("assumption-smooth", ["--assumption", "exponential", "--d", "1",
                           "--F", "0.5", "--f", "0.25", "--a", "1",
                           "--n", "1e3,1e6", "--kernel", "smooth",
                           "--c", "0.1"]),
    ("expansion", ["--expansion-base", "1:1:2:log-factor",
                   "--expansion-better", "1:1:1:log-factor",
                   "--n", "100,1000"]),
)


def write_inputs(inputs: Path) -> None:
    """A 300-row N(0,1) sample, a 300-row censored Weibull sample and a
    10-row sample of subnormal times near 1e-310."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2026)
    x = rng.normal(size=300)
    (inputs / "normal.csv").write_text(
        "time\n" + "".join(f"{v!r}\n" for v in x.tolist()))
    life = 1.5 * rng.weibull(3.0, 300)
    cens = 3.0 * rng.weibull(4.0, 300)
    rows = zip(np.minimum(life, cens).tolist(), (life <= cens).tolist())
    (inputs / "weibull.csv").write_text(
        "time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
    (inputs / "tiny.csv").write_text(
        "time\n" + "".join(f"{k * 1e-311!r}\n" for k in range(10, 20)))


def commands():
    """(name, ftcdf arguments) of every command of the corpus."""
    for family in ("trapezoid", "smooth"):
        for tol in ("1e-6", "1e-8", "1e-10"):
            yield (f"kernel-table-{family}-{tol}",
                   ["kernel-table", "--kernel", family, "--tol", tol,
                    "--output", "OUT/table.csv", "--json", "OUT/table.json"])
    # a smooth kernel off the reference, which has no rule radius
    yield ("kernel-table-smooth-c0.1",
           ["kernel-table", "--kernel", "smooth", "--c", "0.1",
            "--output", "OUT/table.csv", "--json", "OUT/table.json"])
    # a smooth kernel whose flat radius is too large to tabulate: refused
    yield ("kernel-table-smooth-c0.75",
           ["kernel-table", "--kernel", "smooth", "--c", "0.75",
            "--output", "OUT/table.csv", "--json", "OUT/table.json"])
    yield ("estimate-smooth-c0.1-fixed-normal",
           ["estimate", "--input", "inputs/normal.csv", "--kernel", "smooth",
            "--c", "0.1", "--bandwidth", "0.3", "--output", "OUT/curve.csv"])
    for data in INPUTS:
        source = ["--input", f"inputs/{data}.csv"]
        for command in ("estimate", "survival"):
            for variant, args in CURVE_VARIANTS:
                yield f"{command}-{variant}-{data}", [command, *source, *args]
        for variant, args in BANDWIDTH_VARIANTS:
            yield f"bandwidth-{variant}-{data}", ["bandwidth", *source, *args]
    for scenario in ("normal-iid", "weibull-censored", "polya-bandlimited"):
        for workers in ("1", "2"):
            yield (f"simulate-{scenario}-workers{workers}",
                   ["simulate", "--scenario", scenario, "--n", "15,30",
                    "--reps", "60", "--seed", "7", "--workers", workers,
                    "--output", "OUT/report.csv", "--json",
                    "OUT/report.json"])
    for mode, args in DEFICIENCY:
        yield f"deficiency-{mode}", ["deficiency", *args]


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: byte_corpus.py OUT_DIR\n")
        return 2
    out = Path(argv[0]).resolve()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if subprocess.run([sys.executable, "-c", CHECK, str(SRC)],
                      env=env).returncode != 0:
        sys.stderr.write(f"ftcdf does not import from {SRC}\n")
        return 1
    write_inputs(out / "inputs")
    for name, args in commands():
        (out / name).mkdir(parents=True, exist_ok=True)
        args = [a.replace("OUT/", f"{name}/") for a in args]
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=out,
                              env=env, capture_output=True)
        (out / name / "stdout").write_bytes(done.stdout)
        (out / name / "stderr").write_bytes(done.stderr)
        (out / name / "exit").write_text(f"{done.returncode}\n")
        print(f"{done.returncode} {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
