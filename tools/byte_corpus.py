"""Byte corpus of the ftcdf CLI: what a fixed set of commands prints and
writes.

Usage: python3 tools/byte_corpus.py [--manifest] OUT_DIR

Writes seeded inputs to OUT_DIR/inputs, then runs each command of the
corpus in this process through ``ftcdf.cli.main``, imported from the
``src`` directory of the checkout holding this script, with OUT_DIR as
the working directory, so that the paths a command echoes are the same
for any checkout.  Command NAME leaves OUT_DIR/NAME/ holding
``stdout``, ``stderr``, ``exit`` (the exit code) and the artifacts it
wrote.  The commands run one at a time, inside one
``ftcdf.blas._one_blas_thread``: each starts with numpy's OpenBLAS at
one thread, as a fresh ``ftcdf`` process does under the CLI's start-up
rule, so each writes the bytes a fresh process writes,
``diagnostics.blas`` included.

With ``--manifest`` the script also rewrites the manifest
``tools/byte_corpus.json``: the environment stamp and, for each
command, its exit code and the SHA-256 of its stdout, stderr and each
artifact.  The tier-1 test ``tests/test_byte_corpus.py`` runs the
corpus the same way and compares it with the manifest, so a change
that moves a byte rewrites the manifest in the same commit.

To compare two checkouts, run the script from each into two
directories and ``diff -r`` them: the difference is the byte report.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
MANIFEST = Path(__file__).resolve().with_name("byte_corpus.json")
# what a command directory holds besides its artifacts
STREAMS = ("stdout", "stderr", "exit")

INPUTS = ("normal", "weibull", "tiny")
# one sample written in each form the reader takes: plain files, which
# are parsed in one pass, then a byte-order mark, CRLF, blank lines,
# another column order, padding, 1_0, empty event fields (all read row
# by row), and a time that overflows and an event 2 on the last line
# (refused, naming the line)
READ_FORMS = ("headerless", "time", "time-event-headerless", "time-event",
              "bom", "crlf", "blank-lines", "event-time", "padded",
              "underscore", "empty-event", "overflow", "bad-event-late")
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
    # a comma list that is not a linspace: the ECF's one-row blocks
    ("freq-list-ecf-out", ["--freq-grid", "0,0.25,0.5,1,1.5,2,3,4,5,6,8,10",
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
    ("assumption-polynomial", ["--assumption", "polynomial", "--p", "2",
                               "--F", "0.3", "--f", "0.2", "--a", "0.7",
                               "--n", "100,1e4"]),
    ("assumption-band-limited", ["--assumption", "band-limited",
                                 "--F", "0.5", "--f", "0.25", "--n", "100"]),
    ("expansion-power", ["--expansion-base", "1:1:1:power:0.5",
                         "--expansion-better", "1:1:2.5:power:0.5",
                         "--n", "100,1e4"]),
    # flat radii far from the references: a trapezoid whose constant
    # grows like -ln(c), and a smooth kernel that has no table
    ("assumption-trapezoid-c1e-6", ["--assumption", "band-limited",
                                    "--F", "0.5", "--f", "0.25",
                                    "--n", "100", "--c", "1e-6"]),
    ("assumption-smooth-c0.75", ["--assumption", "band-limited",
                                 "--F", "0.5", "--f", "0.25", "--n", "100",
                                 "--kernel", "smooth", "--c", "0.75"]),
)

# refused runs: a removed flag, a kernel the command does not offer,
# flat-top flags with the Gaussian kernel and a rule radius with
# cross-validation (exit 2), a range grid that repeats a point and
# negative frequencies (exit 4), a smooth table that misses its tol, a
# class parameter the deficiency assumption does not take, flags the
# deficiency expansion mode does not take, an estimator named twice, a
# sample size named twice, data whose spread is below the least
# subnormal, a premultiplier the band-limited deficiency does not read,
# a one-row sample, whose noise threshold is 0, and a flat-top study of
# one-row draws, which exhausts its retries (exit 5), a scenario file
# without its distributions (exit 4), and an input file that is not
# there (exit 3)
REFUSALS = (
    ("kernel-table-json", ["kernel-table", "--json", "OUT/t.json"]),
    ("kernel-table-gaussian", ["kernel-table", "--kernel", "gaussian"]),
    ("deficiency-gaussian", ["deficiency", "--assumption", "band-limited",
                             "--F", "0.5", "--f", "0.25", "--kernel",
                             "gaussian", "--n", "100"]),
    ("estimate-gaussian-c", ["estimate", "--input", "inputs/normal.csv",
                             "--kernel", "gaussian", "--c", "0.3",
                             "--effective-c", "0.9"]),
    ("kernel-table-smooth-c0.6", ["kernel-table", "--kernel", "smooth",
                                  "--c", "0.6", "--output",
                                  "OUT/table.csv"]),
    ("estimate-grid-repeated", ["estimate", "--input", "inputs/normal.csv",
                                "--grid", "0:0:3"]),
    ("bandwidth-freq-grid-negative", ["bandwidth", "--input",
                                      "inputs/normal.csv",
                                      "--freq-grid=-1:1:5"]),
    ("bandwidth-cv-freq-grid-negative", ["bandwidth", "--input",
                                         "inputs/normal.csv", "--method",
                                         "cv", "--freq-grid=-1:1:5"]),
    ("bandwidth-cv-effective-c", ["bandwidth", "--input",
                                  "inputs/normal.csv", "--method", "cv",
                                  "--effective-c", "0.9"]),
    ("deficiency-stray-d", ["deficiency", "--assumption", "polynomial",
                            "--p", "2", "--d", "1", "--F", "0.5",
                            "--f", "0.25", "--a", "1", "--n", "100"]),
    ("deficiency-expansion-stray-flags", ["deficiency", "--expansion-base",
                                          "1:1:2:log-factor",
                                          "--expansion-better",
                                          "1:1:1:log-factor", "--n", "100",
                                          "--p", "2", "--F", "0.5",
                                          "--kernel", "smooth", "--c",
                                          "0.1"]),
    ("simulate-estimators-repeated", ["simulate", "--scenario", "normal-iid",
                                      "--n", "15", "--reps", "2",
                                      "--estimators", "edf,edf"]),
    ("simulate-sizes-repeated", ["simulate", "--scenario", "normal-iid",
                                 "--n", "15,15", "--reps", "2",
                                 "--estimators", "edf"]),
    ("bandwidth-cv-subnormal-spread", ["bandwidth", "--input",
                                       "inputs/subnormal-spread.csv",
                                       "--method", "cv"]),
    ("deficiency-band-limited-a", ["deficiency", "--assumption",
                                   "band-limited", "--F", "0.5", "--f",
                                   "0.25", "--a", "3", "--n", "100"]),
    ("estimate-one-row", ["estimate", "--input", "inputs/one.csv"]),
    ("simulate-one-row-flat-top", ["simulate", "--scenario", "normal-iid",
                                   "--n", "1", "--reps", "1", "--seed", "7",
                                   "--estimators", "trap-auto"]),
    ("estimate-missing-input", ["estimate", "--input",
                                "inputs/missing.csv"]),
    ("simulate-scenario-incomplete", ["simulate", "--scenario",
                                      "inputs/scenario-incomplete.json"]),
)


def write_inputs(inputs: Path) -> None:
    """A 300-row N(0,1) sample, a 300-row censored Weibull sample, a
    10-row sample of subnormal times near 1e-310, a 5000-row, a
    20 000-row and a 30 000-row N(0,1) sample, a 20 000-row censored
    Weibull sample, a 20 000-row Weibull sample about 66% censored with
    times rounded to 3 decimals, three times of 2.0, seven zeros and
    5e-324, one time, the READ_FORMS, an uncensored Weibull scenario
    file and a scenario file without its distributions."""
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
    large = np.random.default_rng(50).standard_normal(5000)
    (inputs / "normal5k.csv").write_text(
        "time\n" + "".join(f"{v!r}\n" for v in large.tolist()))
    large = np.random.default_rng(5).standard_normal(20000)
    (inputs / "normal20k.csv").write_text(
        "time\n" + "".join(f"{v!r}\n" for v in large.tolist()))
    large = np.random.default_rng(30).standard_normal(30000)
    (inputs / "normal30k.csv").write_text(
        "time\n" + "".join(f"{v!r}\n" for v in large.tolist()))
    rng = np.random.default_rng(11)
    life = 1.5 * rng.weibull(3.0, 20000)
    cens = 3.0 * rng.weibull(4.0, 20000)
    rows = zip(np.minimum(life, cens).tolist(), (life <= cens).tolist())
    (inputs / "weibull20k.csv").write_text(
        "time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
    rng = np.random.default_rng(66)
    life = 1.5 * rng.weibull(3.0, 20000)
    cens = 1.2 * rng.weibull(3.0, 20000)
    rows = zip(np.round(np.minimum(life, cens), 3).tolist(),
               (life <= cens).tolist())
    (inputs / "weibull20k-tied.csv").write_text(
        "time,event\n" + "".join(f"{t!r},{int(e)}\n" for t, e in rows))
    (inputs / "flat.csv").write_text("time\n2.0\n2.0\n2.0\n")
    (inputs / "subnormal-spread.csv").write_text(
        "time\n" + "0.0\n" * 7 + "5e-324\n")
    (inputs / "one.csv").write_text("time\n1.5\n")
    write_read_forms(inputs)
    scenario = {"name": "weibull-cdf", "eval_points": [0.5, 1.0],
                "sample_sizes": [15], "replications": 8, "seed": 3}
    (inputs / "scenario-incomplete.json").write_text(json.dumps(scenario))
    scenario["lifetime_dist"] = {"kind": "weibull", "shape": 2.0,
                                 "scale": 1.0}
    (inputs / "scenario.json").write_text(json.dumps(scenario))


def write_read_forms(inputs: Path) -> None:
    """A 60-row censored Weibull sample as form-NAME.csv for each NAME of
    READ_FORMS."""
    rng = np.random.default_rng(26)
    life = 1.5 * rng.weibull(3.0, 60)
    cens = 3.0 * rng.weibull(4.0, 60)
    times = [repr(t) for t in np.minimum(life, cens).tolist()]
    events = [str(int(e)) for e in (life <= cens).tolist()]
    pairs = [f"{t},{e}" for t, e in zip(times, events)]
    forms = {
        "headerless": times,
        "time": ["time", *times],
        "time-event-headerless": pairs,
        "time-event": ["time,event", *pairs],
        "bom": ["\ufefftime,event", *pairs],
        "crlf": ["time,event", *pairs],
        "blank-lines": ["time,event", "", *pairs[:30], "", "", *pairs[30:]],
        "event-time": ["event,time",
                       *(f"{e},{t}" for t, e in zip(times, events))],
        "padded": [" time , event",
                   *(f" {t} ,{e} " for t, e in zip(times, events))],
        "underscore": ["time", *times[:-1], "1_0"],
        "empty-event": ["time,event", *(f"{t}," if i % 7 == 0 else p
                                        for i, (t, p) in
                                        enumerate(zip(times, pairs)))],
        "overflow": ["time", *times[:40], "1e400", *times[40:]],
        "bad-event-late": ["time,event", *pairs[:-1], f"{times[-1]},2"],
    }
    for name in READ_FORMS:
        end = "\r\n" if name == "crlf" else "\n"
        (inputs / f"form-{name}.csv").write_bytes(
            (end.join(forms[name]) + end).encode())


def commands():
    """(name, ftcdf arguments) of every command of the corpus."""
    for family in ("trapezoid", "smooth"):
        for tol in ("1e-6", "1e-8", "1e-10"):
            yield (f"kernel-table-{family}-{tol}",
                   ["kernel-table", "--kernel", family, "--tol", tol,
                    "--output", "OUT/table.csv"])
    # a smooth kernel off the reference, which has no rule radius
    yield ("kernel-table-smooth-c0.1",
           ["kernel-table", "--kernel", "smooth", "--c", "0.1",
            "--output", "OUT/table.csv"])
    # a smooth kernel whose flat radius is too large to tabulate: refused
    yield ("kernel-table-smooth-c0.75",
           ["kernel-table", "--kernel", "smooth", "--c", "0.75",
            "--output", "OUT/table.csv"])
    yield ("estimate-smooth-c0.1-fixed-normal",
           ["estimate", "--input", "inputs/normal.csv", "--kernel", "smooth",
            "--c", "0.1", "--bandwidth", "0.3", "--output", "OUT/curve.csv"])
    # a kernel sum whose last bits once followed the OpenBLAS thread count
    yield ("estimate-fixed-normal20k",
           ["estimate", "--input", "inputs/normal20k.csv", "--bandwidth",
            "0.2", "--grid", "-5:5:257", "--output", "OUT/curve.csv"])
    # 34 rows a block, 2 mod 4: the kernel sum's last 4-row chunk of each
    # block takes its 2 leftover rows, and of the last block (19 rows) 3
    yield ("estimate-fixed-normal30k",
           ["estimate", "--input", "inputs/normal30k.csv", "--bandwidth",
            "0.2", "--grid", "-5:5:257", "--output", "OUT/curve.csv"])
    # a censored fit whose kernel sum takes several blocks, each side of
    # the boundary reflection
    yield ("survival-smooth-boundary-weibull20k",
           ["survival", "--input", "inputs/weibull20k.csv", "--kernel",
            "smooth", "--boundary", "0", "--standardize", "--grid",
            "0:4:201", "--output", "OUT/curve.csv"])
    # kernel sums whose rows cross +-T: the rows below and above the data
    # are merged against the knots, those across it looked up
    yield ("estimate-trapezoid-h1e-4-normal20k",
           ["estimate", "--input", "inputs/normal20k.csv", "--bandwidth",
            "1e-4", "--grid", "-8:8:161", "--output", "OUT/curve.csv"])
    # every row merged, each side of the boundary reflection
    yield ("survival-smooth-h0.005-boundary-weibull20k",
           ["survival", "--input", "inputs/weibull20k.csv", "--kernel",
            "smooth", "--boundary", "0", "--bandwidth", "0.005",
            "--output", "OUT/curve.csv"])
    # dense censoring gaps, and ties among events and with censorings
    yield ("survival-smooth-fixed-weibull20k-tied",
           ["survival", "--input", "inputs/weibull20k-tied.csv", "--kernel",
            "smooth", "--boundary", "0", "--bandwidth", "0.1", "--grid",
            "0:4:201"])
    # so heavily censored that the threshold rule finds no window at n
    # and falls back to the Kaplan-Meier measure's effective size
    yield ("survival-smooth-auto-boundary-weibull20k-tied",
           ["survival", "--input", "inputs/weibull20k-tied.csv", "--kernel",
            "smooth", "--boundary", "0", "--standardize", "--grid",
            "0:4:201"])
    yield ("bandwidth-auto-weibull20k-tied",
           ["bandwidth", "--input", "inputs/weibull20k-tied.csv"])
    for data in INPUTS:
        source = ["--input", f"inputs/{data}.csv"]
        for command in ("estimate", "survival"):
            for variant, args in CURVE_VARIANTS:
                yield f"{command}-{variant}-{data}", [command, *source, *args]
        for variant, args in BANDWIDTH_VARIANTS:
            yield f"bandwidth-{variant}-{data}", ["bandwidth", *source, *args]
    # times that are all equal: the CV grid scales with their magnitude
    yield ("bandwidth-cv-flat",
           ["bandwidth", "--input", "inputs/flat.csv", "--method", "cv"])
    # 5000 jumps: the CV evaluates one bandwidth at a time, in column
    # blocks of 209 quadrature points and one of 47
    yield ("bandwidth-cv-normal5k",
           ["bandwidth", "--input", "inputs/normal5k.csv", "--method", "cv"])
    for form in READ_FORMS:
        for command in ("estimate", "survival"):
            yield (f"{command}-form-{form}",
                   [command, "--input", f"inputs/form-{form}.csv",
                    "--bandwidth", "0.25", "--grid", "0:4:41"])
    for scenario in ("normal-iid", "weibull-censored", "polya-bandlimited"):
        for workers in ("1", "2"):
            yield (f"simulate-{scenario}-workers{workers}",
                   ["simulate", "--scenario", scenario, "--n", "15,30",
                    "--reps", "60", "--seed", "7", "--workers", workers,
                    "--output", "OUT/report.csv"])
    # a scenario read from a file, the CDF of a Weibull law, reported
    # inline
    yield ("simulate-scenario-file-inline",
           ["simulate", "--scenario", "inputs/scenario.json"])
    # the threshold rule with another rule radius
    yield ("bandwidth-effective-c-normal",
           ["bandwidth", "--input", "inputs/normal.csv", "--effective-c",
            "0.5"])
    # 200 jumps: the CV evaluates one bandwidth at a time, all 256
    # quadrature points at once
    yield ("simulate-normal-iid-n200",
           ["simulate", "--scenario", "normal-iid", "--n", "200", "--reps",
            "10", "--seed", "7", "--output", "OUT/report.csv"])
    for mode, args in DEFICIENCY:
        yield f"deficiency-{mode}", ["deficiency", *args]
    for name, args in REFUSALS:
        yield f"refused-{name}", args


def environment_stamp() -> dict:
    """What the corpus's last bits depend on besides the source: the
    numpy and scipy versions, the build string of numpy's OpenBLAS,
    which names the core its kernels were chosen for, the file name of
    that library as diagnostics.blas.libraries prints it, and the SIMD
    targets numpy dispatches to on this CPU (NPY_DISABLE_CPU_FEATURES
    can narrow them, and turning the AVX-512 ones off moves bytes of
    the smooth tables and fits, the Gaussian fits and every study)."""
    import scipy
    from numpy._core import _multiarray_umath

    from ftcdf.blas import _blas_libraries
    # symbols resolve through numpy's own extension, whatever else loaded
    lib, config = ctypes.CDLL(_multiarray_umath.__file__), None
    for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                 "openblas_get_config64_", "openblas_get_config"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = (), ctypes.c_char_p
            config = get().decode().strip()
            break
    simd = [target for target in _multiarray_umath.__cpu_dispatch__
            if _multiarray_umath.__cpu_features__.get(target)]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": config,
            "blas_libraries": [name for name, _, _ in _blas_libraries()],
            "numpy_simd": simd}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_entry(directory: Path) -> dict:
    """Exit code and hashes of one command's directory."""
    artifacts = {p.relative_to(directory).as_posix():
                 _sha256(p.read_bytes())
                 for p in sorted(directory.rglob("*"))
                 if p.is_file() and p.name not in STREAMS}
    return {"exit": int((directory / "exit").read_text()),
            "stdout": _sha256((directory / "stdout").read_bytes()),
            "stderr": _sha256((directory / "stderr").read_bytes()),
            "artifacts": artifacts}


def record(directory: Path, stdout: bytes, stderr: bytes, code: int):
    """Writes one command's streams and exit code into its directory."""
    (directory / "stdout").write_bytes(stdout)
    (directory / "stderr").write_bytes(stderr)
    (directory / "exit").write_text(f"{code}\n")


def run_in_process(out: Path, log=None) -> dict:
    """Runs the corpus through ftcdf.cli.main in this process into out,
    with out as the working directory and numpy's OpenBLAS at one
    thread; returns {name: manifest entry}.  log, if given, is called
    with each name, exit code and seconds."""
    from ftcdf.blas import _one_blas_thread
    from ftcdf.cli import main as cli_main
    out = out.resolve()
    write_inputs(out / "inputs")
    entries, cwd = {}, os.getcwd()
    os.chdir(out)
    try:
        with _one_blas_thread():
            for name, args in commands():
                here = out / name
                here.mkdir(parents=True, exist_ok=True)
                args = [a.replace("OUT/", f"{name}/") for a in args]
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    try:
                        code = cli_main(args)
                    except SystemExit as exc:  # a usage error
                        code = exc.code
                seconds = time.perf_counter() - t0
                record(here, stdout.getvalue().encode(),
                       stderr.getvalue().encode(), code)
                entries[name] = manifest_entry(here)
                if log is not None:
                    log(name, code, seconds)
    finally:
        os.chdir(cwd)
    return entries


def main(argv) -> int:
    manifest = argv[:1] == ["--manifest"]
    argv = argv[1:] if manifest else argv
    if len(argv) != 1:
        sys.stderr.write("usage: byte_corpus.py [--manifest] OUT_DIR\n")
        return 2
    # an installed ftcdf must not answer for this checkout
    sys.path.insert(0, str(SRC))
    import ftcdf.cli
    if Path(ftcdf.cli.__file__).resolve().parents[1] != SRC:
        sys.stderr.write(f"ftcdf does not import from {SRC}\n")
        return 1
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    entries = run_in_process(
        out, lambda name, code, seconds:
        print(f"{code} {seconds:7.3f}s {name}", flush=True))
    if manifest:
        MANIFEST.write_text(json.dumps(
            {"stamp": environment_stamp(), "entries": entries},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
