"""Benchmark of the ftcdf command line, one fresh process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from its
``src`` directory.  BLAS and thread settings are left at the user's
defaults on purpose, because a user of the CLI runs with them.

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing ftcdf.cli
               and building, through get_table, the kernel tables the
               workload's command uses
  op_s         median wall time of one command, spawn to exit
  cpu_s        median user + system CPU of the command and its children
  peak_rss_mb  median over commands of the largest max-RSS of the
               command process or any of its children
--trace 1 runs the command under perfbench/tracer.py and prints the
per-layer metrics (see perfbench/README.md), plus trace.overhead_s, the
traced minus the untraced op_s.

Every output is checked (see workloads.py); fail_frac, the share of
commands that failed, is printed with the metrics and carried by the
result's "failed" count.  The last line of stdout is the result object.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(wl.HERE, "tracer.py")

SETUP_REPEATS = 3
MIN_OPS = 2
OP_TIMEOUT_S = 150.0
CLI = "import sys; from ftcdf.cli import main; sys.exit(main())"

LAYERS = ("cli", "io", "kernels", "quadrature", "bandwidth", "estimators",
          "survival", "simulate")
WORKER_LAYERS = LAYERS[2:]
# per-layer metrics that are counts or ratios of counts: they must
# repeat exactly from one operation to the next
EXACT = ("io.rows", "kernels.builds", "kernels.kbar_points",
         "bandwidth.ecf_terms", "bandwidth.ecf_useful_frac",
         "bandwidth.cv_evals", "estimators.kbar_sum_terms",
         "survival.km_calls", "survival.km_jumps", "simulate.attempts",
         "simulate.retry_frac", "trace.spans")


class Proc:
    """Outcome of one child process: wall, CPU, peak RSS, exit code."""

    def __init__(self, argv, env, stdout_path, stderr_path):
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                 stderr=err, start_new_session=True)
            timer = threading.Timer(OP_TIMEOUT_S, os.killpg,
                                    (p.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the process and the children it waited
                # for, so pool workers count toward CPU and peak RSS
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - t0
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()


class Run:
    def __init__(self, workload, seed, smoke, work):
        self.w = workload
        self.seed = seed
        self.size = workload.smoke_size if smoke else workload.size
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.counter = 0
        self.input_path, self.input_sha = self.write_input(self.size)
        ref = None if smoke else wl.load_reference(workload, seed)
        if ref is not None and ref.get("input_sha256") != self.input_sha:
            raise SystemExit(f"reference for {workload.name} seed {seed} "
                             "was made from other inputs")
        self.reference = ref
        self.study_csv = None

    def write_input(self, size):
        """Path and SHA-256 of a fresh input file; None for the study."""
        text = wl.make_input(self.w, self.seed, size)
        if text is None:
            return None, None
        self.counter += 1
        path = os.path.join(self.work, f"input{self.counter}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path, wl.sha256(text)

    def warm_up(self):
        """One untimed command at smoke size, on the same code path: it
        fills the OS file cache with the modules and files the command
        reads, which a user pays once, not on every command."""
        path, _ = self.write_input(self.w.smoke_size)
        out = os.path.join(self.work, "warm-up.csv")
        proc = self.spawn([sys.executable, "-c", CLI] + self.w.argv(
            path, out, self.seed, self.w.smoke_size))
        if proc.rc != 0:
            raise SystemExit("warm-up command failed: "
                             + proc.stderr.strip()[-500:])

    def spawn(self, argv) -> Proc:
        self.counter += 1
        base = os.path.join(self.work, f"proc{self.counter}")
        return Proc(argv, self.env, base + ".out", base + ".err")

    def setup(self) -> Proc:
        code = ("import ftcdf.cli\n"
                "from ftcdf.kernels import FlatTopSpec, get_table\n"
                f"for spec in {list(self.w.setup_specs)!r}:\n"
                "    get_table(FlatTopSpec(**spec))\n")
        return self.spawn([sys.executable, "-c", code])

    def op(self, trace=False, workers=2):
        """Run one command; returns (Proc, errors, span dir or None)."""
        self.counter += 1
        out = os.path.join(self.work, f"result{self.counter}.csv")
        args = self.w.argv(self.input_path, out, self.seed, self.size,
                           workers)
        span_dir = None
        if trace:
            span_dir = os.path.join(self.work, f"spans{self.counter}")
            os.mkdir(span_dir)
            argv = [sys.executable, TRACER, span_dir, "--"] + args
        else:
            argv = [sys.executable, "-c", CLI] + args
        proc = self.spawn(argv)
        errors = self.check(proc, out)
        if os.path.exists(out):
            os.remove(out)
        return proc, errors, span_dir

    def check(self, proc, out) -> list:
        if proc.rc != 0:
            return [f"exit code {proc.rc}: {proc.stderr.strip()[-300:]}"]
        try:
            doc = wl.parse_document(proc.stdout)
            if self.w.command != "simulate":
                return wl.check_curve(self.w, doc, out, self.size,
                                      self.reference)
            with open(out, encoding="utf-8") as fh:
                csv_text = fh.read()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        errors = wl.check_study(doc, csv_text, self.size, self.reference)
        if self.study_csv is None:
            self.study_csv = csv_text
        elif csv_text != self.study_csv:
            errors.append("study CSV differs between runs of one seed")
        return errors

    def serial_study_errors(self) -> list:
        """A --workers 1 run must print the same study CSV, byte for byte;
        checked outside the timed commands."""
        if self.w.command != "simulate" or self.study_csv is None:
            return []
        _, errors, _ = self.op(workers=1)
        return [f"--workers 1 run: {e}" for e in errors]


def layer_metrics(span_dir: str, op_wall: float, workers: int) -> dict:
    spans = []
    for path in glob.glob(os.path.join(span_dir, "spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    main_pid = next(s["pid"] for s in spans if s["name"] == "ftcdf.cli.main")
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    total = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        dur = s["t1"] - s["t0"]
        short = s["name"].removeprefix("ftcdf.")
        total[short] += dur
        counts[short + ".calls"] += 1
        for key, value in s["counts"].items():
            counts[f"{short}.{key}"] += value
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] += dur
    self_main = dict.fromkeys(LAYERS, 0.0)
    self_worker = dict.fromkeys(WORKER_LAYERS, 0.0)
    for s in spans:
        own = s["t1"] - s["t0"] - child_time[s["id"]]
        if s["pid"] == main_pid:
            self_main[s["layer"]] += own
        else:
            self_worker[s["layer"]] += own
    attempts = counts["simulate._replicate.attempts"]
    reps = counts["simulate._replicate.calls"]
    pool_wall = total["simulate.run_scenario"] * max(1, workers)
    m = {
        "cli.import_s": total["cli.import"],
        "io.read_s": total["io.read_sample_csv"],
        "io.write_s": (total["io.curve_csv"] + total["io.write_text"]
                       + total["io.dump_json"]),
        "io.rows": counts["io.read_sample_csv.rows"] + counts["io.curve_csv.rows"],
        "kernels.build_s": total["kernels.build_table"],
        "kernels.builds": counts["kernels.build_table.builds"],
        "kernels.kbar_s": (total["kernels.KernelTable.kbar"]
                           + total["kernels.GaussianKernel.kbar"]),
        "kernels.kbar_points": (counts["kernels.KernelTable.kbar.points"]
                                + counts["kernels.GaussianKernel.kbar.points"]),
        "quadrature.gl_rule_s": total["quadrature.unit_gl_rule"],
        "bandwidth.ecf_s": total["bandwidth.ecf"],
        "bandwidth.ecf_terms": counts["bandwidth.ecf.terms"],
        "bandwidth.ecf_useful_frac": (
            counts["bandwidth.select_bandwidth.useful"] / counts["bandwidth.select_bandwidth.freqs"]
            if counts["bandwidth.select_bandwidth.freqs"] else 0.0),
        "bandwidth.select_s": total["bandwidth.select_bandwidth"],
        "bandwidth.cv_s": (total["bandwidth.cv_bandwidth_gaussian"]
                           + total["bandwidth.cv_bandwidth_km"]),
        "bandwidth.cv_evals": (counts["bandwidth.cv_bandwidth_gaussian.evals"]
                               + counts["bandwidth.cv_bandwidth_km.evals"]),
        "estimators.edf_s": total["estimators.edf"],
        "estimators.kbar_sum_s": total["estimators.smoothed_measure_on_grid"],
        "estimators.kbar_sum_terms": counts["estimators.smoothed_measure_on_grid.terms"],
        "estimators.standardize_s": total["estimators.standardize_path"],
        "survival.km_s": total["survival.kaplan_meier"],
        "survival.km_calls": counts["survival.kaplan_meier.calls"],
        "survival.km_jumps": counts["survival.kaplan_meier.jumps"],
        "simulate.rep_s": total["simulate._replicate"],
        "simulate.attempts": attempts,
        "simulate.retry_frac": (attempts - reps) / attempts if attempts else 0.0,
        "simulate.worker_busy_frac": (total["simulate._replicate"] / pool_wall
                                      if pool_wall else 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_main[layer]
    for layer in WORKER_LAYERS:
        m[f"{layer}.worker_self_s"] = self_worker[layer]
    m["other_s"] = op_wall - sum(self_main.values())
    m["trace.op_s"] = op_wall
    m["trace.spans"] = len(spans)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def openblas_info():
    """OpenBLAS build string and default thread count of this process."""
    import ctypes
    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                if "openblas" in line.lower():
                    libs.add(line.split()[-1])
    except OSError:
        return None, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            cfg = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
            if cfg is not None and threads is not None:
                cfg.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return cfg().decode().strip(), threads()
    return None, None


def environment_stamp(run: Run) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ftcdf", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    blas, blas_threads = openblas_info()
    return {
        "workload": run.w.name, "seed": run.seed, "size": run.size,
        "input_sha256": run.input_sha,
        "reference": run.reference is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": version("scipy"),
        "openblas": blas, "openblas_threads_default": blas_threads,
        "blas_threads_overridden": False,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float, trace: bool):
    """Returns (metrics, attempted, failed, error messages)."""
    errors = []
    attempted = failed = 0

    def tally(result):
        nonlocal attempted, failed
        proc, errs, _ = result
        attempted += 1
        if errs:
            failed += 1
            errors.extend(errs)
        return result

    metrics = {}
    if not trace:
        setups = [run.setup() for _ in range(SETUP_REPEATS)]
        bad = [p for p in setups if p.rc != 0]
        if bad:
            raise SystemExit("set-up failed: " + bad[0].stderr.strip()[-500:])
        ops = []
        t0 = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - t0 < seconds:
            ops.append(tally(run.op())[0])
        print("perfbench set-up walls " + " ".join(
            f"{p.wall:.3f}" for p in setups))
        print("perfbench op walls " + " ".join(f"{p.wall:.3f}" for p in ops))
        metrics = {
            "setup_s": median([p.wall for p in setups]),
            "op_s": median([p.wall for p in ops]),
            "cpu_s": median([p.cpu for p in ops]),
            "peak_rss_mb": median([p.rss_mb for p in ops]),
        }
    else:
        # traced and untraced commands alternate; their difference is
        # the tracing overhead
        plain, traced = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            plain.append(tally(run.op())[0])
            proc, errs, span_dir = tally(run.op(trace=True))
            if proc.rc == 0:
                traced.append(layer_metrics(span_dir, proc.wall, workers=2))
            shutil.rmtree(span_dir)
        print("perfbench untraced op walls " + " ".join(
            f"{p.wall:.3f}" for p in plain))
        for name in EXACT:
            values = [m[name] for m in traced]
            if len(set(values)) > 1:
                errors.append(f"{name} differs between operations: {values}")
        if traced:
            # report the traced command of median wall time whole, so that
            # its layer self times and other_s add up to its trace.op_s
            traced.sort(key=lambda m: m["trace.op_s"])
            metrics = traced[(len(traced) - 1) // 2]
            metrics["trace.overhead_s"] = (metrics["trace.op_s"]
                                           - median([p.wall for p in plain]))
    serial = run.serial_study_errors()
    if serial:
        failed = max(failed, 1)
        errors.extend(serial)
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs on the same code path (self-test)")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "ftcdf", "cli.py")):
        sys.stderr.write(f"perfbench: no ftcdf sources under {SRC}\n")
        return 3
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{time.time_ns()}")
    os.mkdir(work)
    try:
        run = Run(wl.WORKLOADS[args.workload], args.seed, args.smoke, work)
        run.warm_up()
        stamp = environment_stamp(run)
        metrics, attempted, failed, errors = measure(run, args.seconds,
                                                     bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench stamp " + json.dumps(stamp, sort_keys=True))
    for e in errors:
        print(f"perfbench error: {e}")
    print(f"perfbench {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed")
    rows = dict(metrics)
    if not args.trace:
        rows["fail_frac"] = failed / attempted
    for name, value in rows.items():
        print(f"  {name:28s} {value:>14.6g} {unit_of(name)}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
