"""Self-test of the benchmark at smoke sizes.

    python3 perfbench/selftest.py

Runs every workload with --smoke (small inputs, same code path) with
tracing off and on, and checks the result line against BENCHMARK.json:
exactly the keys correct/attempted/failed/metrics, every end-to-end or
per-layer metric with its unit, no failed operation, and the counts that
the seed code fixes (8 table builds per study, 2 Kaplan-Meier calls per
survival fit).  Last, it checks that the benchmark refuses to run, with
a nonzero exit and no result, in a directory without the ftcdf sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from run import ROOT, WORK_ROOT
from workloads import HERE, WORKLOADS

EXPECTED_COUNTS = {
    ("study-pool", "kernels.builds"): 8,
    ("survival-censored", "survival.km_calls"): 2,
    ("estimate-large", "survival.km_calls"): 0,
}


def run_bench(bench, cwd, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(bench, workload, trace, done) -> list:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        errors.append(f"not a clean run: {done.stdout[-800:]}")
    spec = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics {sorted(set(got) ^ set(want))} differ "
                      "from BENCHMARK.json")
    for (name, metric), count in EXPECTED_COUNTS.items():
        if trace and name == workload and \
                result["metrics"][metric]["value"] != count:
            errors.append(f"{metric} is {result['metrics'][metric]['value']}"
                          f", expected {count}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = check_result(bench, workload, trace,
                                  run_bench(bench, ROOT, workload, trace))
            failures += bool(errors)
            print(f"{workload} trace {trace}: "
                  f"{'ok' if not errors else '; '.join(errors)}", flush=True)
    bare = os.path.join(WORK_ROOT, f"bare-{os.getpid()}-{time.time_ns()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run_bench(bench, bare, next(iter(WORKLOADS)), 0)
        lines = done.stdout.strip().splitlines()
        refused = done.returncode != 0 and not (
            lines and lines[-1].startswith("{"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"without sources: {'refused' if refused else 'NOT refused'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
