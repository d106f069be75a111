"""Run the benchmark over several seeds and report its spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]
                                [--trace 1] [--out FILE]

Runs run.py once per seed and workload (BENCHMARK.json's workloads by
default) with BENCHMARK.json's run_seconds.  Per workload it prints
fail_frac and, for each metric, the median of the runs and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound.  --out merges the runs and the
summary into a JSON file under the key "<workload> trace <0|1>", the
form of perfbench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT
from workloads import WORKLOADS


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_workload(bench, workload, seeds, trace):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                  if k in bounds}
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)
    summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"{workload}: fail_frac {failed / attempted:g} ratio "
          f"({failed} of {attempted} commands)")
    for name, bound in bounds.items():
        if name in summary:
            s = summary[name]
            print(f"  {name:14s} median {s['median']:.4f} "
                  f"{runs[0]['metrics'][name]['unit']:5s} spread "
                  f"{s['spread']:.4f}  bound {bound}")
    return runs, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in names:
        runs, summary = run_workload(bench, workload, seed_list(args.seeds),
                                     args.trace)
        if args.out:
            table = {}
            if os.path.exists(args.out):
                with open(args.out, encoding="utf-8") as fh:
                    table = json.load(fh)
            table[f"{workload} trace {args.trace}"] = {
                "runs": runs, "summary": summary}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
