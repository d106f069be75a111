"""Record reference outputs of the workloads for a list of seeds.

    python3 perfbench/make_reference.py SEED [SEED ...]

Runs each workload's command once per seed with the ftcdf sources of the
checkout and stores, in perfbench/reference/<workload>.json, the input's
SHA-256 with the selected bandwidth and curve (estimate, survival) or the
study CSV text.  run.py compares every later run of a stored seed with
these.  Regenerate only from the commit that defines the baseline.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import workloads as wl
from run import CLI, ROOT, SRC, WORK_ROOT


def reference_entry(workload, seed, work) -> dict:
    text = wl.make_input(workload, seed, workload.size)
    input_path = None
    if text is not None:
        input_path = os.path.join(work, "input.csv")
        with open(input_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    out = os.path.join(work, "out.csv")
    argv = workload.argv(input_path, out, seed, workload.size)
    done = subprocess.run([sys.executable, "-c", CLI] + argv, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    doc = wl.parse_document(done.stdout)
    with open(out, encoding="utf-8") as fh:
        csv_text = fh.read()
    if workload.command == "simulate":
        return {"input_sha256": None, "csv": csv_text}
    _, values = wl.read_curve(out)
    return {"input_sha256": wl.sha256(text),
            "h": doc["resolved_config"]["bandwidth"]["value"],
            "values": wl.encode_curve(values)}


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"reference-{os.getpid()}-{time.time_ns()}")
    os.mkdir(work)
    try:
        for workload in wl.WORKLOADS.values():
            path = os.path.join(wl.REFERENCE_DIR, f"{workload.name}.json")
            table = {}
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    table = json.load(fh)
            for seed in seeds:
                table[str(seed)] = reference_entry(workload, seed, work)
                print(f"{workload.name} seed {seed} recorded", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                          fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
