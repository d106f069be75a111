"""Workload definitions: seeded inputs, CLI arguments and output checks.

Inputs are drawn with plain numpy from the benchmark seed, never through
ftcdf.distributions, so a change to the package cannot change its own
inputs.  The program receives only the generated files (and, for the
study, the seed on its command line).
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Largest allowed difference from a stored reference curve.  Switching
# OpenBLAS between 1 and 2 threads moves curve cells by up to 6.7e-16;
# the kernel tables are certified to 1e-8.
CURVE_TOL = 1e-12

STUDY_HEADER = "estimator,t,n,mse,bias,var,se,reps"
STUDY_LABELS = 7  # edf plus three smoothed estimators and their +raw twins


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # ftcdf subcommand
    size: int               # n of the input sample, or study replications
    smoke_size: int         # same code path at a size for the self-test
    setup_specs: tuple      # kernel tables the command builds
    why: str

    def argv(self, input_path, output_path, seed, size, workers=2):
        """ftcdf arguments of one operation."""
        if self.command == "estimate":
            return ["estimate", "--input", input_path, "--kernel", "trapezoid",
                    "--c", "0.75", "--bandwidth", "auto", "--standardize",
                    "--grid", "-5:5:1025", "--output", output_path]
        if self.command == "survival":
            return ["survival", "--input", input_path, "--kernel", "smooth",
                    "--boundary", "0", "--bandwidth", "auto", "--standardize",
                    "--grid", "0:4:201", "--output", output_path]
        return ["simulate", "--scenario", "normal-iid", "--n", "15,30",
                "--reps", str(size), "--workers", str(workers),
                "--seed", str(seed_key(seed)), "--output", output_path]


# FlatTopSpec arguments of the kernel tables each command builds
TRAPEZOID_SPEC = {"family": "trapezoid", "c": 0.75}
SMOOTH_SPEC = {"family": "smooth", "c": 0.05, "b": 1.0}
SMOOTH_STUDY_SPEC = {"family": "smooth", "c": 0.05, "b": 1.0,
                     "effective_c": 0.5}

WORKLOADS = {w.name: w for w in (
    Workload("estimate-large", "estimate", 100_000, 2_000,
             (TRAPEZOID_SPEC,),
             "large iid fit: the ECF threshold scan and the n x m kernel "
             "sum dominate; no Kaplan-Meier, no CV, cheap table"),
    Workload("survival-censored", "survival", 20_000, 1_000,
             (SMOOTH_SPEC,),
             "censored fit: two exact Kaplan-Meier passes and the smooth "
             "table build dominate; the kernel sum is small"),
    Workload("study-pool", "simulate", 400, 8,
             (TRAPEZOID_SPEC, SMOOTH_STUDY_SPEC),
             "thousands of tiny fits in a 2-worker pool: Gaussian CV and "
             "per-worker table builds dominate; per-call overhead bound"),
)}


def seed_key(seed: int) -> int:
    return seed % (1 << 32)


def make_input(workload: Workload, seed: int, size: int):
    """CSV text of the workload's input sample, or None for the study."""
    key = [seed_key(seed), 1 if workload.command == "estimate" else 2]
    rng = np.random.default_rng(key)
    if workload.command == "estimate":
        x = rng.standard_normal(size)
        return "time\n" + "\n".join(map(repr, x.tolist())) + "\n"
    if workload.command == "survival":
        # lifetimes Weibull(shape 3, scale 1.5), censoring Weibull(4, 3):
        # about 7% of the observations are censored
        life = 1.5 * rng.weibull(3.0, size)
        cens = 3.0 * rng.weibull(4.0, size)
        times = np.minimum(life, cens).tolist()
        events = (life <= cens).tolist()
        rows = (f"{t!r},{int(e)}" for t, e in zip(times, events))
        return "time,event\n" + "\n".join(rows) + "\n"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(workload: Workload, seed: int):
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def encode_curve(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_curve(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), "<f8")


def parse_document(stdout: str) -> dict:
    """The single JSON document a successful command prints."""
    doc, end = json.JSONDecoder().raw_decode(stdout.lstrip())
    if stdout.lstrip()[end:].strip():
        raise ValueError("stdout holds more than one JSON document")
    if not isinstance(doc, dict):
        raise ValueError("stdout document is not an object")
    return doc


def read_curve(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,value":
        raise ValueError("curve CSV header is not 't,value'")
    rows = np.array([[float(f) for f in ln.split(",")] for ln in lines[1:]])
    return rows[:, 0], rows[:, 1]


def _true_curve(command: str, t: np.ndarray) -> np.ndarray:
    if command == "estimate":
        return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in t])
    return np.exp(-(np.clip(t, 0.0, None) / 1.5) ** 3)


def check_curve(workload: Workload, doc: dict, output_path: str,
                n: int, reference) -> list:
    """Errors in an estimate/survival result; empty when it passes."""
    errors = []
    if doc.get("command") != workload.command:
        errors.append(f"command echoed as {doc.get('command')!r}")
    if doc.get("n") != n:
        errors.append(f"n echoed as {doc.get('n')!r}, expected {n}")
    h = doc.get("resolved_config", {}).get("bandwidth", {}).get("value")
    if not isinstance(h, float) or not math.isfinite(h) or h <= 0.0:
        return errors + [f"bandwidth {h!r} is not a positive number"]
    t, v = read_curve(output_path)
    lo, hi, count = (-5.0, 5.0, 1025) if workload.command == "estimate" \
        else (0.0, 4.0, 201)
    if t.size != count or not np.array_equal(t, np.linspace(lo, hi, count)):
        return errors + ["curve grid differs from the requested grid"]
    if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
        errors.append("standardized curve leaves [0, 1]")
    steps = np.diff(v) if workload.command == "estimate" else -np.diff(v)
    if np.any(steps < 0.0):
        errors.append("standardized curve is not monotone")
    # sanity against the sampling law: 3/sqrt(n) exceeds the DKW bound
    # with probability below 1e-7, plus room for censoring and smoothing
    gap = float(np.max(np.abs(v - _true_curve(workload.command, t))))
    if gap > 4.0 / math.sqrt(n) + 0.01:
        errors.append(f"curve is {gap:.3g} away from the sampling law")
    if reference is not None:
        if h != reference["h"]:
            errors.append(f"bandwidth {h!r} differs from reference "
                          f"{reference['h']!r}")
        diff = float(np.max(np.abs(v - decode_curve(reference["values"]))))
        if diff > CURVE_TOL:
            errors.append(f"curve differs from reference by {diff:.3g} "
                          f"> {CURVE_TOL:g}")
    return errors


def check_study(doc: dict, csv_text: str, reps: int, reference) -> list:
    """Errors in a simulate result; empty when it passes."""
    errors = []
    if doc.get("command") != "simulate":
        errors.append(f"command echoed as {doc.get('command')!r}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != STUDY_HEADER:
        return errors + ["study CSV header differs"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != STUDY_LABELS * 3 * 2:
        errors.append(f"study CSV has {len(rows)} cells, expected "
                      f"{STUDY_LABELS * 3 * 2}")
    for r in rows:
        if len(r) != 8 or int(r[7]) != reps or not float(r[3]) >= 0.0:
            errors.append(f"bad study cell {','.join(r)!r}")
            break
    if reference is not None and csv_text != reference["csv"]:
        errors.append("study CSV is not byte-identical to the reference")
    return errors
