"""Seeded Monte Carlo studies of the estimators.

run_scenario draws replications, fits each requested estimator with its
own bandwidth rule, evaluates at the scenario's points, and aggregates
MSE, bias, and variance per cell.  Every replication is a pure function
of (seed, replication index, purpose, attempt) through counter-based
RNG streams, so reports are bitwise-identical for any worker count.
Every study runs OpenBLAS at one thread, in this process and in each
pool worker whatever the start method, and gives the caller's setting
back afterwards.
"""
from __future__ import annotations

import ctypes
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import product, repeat

import numpy as np

from .bandwidth import (NoPlateauError, cv_bandwidth_km, default_cv_grid,
                        default_freq_grid, default_rule, ecf,
                        select_bandwidth)
from .distributions import (DistSpec, dist_cdf, dist_survival, polya_cdf,
                            sample_distribution)
from .estimators import (CensoredSample, DegenerateSampleError,
                         EstimatorConfig, evaluate_on_grid, smoothed_paths)
from .kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                      get_table)

CDF = "cdf"
SURVIVAL = "survival"

ESTIMATORS = ("edf", "gauss-cv", "trap-auto", "smooth-auto")
RAW_SUFFIX = "+raw"

TRAP_SPEC = FlatTopSpec(TRAPEZOID)
SMOOTH_SPEC = FlatTopSpec(SMOOTH)
_FLAT_TOP = {"trap-auto": TRAP_SPEC, "smooth-auto": SMOOTH_SPEC}

# threshold constants for the flat-top rules inside simulation studies.
# The iid studies need a lower cutoff than the module default or the
# rule fires before the characteristic function has decayed into its
# noise floor; the Kaplan-Meier ECF sits on a higher floor, and a low
# threshold there stalls the window search far past the spectrum edge
# (producing severely undersmoothed stragglers), so censored studies
# keep the default.
_STUDY_THRESHOLD_C = 1.4
_STUDY_THRESHOLD_C_CENSORED = 2.0

_PURPOSE_LIFETIME = 0
_PURPOSE_CENSOR = 1
_MAX_ATTEMPTS = 100
_ZERO_BIAS_POINTS = (0.0, 2.0, 5.0)

# (getter, setter) names of the thread count in the OpenBLAS builds
# numpy and scipy bundle (64-bit and 32-bit integer interfaces) and in a
# plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _whole(value, name: str) -> int:
    """value as a Python int: an integer that is not a bool, or a float
    with an integral value (so 1e3 is 1000); anything else is refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo study: data law, evaluation points, sizes, seed."""
    name: str
    lifetime_dist: DistSpec
    censor_dist: DistSpec | None
    eval_points: tuple
    sample_sizes: tuple
    replications: int
    seed: int
    estimand: str = CDF
    boundary: float | None = None

    def __post_init__(self):
        pts = tuple(float(t) for t in self.eval_points)
        if not all(map(math.isfinite, pts)):
            raise ValueError("eval_points must be finite")
        if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("eval_points must be nonempty and strictly "
                             "ascending")
        if self.boundary is not None and not math.isfinite(self.boundary):
            raise ValueError("boundary must be finite")
        sizes = tuple(_whole(n, "sample_sizes") for n in self.sample_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("sample_sizes must be positive")
        reps = _whole(self.replications, "replications")
        if reps < 1:
            raise ValueError("replications must be >= 1")
        seed = _whole(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if self.estimand not in (CDF, SURVIVAL):
            raise ValueError(f"unknown estimand {self.estimand!r}")
        if self.censor_dist is not None and self.estimand != SURVIVAL:
            raise ValueError("censored scenarios report the survival "
                             "function")
        object.__setattr__(self, "eval_points", pts)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "replications", reps)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lifetime_dist": self.lifetime_dist.to_dict(),
            "censor_dist": (None if self.censor_dist is None
                            else self.censor_dist.to_dict()),
            "eval_points": list(self.eval_points),
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "seed": self.seed,
            "estimand": self.estimand,
            "boundary": self.boundary,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        censor = payload.get("censor_dist")
        return cls(
            name=payload["name"],
            lifetime_dist=DistSpec.from_dict(payload["lifetime_dist"]),
            censor_dist=None if censor is None else DistSpec.from_dict(censor),
            eval_points=tuple(payload["eval_points"]),
            sample_sizes=tuple(payload["sample_sizes"]),
            replications=payload["replications"],
            seed=payload["seed"],
            estimand=payload.get("estimand", CDF),
            boundary=payload.get("boundary"),
        )


BUILTIN_SCENARIOS = ("normal-iid", "weibull-censored", "polya-bandlimited")


def builtin_scenario(name: str, *, seed: int = 2026,
                     replications: int = 1000,
                     sample_sizes=(15, 30)) -> Scenario:
    """The three canonical studies with overridable seed/reps/sizes."""
    if name == "normal-iid":
        return Scenario(name, DistSpec("normal"), None, (-1.5, 0.0, 1.5),
                        sample_sizes, replications, seed)
    if name == "weibull-censored":
        return Scenario(name, DistSpec("weibull", 3.0, 1.5),
                        DistSpec("weibull", 4.0, 3.0), (0.75, 1.25, 1.75),
                        sample_sizes, replications, seed,
                        estimand=SURVIVAL, boundary=0.0)
    if name == "polya-bandlimited":
        return Scenario(name, DistSpec("polya"), None, (0.0, 2.0, 5.0),
                        sample_sizes, replications, seed)
    raise ValueError(f"unknown scenario {name!r}; "
                     f"pick one of {BUILTIN_SCENARIOS}")


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (estimator, evaluation point, sample size)."""
    estimator: str
    t: float
    n: int
    mse: float
    bias: float
    variance: float
    se: float | None
    reps: int


@dataclass(frozen=True)
class BlasSetting:
    """The OpenBLAS libraries a study found and the thread counts it saw.

    caller_threads lines up with libraries; study_threads is 1, or None
    when no library was found and the study left BLAS as it was.
    """
    libraries: tuple = ()
    caller_threads: tuple = ()

    @property
    def study_threads(self) -> int | None:
        return 1 if self.libraries else None

    def to_dict(self) -> dict:
        return {"libraries": list(self.libraries),
                "caller_threads": list(self.caller_threads),
                "study_threads": self.study_threads}


@dataclass(frozen=True)
class MseReport:
    scenario: str
    estimand: str
    seed: int
    replications: int
    cells: tuple
    retries: tuple  # ((n, retry count), ...) in sample-size order
    # how the study ran BLAS; not part of the report's values
    blas: BlasSetting = field(default=BlasSetting(), compare=False)

    CSV_HEADER = "estimator,t,n,mse,bias,var,se,reps"

    def cell(self, estimator: str, t: float, n: int) -> CellStats:
        for c in self.cells:
            if c.estimator == estimator and c.t == t and c.n == n:
                return c
        raise KeyError(f"no cell ({estimator}, {t}, {n})")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for c in self.cells:
            se = "" if c.se is None else repr(c.se)
            lines.append(f"{c.estimator},{c.t!r},{c.n},{c.mse!r},"
                         f"{c.bias!r},{c.variance!r},{se},{c.reps}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "scenario": self.scenario,
            "estimand": self.estimand,
            "seed": self.seed,
            "replications": self.replications,
            "retries": [list(r) for r in self.retries],
            "cells": [{
                "estimator": c.estimator, "t": c.t, "n": c.n,
                "mse": c.mse, "bias": c.bias, "variance": c.variance,
                "se": c.se, "reps": c.reps,
            } for c in self.cells],
        }


def _loaded_openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)  # the 6th is the path
                if (len(fields) == 6 and "openblas" in
                        os.path.basename(fields[5]).lower()):
                    paths.add(fields[5].rstrip("\n"))
    except OSError:
        return []
    return sorted(paths)


def _blas_controls(lib):
    """(get, set) thread-count functions of a loaded library, or None."""
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            get.argtypes = ()
            set_.restype = None
            set_.argtypes = (ctypes.c_int,)
            return get, set_
    return None


def _blas_libraries() -> list:
    """(basename, get, set) for each loaded OpenBLAS with a thread knob."""
    found = []
    for path in _loaded_openblas_paths():
        try:
            controls = _blas_controls(ctypes.CDLL(path))
        except OSError:
            continue
        if controls is not None:
            found.append((os.path.basename(path), *controls))
    return found


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Pool workers set their own in _pool_worker_init.  Yields the
    BlasSetting; the caller's thread counts come back on every way out.
    Does nothing when no OpenBLAS is found.
    """
    libs = _blas_libraries()
    saved = tuple(get() for _, get, _ in libs)
    for _, _, set_ in libs:
        set_(1)
    try:
        yield BlasSetting(tuple(name for name, _, _ in libs), saved)
    finally:
        for (_, _, set_), threads in zip(libs, saved):
            set_(threads)


def _pool_worker_init():
    """Pool initializer: every OpenBLAS loaded in the worker at one thread.

    A worker inherits the parent's setting only when forked; this holds
    under spawn and forkserver too.  The worker exits with the pool, so
    nothing is restored.  A forked worker already reads 1 and is left
    alone: setting the count after a fork restarts OpenBLAS's thread
    pool, whose idle threads would spin for nothing.
    """
    for _, get, set_ in _blas_libraries():
        if get() != 1:
            set_(1)


def _stream(seed: int, rep: int, purpose: int,
            attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(rep, purpose, attempt))
    return np.random.Generator(np.random.Philox(ss))


def _kernel_for(estimator: str):
    if estimator == "gauss-cv":
        return GaussianKernel()
    if estimator in _FLAT_TOP:
        return get_table(_FLAT_TOP[estimator])
    raise ValueError(f"unknown estimator {estimator!r}")


def _select_bandwidth(estimator: str, sample: CensoredSample, curve) -> float:
    """Bandwidth of one smoothed arm; flat-top arms read the ECF curve."""
    if estimator == "gauss-cv":
        return cv_bandwidth_km(sample, default_cv_grid(sample))
    effective_c = _FLAT_TOP[estimator].effective_c
    C = _STUDY_THRESHOLD_C if np.all(sample.event) \
        else _STUDY_THRESHOLD_C_CENSORED
    rule = replace(default_rule(sample.n, effective_c), C=C)
    return select_bandwidth(curve, rule)


def _replicate(scenario: Scenario, estimators, n: int, rep: int):
    """One replication: (values[e, p, variant], attempts used)."""
    pts = np.asarray(scenario.eval_points)
    survival = scenario.estimand == SURVIVAL
    flat_top = any(name in _FLAT_TOP for name in estimators)
    for attempt in range(_MAX_ATTEMPTS):
        rng = _stream(scenario.seed, rep, _PURPOSE_LIFETIME, attempt)
        life = sample_distribution(scenario.lifetime_dist, n, rng)
        if scenario.censor_dist is not None:
            rng_c = _stream(scenario.seed, rep, _PURPOSE_CENSOR, attempt)
            cens = sample_distribution(scenario.censor_dist, n, rng_c)
            sample = CensoredSample(np.minimum(life, cens), life <= cens)
        else:
            sample = CensoredSample.uncensored(life)
        vals = np.empty((len(estimators), pts.size, 2))
        try:
            curve = (ecf(sample, default_freq_grid(sample)) if flat_top
                     else None)
            for e, name in enumerate(estimators):
                if name == "edf":
                    step = sample.jumps
                    v = step.survival(pts) if survival else step.cdf(pts)
                    vals[e, :, 0] = vals[e, :, 1] = v
                    continue
                h = _select_bandwidth(name, sample, curve)
                cfg = EstimatorConfig(_kernel_for(name), h,
                                      boundary=scenario.boundary)
                raw, std = smoothed_paths(sample, cfg, pts, survival)
                vals[e, :, 0] = raw
                vals[e, :, 1] = std
        except (NoPlateauError, DegenerateSampleError):
            # bandwidth selection failed or the draw has too few events;
            # retry the whole replication on a fresh substream
            continue
        return vals, attempt
    raise RuntimeError(f"replication {rep} failed {_MAX_ATTEMPTS} times; "
                       "the frequency grid likely never crosses the "
                       "threshold for this data law")


def _truth(scenario: Scenario, pts: np.ndarray) -> np.ndarray:
    if scenario.estimand == SURVIVAL:
        return np.asarray(dist_survival(scenario.lifetime_dist, pts))
    return np.asarray(dist_cdf(scenario.lifetime_dist, pts))


def run_scenario(scenario: Scenario, estimators=ESTIMATORS,
                 workers: int = 1) -> MseReport:
    """Run the full study; deterministic given scenario, any workers.

    Each smoothed cell appears twice: under the plain estimator name
    (the standardized estimate, running sup clipped to [0, 1], which is
    the estimator as defined) and with a "+raw" suffix (the unshaped
    kernel sum, kept as a diagnostic).  Replications whose bandwidth
    selection fails, or whose draw has too few events, are retried on
    fresh substreams and counted in `retries`; any other error
    propagates.

    The replications of every sample size form one task list.  It runs
    in this process when one process suffices, else in one pool of
    min(workers, tasks, CPUs) processes opened once for the study.
    Either way OpenBLAS runs at one thread, so results do not depend on
    the thread count, and the caller's setting is restored afterwards.
    """
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; "
                             f"choose from {ESTIMATORS}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pts = np.asarray(scenario.eval_points)
    truth = _truth(scenario, pts)
    reps = scenario.replications
    sizes = scenario.sample_sizes
    tasks = list(product(sizes, range(reps)))
    args = (repeat(scenario), repeat(estimators), *zip(*tasks))
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    with _one_blas_thread() as blas:
        if procs == 1:
            results = list(map(_replicate, *args))
        else:
            with ProcessPoolExecutor(max_workers=procs,
                                     initializer=_pool_worker_init) as pool:
                results = list(pool.map(
                    _replicate, *args,
                    chunksize=max(1, reps // (procs * 8))))
    vals, attempts = zip(*results)
    by_size = zip(sizes, np.reshape(vals, (len(sizes), reps) + vals[0].shape),
                  np.reshape(attempts, (len(sizes), reps)))
    cells = []
    retries = []
    for n, values, tries in by_size:
        retries.append((n, int(tries.sum())))
        for e, name in enumerate(estimators):
            variants = [(1, name)]
            if name != "edf":
                variants.append((0, name + RAW_SUFFIX))
            for variant, label in variants:
                for p in range(pts.size):
                    err = values[:, e, p, variant] - truth[p]
                    bias = float(np.mean(err))
                    mse = float(np.mean(err ** 2))
                    variance = float(np.mean((err - bias) ** 2))
                    se = (float(np.std(err ** 2, ddof=1) / np.sqrt(reps))
                          if reps > 1 else None)
                    cells.append(CellStats(label, float(pts[p]), int(n),
                                           mse, bias, variance, se, reps))
    return MseReport(scenario.name, scenario.estimand, scenario.seed,
                     reps, tuple(cells), tuple(retries), blas)


@dataclass(frozen=True)
class ZeroBiasPoint:
    t: float
    bias: float
    se: float | None


@dataclass(frozen=True)
class ZeroBiasReport:
    n: int
    bandwidth: float
    seed: int
    replications: int
    insufficient_replications: bool
    points: tuple


def zero_bias_experiment(n: int, h: float, reps: int,
                         seed: int) -> ZeroBiasReport:
    """Empirical bias of the fixed-h trapezoid estimator on band-limited
    data, at t = 0, 2 and 5.

    The data law's characteristic function vanishes beyond 1, so for
    h <= effective_c the estimator is exactly unbiased; larger h serves
    as a control arm.  With one replication the standard error is
    undefined and the report says so.
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be positive")
    pts = np.asarray(_ZERO_BIAS_POINTS)
    cfg = EstimatorConfig(get_table(TRAP_SPEC), h)
    truth = polya_cdf(pts)
    errors = np.empty((reps, pts.size))
    for rep in range(reps):
        rng = _stream(seed, rep, _PURPOSE_LIFETIME, 0)
        sample = CensoredSample.uncensored(
            sample_distribution(DistSpec("polya"), n, rng))
        errors[rep] = evaluate_on_grid(sample, cfg, pts) - truth
    insufficient = reps < 2
    points = []
    for p in range(pts.size):
        se = None if insufficient else \
            float(np.std(errors[:, p], ddof=1) / np.sqrt(reps))
        points.append(ZeroBiasPoint(float(pts[p]),
                                    float(np.mean(errors[:, p])), se))
    return ZeroBiasReport(n, h, seed, reps, insufficient, tuple(points))
