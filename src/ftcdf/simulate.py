"""Seeded Monte Carlo studies of the estimators.

run_scenario draws replications, fits each requested estimator with its
own bandwidth rule, evaluates at the scenario's points, and aggregates
MSE, bias, and variance per cell.  Every replication is a pure function
of (seed, replication index, purpose, attempt) through counter-based
RNG streams, so reports are bitwise-identical for any worker count.
Every study runs numpy's OpenBLAS at one thread, in this process and in
each pool worker whatever the start method, and gives the caller's
setting back afterwards.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, replace
from itertools import product, repeat

import numpy as np

from .bandwidth import (NoPlateauError, cv_bandwidth_km, default_cv_grid,
                        default_freq_grid, default_rule, ecf,
                        select_bandwidth)
from ._special import load as load_special
from .blas import _blas_libraries, _one_blas_thread
from .distributions import (DistSpec, dist_cdf, dist_survival,
                            sample_distribution)
from .estimators import (CensoredSample, DegenerateSampleError,
                         EstimatorConfig, smoothed_paths)
from .kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                      get_table)

CDF = "cdf"
SURVIVAL = "survival"

ESTIMATORS = ("edf", "gauss-cv", "trap-auto", "smooth-auto")
RAW_SUFFIX = "+raw"

_FLAT_TOP = {"trap-auto": FlatTopSpec(TRAPEZOID),
             "smooth-auto": FlatTopSpec(SMOOTH)}

# threshold constant for the flat-top rules inside iid simulation
# studies.  They need a lower cutoff than the module default or the
# rule fires before the characteristic function has decayed into its
# noise floor; the Kaplan-Meier ECF sits on a higher floor, and a low
# threshold there stalls the window search far past the spectrum edge
# (producing severely undersmoothed stragglers), so censored studies
# keep the default.
_STUDY_THRESHOLD_C = 1.4

_PURPOSE_LIFETIME = 0
_PURPOSE_CENSOR = 1
_MAX_ATTEMPTS = 100
# largest sample size and replication count a Scenario accepts, checked
# before anything is drawn or allocated
MAX_SAMPLE_SIZE = 1_000_000
MAX_REPLICATIONS = 100_000

def _whole(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int in [lo, hi]: an integer that is not a bool,
    or a float with an integral value (so 1e3 is 1000); anything else is
    refused."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    n = int(value)
    if n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} must be at most {hi}, got {n}")
    return n


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
        for t in self.eval_points:
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise ValueError(f"eval_points must be real numbers, "
                                 f"got {t!r}")
        pts = tuple(float(t) for t in self.eval_points)
        if not all(map(math.isfinite, pts)):
            raise ValueError("eval_points must be finite")
        if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("eval_points must be nonempty and strictly "
                             "ascending")
        b = self.boundary
        if b is not None and (isinstance(b, bool) or not isinstance(
                b, numbers.Real) or not math.isfinite(b)):
            raise ValueError(f"boundary must be a finite real number, "
                             f"got {b!r}")
        sizes = tuple(_whole(n, "sample_sizes", 1, MAX_SAMPLE_SIZE)
                      for n in self.sample_sizes)
        if not sizes:
            raise ValueError("sample_sizes must be nonempty")
        for k, n in enumerate(sizes):
            if n in sizes[:k]:
                raise ValueError(f"sample size {n} is named twice")
        reps = _whole(self.replications, "replications", 1, MAX_REPLICATIONS)
        seed = _whole(self.seed, "seed", 0)
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
class MseReport:
    scenario: str
    estimand: str
    seed: int
    replications: int
    cells: tuple
    retries: tuple  # ((n, retry count), ...) in sample-size order
    # how the study ran BLAS, as diagnostics.blas prints it; not part of
    # the report's values
    blas: dict = field(compare=False)

    CSV_HEADER = "estimator,t,n,mse,bias,var,se,reps"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for c in self.cells:
            se = "" if c.se is None else repr(c.se)
            lines.append(f"{c.estimator},{c.t!r},{c.n},{c.mse!r},"
                         f"{c.bias!r},{c.variance!r},{se},{c.reps}")
        return "\n".join(lines) + "\n"


def _process_pool(**kwargs):
    """A ProcessPoolExecutor(**kwargs).  concurrent.futures, and through
    it multiprocessing, loads here, when a study first opens a pool, not
    with this module: a command that opens none never loads them."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(**kwargs)


def _pool_worker_init():
    """Pool initializer: numpy's OpenBLAS in the worker at one thread.

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


def _fit(estimator: str, sample: CensoredSample, curve,
         boundary) -> EstimatorConfig:
    """Kernel and bandwidth of one smoothed arm; flat-top arms read the
    ECF curve."""
    if estimator == "gauss-cv":
        h = cv_bandwidth_km(sample, default_cv_grid(sample))
        return EstimatorConfig(GaussianKernel(), h, boundary=boundary)
    spec = _FLAT_TOP[estimator]
    rule = default_rule(sample.n, spec.effective_c)
    if np.all(sample.event):
        rule = replace(rule, C=_STUDY_THRESHOLD_C)
    h = select_bandwidth(curve, rule)
    return EstimatorConfig(get_table(spec), h, boundary=boundary)


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
                cfg = _fit(name, sample, curve, scenario.boundary)
                raw, std = smoothed_paths(sample, cfg, pts, survival)
                vals[e, :, 0] = raw
                vals[e, :, 1] = std
        except (NoPlateauError, DegenerateSampleError) as exc:
            # bandwidth selection failed or the draw has too few events;
            # retry the whole replication on a fresh substream
            last = exc
            continue
        return vals, attempt
    raise ValueError(f"replication {rep} failed {_MAX_ATTEMPTS} times; "
                     f"the last attempt raised {type(last).__name__}: "
                     f"{last}") from last


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
    fresh substreams and counted in `retries`; a replication that fails
    _MAX_ATTEMPTS times raises ValueError naming its last error, and
    any other error propagates.  An unknown or repeated estimator name
    is refused before anything is drawn.

    The replications of every sample size form one task list.  It runs
    in this process when one process suffices, else in one pool of
    min(workers, tasks, CPUs) processes opened once for the study.
    Either way numpy's OpenBLAS runs at one thread, so results do not
    depend on the thread count, and the caller's setting is restored
    afterwards.  scipy.special, which a study's draws and fits may
    call, is imported once before the pool opens, so that forked
    workers inherit it instead of each importing their own copy.
    """
    for k, name in enumerate(estimators):
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; "
                             f"choose from {ESTIMATORS}")
        if name in estimators[:k]:
            raise ValueError(f"estimator {name!r} is named twice")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pts = np.asarray(scenario.eval_points)
    truth = _truth(scenario, pts)
    reps = scenario.replications
    sizes = scenario.sample_sizes
    tasks = list(product(sizes, range(reps)))
    args = (repeat(scenario), repeat(estimators), *zip(*tasks))
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    load_special()
    with _one_blas_thread() as blas:
        if procs == 1:
            results = list(map(_replicate, *args))
        else:
            with _process_pool(max_workers=procs,
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
