"""Seeded Monte Carlo studies of the estimators.

run_scenario draws replications, fits each requested estimator with its
own bandwidth rule, evaluates at the scenario's points, and aggregates
MSE, bias, and variance per cell.  Every replication is a pure function
of (seed, replication index, purpose, attempt) through counter-based
RNG streams, so reports are bitwise-identical for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import (BandwidthRule, NoPlateauError, auto_bandwidth,
                        cv_bandwidth_km, default_cv_grid, default_rule)
from .distributions import (DistSpec, dist_cdf, dist_survival, polya_cdf,
                            sample_distribution)
from .estimators import (CensoredSample, DegenerateSampleError,
                         EstimatorConfig, evaluate_on_grid, smoothed_paths)
from .kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                      get_table)
from .survival import jump_measure

CDF = "cdf"
SURVIVAL = "survival"

ESTIMATORS = ("edf", "gauss-cv", "trap-auto", "smooth-auto")
RAW_SUFFIX = "+raw"

TRAP_SPEC = FlatTopSpec(TRAPEZOID, c=0.75)
SMOOTH_SPEC = FlatTopSpec(SMOOTH, b=1.0, c=0.05, effective_c=0.5)

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
        if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("eval_points must be nonempty and strictly "
                             "ascending")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("sample_sizes must be positive")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.estimand not in (CDF, SURVIVAL):
            raise ValueError(f"unknown estimand {self.estimand!r}")
        if self.censor_dist is not None and self.estimand != SURVIVAL:
            raise ValueError("censored scenarios report the survival "
                             "function")
        object.__setattr__(self, "eval_points", pts)
        object.__setattr__(self, "sample_sizes", sizes)

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
            replications=int(payload["replications"]),
            seed=int(payload["seed"]),
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


def _stream(seed: int, rep: int, purpose: int,
            attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(rep, purpose, attempt))
    return np.random.Generator(np.random.Philox(ss))


def _kernel_for(estimator: str):
    if estimator == "gauss-cv":
        return GaussianKernel()
    if estimator == "trap-auto":
        return get_table(TRAP_SPEC)
    if estimator == "smooth-auto":
        return get_table(SMOOTH_SPEC)
    raise ValueError(f"unknown estimator {estimator!r}")


def _select_bandwidth(estimator: str, sample: CensoredSample) -> float:
    if estimator == "gauss-cv":
        return cv_bandwidth_km(sample, default_cv_grid(sample))
    effective_c = TRAP_SPEC.effective_c if estimator == "trap-auto" \
        else SMOOTH_SPEC.effective_c
    C = _STUDY_THRESHOLD_C if np.all(sample.event) \
        else _STUDY_THRESHOLD_C_CENSORED
    rule = default_rule(sample.n, effective_c)
    rule = BandwidthRule(C, rule.epsilon, effective_c)
    return auto_bandwidth(sample, effective_c, rule=rule)


def _replicate(scenario: Scenario, estimators, n: int, rep: int):
    """One replication: (values[e, p, variant], attempts used)."""
    pts = np.asarray(scenario.eval_points)
    survival = scenario.estimand == SURVIVAL
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
            for e, name in enumerate(estimators):
                if name == "edf":
                    step = jump_measure(sample)
                    v = step.survival(pts) if survival else step.cdf(pts)
                    vals[e, :, 0] = vals[e, :, 1] = v
                    continue
                h = _select_bandwidth(name, sample)
                cfg = EstimatorConfig(_kernel_for(name), h,
                                      boundary=scenario.boundary)
                raw, std = smoothed_paths(sample, cfg, pts, jump_measure,
                                          survival)
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


def _run_replication(args):
    scenario, estimators, n, rep = args
    vals, attempt = _replicate(scenario, estimators, n, rep)
    return rep, vals, attempt


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
    """
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; "
                             f"choose from {ESTIMATORS}")
    pts = np.asarray(scenario.eval_points)
    truth = _truth(scenario, pts)
    reps = scenario.replications
    cells = []
    retries = []
    for n in scenario.sample_sizes:
        values = np.empty((reps, len(estimators), pts.size, 2))
        attempts = np.zeros(reps, dtype=int)
        tasks = [(scenario, estimators, n, rep) for rep in range(reps)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for rep, vals, att in pool.map(
                        _run_replication, tasks,
                        chunksize=max(1, reps // (workers * 8))):
                    values[rep] = vals
                    attempts[rep] = att
        else:
            for task in tasks:
                rep, vals, att = _run_replication(task)
                values[rep] = vals
                attempts[rep] = att
        retries.append((n, int(attempts.sum())))
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
                     reps, tuple(cells), tuple(retries))


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

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "bandwidth": self.bandwidth,
            "seed": self.seed,
            "replications": self.replications,
            "insufficient_replications": self.insufficient_replications,
            "points": [{"t": p.t, "bias": p.bias, "se": p.se}
                       for p in self.points],
        }


def zero_bias_experiment(n: int, h: float, reps: int, seed: int,
                         eval_points=(0.0, 2.0, 5.0)) -> ZeroBiasReport:
    """Empirical bias of the fixed-h trapezoid estimator on band-limited
    data.

    The data law's characteristic function vanishes beyond 1, so for
    h <= effective_c the estimator is exactly unbiased; larger h serves
    as a control arm.  With one replication the standard error is
    undefined and the report says so.
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be positive")
    if not h > 0.0:
        raise ValueError("bandwidth must be positive")
    pts = np.asarray(sorted(float(t) for t in eval_points))
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
