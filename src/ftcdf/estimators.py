"""Empirical and kernel-smoothed CDF and survival estimation.

Estimators operate on a CensoredSample and are configured with a kernel
table, a bandwidth and an optional left support boundary (handled by
reflection).  Every estimator smooths the sample's one jump measure,
sample.jumps (EDF or Kaplan-Meier), which is computed on first use and
cached on the sample.  Each value has one route:

* evaluate_on_grid and smoothed_survival_on_grid give raw values on an
  ascending grid;
* standardize_path turns such a raw grid path into a valid CDF (or
  survival) path: running sup (inf for survival), clipped to [0, 1];
* smoothed_paths gives raw and path-standardized values at points, the
  latter standardized over a fine path that starts below the data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# keep grid-by-sample evaluation blocks at ~1M entries
_BLOCK = 1 << 20
# how far below the smallest observation a standardized point path starts,
# in bandwidth units; kernel oscillation beyond this is ~1e-4 and below
# Monte Carlo resolution
_PATH_WINDOW = 256.0
_PATH_POINTS = 1025
# bits of the fixed-point bounds on the Kaplan-Meier survival product;
# far more than a height's 53, so the exact fallback almost never runs
_KM_BITS = 160


class DegenerateSampleError(ValueError):
    """The sample carries too few events for the requested estimate."""


@dataclass(frozen=True)
class CensoredSample:
    """Observed times with event flags, stored as read-only copies;
    all-true flags encode iid data."""
    times: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        event = np.array(self.event, dtype=bool)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1d array")
        if event.shape != times.shape:
            raise ValueError("event flags must match times in length")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        times.flags.writeable = event.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "event", event)

    @classmethod
    def uncensored(cls, times) -> "CensoredSample":
        return cls(times, np.ones(np.shape(times), dtype=bool))

    @property
    def n(self) -> int:
        return self.times.size

    @cached_property
    def jumps(self) -> "StepEstimate":
        """The estimators' jump measure, computed once: the EDF when every
        event is observed (bitwise equal to, and cheaper than, KM), else KM."""
        return edf(self) if np.all(self.event) else kaplan_meier(self)


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth and left boundary of the smoothed estimators.

    kernel must expose kbar(x) (vectorized integrated kernel) and a
    tail_cutoff; KernelTable and GaussianKernel both qualify.  Raw paths
    are made valid by standardize_path, or by smoothed_paths.
    """
    kernel: object
    bandwidth: float
    boundary: float | None = None

    def __post_init__(self):
        if not 0.0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and positive")
        if not hasattr(self.kernel, "kbar"):
            raise TypeError("kernel must provide a kbar() method")
        if self.boundary is not None:
            object.__setattr__(self, "boundary", float(self.boundary))


@dataclass(frozen=True)
class StepEstimate:
    """Jump measure of a step-function distribution estimate.

    locations are strictly ascending distinct values; heights are the
    positive masses, summing to 1 for an EDF and to <= 1 for Kaplan-Meier
    when the largest observation is censored.  Stored as read-only copies:
    a sample's cached measure is shared between fits.
    """
    locations: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        locs = np.array(self.locations, dtype=float)
        hts = np.array(self.heights, dtype=float)
        if locs.ndim != 1 or locs.shape != hts.shape or locs.size == 0:
            raise ValueError("locations/heights must be matching 1d arrays")
        if not np.all(np.diff(locs) > 0):
            raise ValueError("locations must be strictly ascending")
        if not np.all(hts > 0):
            raise ValueError("heights must be positive")
        if hts.sum() > 1.0 + 1e-12:
            raise ValueError("total jump mass exceeds 1")
        locs.flags.writeable = hts.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "heights", hts)

    @property
    def total_mass(self) -> float:
        return float(self.heights.sum())

    def cdf(self, t):
        """Step-function CDF value(s): sum of heights at locations <= t."""
        cum = np.concatenate([[0.0], np.cumsum(self.heights)])
        idx = np.searchsorted(self.locations, np.asarray(t, dtype=float),
                              side="right")
        out = cum[idx]
        return float(out) if np.ndim(t) == 0 else out

    def survival(self, t):
        return 1.0 - self.cdf(t)


def edf(sample: CensoredSample) -> StepEstimate:
    """Empirical distribution function as a jump measure (1/n per point)."""
    if not np.all(sample.event):
        raise ValueError("edf requires fully uncensored data")
    locs, counts = np.unique(sample.times, return_counts=True)
    return StepEstimate(locs, counts / sample.n)


def kaplan_meier(sample: CensoredSample) -> StepEstimate:
    """Jump measure of the Kaplan-Meier estimate, in linear time.

    Each height is the exact product-limit jump S_i * d_i / r_i rounded
    once to the nearest float, so that with zero censoring the heights
    are bitwise the EDF's d_i/n.  Fixed-point bounds on S_i give almost
    every height in constant time; an exact fallback gives the rest
    (_km_heights).  Ties: censorings at a time t stay in
    the risk set through events at t.  Returned heights are the drops of
    the survival curve (equally, jumps of 1 - S); total mass is below 1
    when the largest observation is censored.
    """
    if not np.any(sample.event):
        raise DegenerateSampleError("kaplan_meier needs at least one event")
    times = sample.times
    order = np.sort(times)
    event_times, d = np.unique(times[sample.event], return_counts=True)
    # at risk: every observation with time >= t_i
    at_risk = sample.n - np.searchsorted(order, event_times, side="left")
    return StepEstimate(event_times, _km_heights(d.tolist(),
                                                 at_risk.tolist()))


def _km_heights(deaths: list, at_risk: list) -> list:
    """Product-limit jumps S_i * d_i / r_i, each rounded once.

    lo and hi are fixed-point integers that bound the survival S_i just
    before the i-th event time: lo <= S_i * 2**_KM_BITS <= hi.
    Python's int true division is correctly rounded and rounding is
    monotone, so when the bounds round to one float the exact jump rounds
    to it too.  Otherwise the jump is recomputed exactly and the bounds
    restart from the exact S_i.  The exact product is carried forward
    from the previous fallback, so all fallbacks together do about the
    work of one exact pass.
    """
    bits = _KM_BITS
    one = 1 << bits
    lo = hi = one
    exact, known = Fraction(1), 0  # S at event index `known`, exactly
    heights = []
    for i, (d, r) in enumerate(zip(deaths, at_risk)):
        scale = r << bits
        height = d * lo / scale
        if height != d * hi / scale:
            exact = _exact_survival(deaths, at_risk, known, i, exact)
            known = i
            height = float(exact * Fraction(d, r))
            lo = math.floor(exact * one)
            hi = math.ceil(exact * one)
        heights.append(height)
        lo = lo * (r - d) // r
        hi = -(-hi * (r - d) // r)
    return heights


def _exact_survival(deaths: list, at_risk: list, start: int, stop: int,
                    surv: Fraction) -> Fraction:
    """S just before event index stop, from S = surv before index start."""
    kept = math.prod(r - d for d, r in zip(deaths[start:stop],
                                            at_risk[start:stop]))
    return surv * Fraction(kept, math.prod(at_risk[start:stop]))


def standardize_path(raw, decreasing: bool = False) -> np.ndarray:
    """Rectify raw grid values into a valid path, clipped to [0, 1]: the
    running max for a CDF, the running min for a survival curve."""
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw.copy()
    run = np.minimum if decreasing else np.maximum
    return np.clip(run.accumulate(raw), 0.0, 1.0)


def _kbar_sum(locations, weights, kernel, h, points) -> np.ndarray:
    """sum_j w_j * Kbar((t - x_j)/h) for each t, blockwise."""
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape, dtype=float)
    rows = max(1, _BLOCK // max(1, locations.size))
    for i in range(0, points.size, rows):
        blk = points[i:i + rows]
        args = (blk[:, None] - locations[None, :]) / h
        out[i:i + rows] = kernel.kbar(args) @ weights
    return out


def smoothed_measure_on_grid(locations, weights, cfg: EstimatorConfig,
                             grid) -> np.ndarray:
    """Smoothed CDF of an arbitrary jump measure, with boundary reflection.

    Below the boundary the estimate is exactly 0; at and above it the
    reflected mass is subtracted: F(t) - F(2a - t).
    """
    grid = np.asarray(grid, dtype=float)
    raw = _kbar_sum(locations, weights, cfg.kernel, cfg.bandwidth, grid)
    if cfg.boundary is not None:
        a = cfg.boundary
        refl = _kbar_sum(locations, weights, cfg.kernel, cfg.bandwidth,
                         2.0 * a - grid)
        raw = np.where(grid >= a, raw - refl, 0.0)
    return raw


def _path_on_grid(sample: CensoredSample, cfg: EstimatorConfig, grid,
                  survival: bool) -> np.ndarray:
    """Raw smoothed CDF (or survival) path of sample.jumps on an
    ascending grid.

    The survival path is the total jump mass minus the smoothed CDF, so
    the boundary correction enters through the CDF side.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return grid.copy()
    if grid.ndim != 1 or not np.all(np.diff(grid) >= 0):
        raise ValueError("grid must be 1d ascending")
    if cfg.boundary is not None and np.min(sample.times) < cfg.boundary:
        raise ValueError("observations fall below the stated boundary")
    if not (survival or np.all(sample.event)):
        raise ValueError("the smoothed CDF requires uncensored data")
    step = sample.jumps
    vals = smoothed_measure_on_grid(step.locations, step.heights, cfg, grid)
    if survival:
        vals = step.total_mass - vals
    return vals


def evaluate_on_grid(sample: CensoredSample, cfg: EstimatorConfig,
                     grid) -> np.ndarray:
    """Raw smoothed CDF of uncensored data on an ascending grid."""
    return _path_on_grid(sample, cfg, grid, survival=False)


def smoothed_survival_on_grid(sample: CensoredSample, cfg: EstimatorConfig,
                              grid) -> np.ndarray:
    """Raw smoothed survival path on an ascending grid.

    S(t) = sum_j s_j (1 - Kbar((t - x_j)/h)) over the jumps of
    sample.jumps, equal to total mass minus the smoothed CDF of the same
    jump measure; the boundary correction enters through the CDF side.
    standardize_path(S, decreasing=True) makes it nonincreasing in [0, 1].
    """
    return _path_on_grid(sample, cfg, grid, survival=True)


def smoothed_paths(sample: CensoredSample, cfg: EstimatorConfig, pts,
                   survival: bool = False):
    """Raw and standardized values at ascending points pts.

    Standardization needs the running sup (inf for survival) over the
    path up to each point, and the raw path is genuinely non-monotone,
    so both come from one pass over a fine grid: 1025 equispaced points
    from the path start up to pts[-1], joined with pts.  The path starts
    at the boundary, or min(tail_cutoff, 256) bandwidths below the
    smallest observation, or at pts[0] if that is lower.
    """
    pts = np.asarray(pts, dtype=float)
    lo = cfg.boundary
    if lo is None:
        window = min(float(cfg.kernel.tail_cutoff), _PATH_WINDOW)
        lo = float(np.min(sample.times)) - window * cfg.bandwidth
    lo = min(lo, float(pts[0]))
    grid = np.union1d(np.linspace(lo, float(pts[-1]), _PATH_POINTS), pts)
    idx = np.searchsorted(grid, pts)
    raw = _path_on_grid(sample, cfg, grid, survival)
    return raw[idx], standardize_path(raw, decreasing=survival)[idx]
