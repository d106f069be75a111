"""Empirical and kernel-smoothed CDF estimation.

Estimators operate on a CensoredSample and are configured with a kernel
table, a bandwidth, an optional left support boundary (handled by
reflection), and an optional standardization step that rectifies the
estimate into a valid CDF (or survival) path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# keep grid-by-sample evaluation blocks at ~1M entries
_BLOCK = 1 << 20
# how far below the smallest observation a standardized point path starts,
# in bandwidth units; kernel oscillation beyond this is ~1e-4 and below
# Monte Carlo resolution
_PATH_WINDOW = 256.0
_PATH_POINTS = 1025


class DegenerateSampleError(ValueError):
    """The sample carries too few events for the requested estimate."""


@dataclass(frozen=True)
class CensoredSample:
    """Observed times with event flags; all-true flags encode iid data."""
    times: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        event = np.asarray(self.event, dtype=bool)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1d array")
        if event.shape != times.shape:
            raise ValueError("event flags must match times in length")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "event", event)

    @classmethod
    def uncensored(cls, times) -> "CensoredSample":
        times = np.asarray(times, dtype=float)
        return cls(times, np.ones(times.shape, dtype=bool))

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth and path-shaping options for smoothed estimators.

    kernel must expose kbar(x) (vectorized integrated kernel) and a
    tail_cutoff; KernelTable and GaussianKernel both qualify.
    """
    kernel: object
    bandwidth: float
    boundary: float | None = None
    standardize: bool = False

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
        if not hasattr(self.kernel, "kbar"):
            raise TypeError("kernel must provide a kbar() method")
        if self.boundary is not None:
            object.__setattr__(self, "boundary", float(self.boundary))


@dataclass(frozen=True)
class StepEstimate:
    """Jump measure of a step-function distribution estimate.

    locations are strictly ascending distinct values; heights are the
    positive masses, summing to 1 for an EDF and to <= 1 for Kaplan-Meier
    when the largest observation is censored.
    """
    locations: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        hts = np.asarray(self.heights, dtype=float)
        if locs.ndim != 1 or locs.shape != hts.shape or locs.size == 0:
            raise ValueError("locations/heights must be matching 1d arrays")
        if not np.all(np.diff(locs) > 0):
            raise ValueError("locations must be strictly ascending")
        if not np.all(hts > 0):
            raise ValueError("heights must be positive")
        if hts.sum() > 1.0 + 1e-12:
            raise ValueError("total jump mass exceeds 1")
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
        out = 1.0 - self.cdf(t)
        return out


def edf(sample: CensoredSample) -> StepEstimate:
    """Empirical distribution function as a jump measure (1/n per point)."""
    if not np.all(sample.event):
        raise ValueError("edf requires fully uncensored data")
    locs, counts = np.unique(sample.times, return_counts=True)
    return StepEstimate(locs, counts / sample.n)


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
                  measure, survival: bool) -> np.ndarray:
    """Smoothed CDF (or survival) path of measure(sample) on an ascending
    grid; standardizes last if configured.

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
    step = measure(sample)
    vals = smoothed_measure_on_grid(step.locations, step.heights, cfg, grid)
    if survival:
        vals = step.total_mass - vals
    if cfg.standardize:
        vals = standardize_path(vals, decreasing=survival)
    return vals


def evaluate_on_grid(sample: CensoredSample, cfg: EstimatorConfig,
                     grid) -> np.ndarray:
    """Smoothed CDF of uncensored data on an ascending grid; standardizes
    last if configured."""
    return _path_on_grid(sample, cfg, grid, edf, survival=False)


def smoothed_paths(sample: CensoredSample, cfg: EstimatorConfig, pts,
                   measure=edf, survival: bool = False):
    """Raw and standardized values at ascending points pts.

    Standardization needs the running sup (inf for survival) over the
    path up to each point, and the raw path is genuinely non-monotone,
    so both come from one pass over a fine grid: 1025 equispaced points
    from the path start up to pts[-1], joined with pts.  The path starts
    at the boundary, or min(tail_cutoff, 256) bandwidths below the
    smallest observation, or at pts[0] if that is lower.
    cfg.standardize is ignored.
    """
    pts = np.asarray(pts, dtype=float)
    lo = cfg.boundary
    if lo is None:
        window = min(float(cfg.kernel.tail_cutoff), _PATH_WINDOW)
        lo = float(np.min(sample.times)) - window * cfg.bandwidth
    lo = min(lo, float(pts[0]))
    grid = np.union1d(np.linspace(lo, float(pts[-1]), _PATH_POINTS), pts)
    idx = np.searchsorted(grid, pts)
    raw = _path_on_grid(sample, replace(cfg, standardize=False), grid,
                        measure, survival)
    return raw[idx], standardize_path(raw, decreasing=survival)[idx]


def _point_value(sample, cfg, t, measure, survival) -> float:
    pts = np.array([float(t)])
    if cfg.standardize:
        return float(smoothed_paths(sample, cfg, pts, measure, survival)[1][0])
    return float(_path_on_grid(sample, cfg, pts, measure, survival)[0])


def smoothed_cdf(sample: CensoredSample, cfg: EstimatorConfig,
                 t: float) -> float:
    """Smoothed CDF at one point.

    The raw value is the kernel sum at t.  The standardized value is the
    one smoothed_paths gives at t: the running sup over its fine grid
    from the path start up to t, clipped to [0, 1].  Grid evaluation via
    evaluate_on_grid gives the caller explicit control instead.
    """
    return _point_value(sample, cfg, t, edf, survival=False)
