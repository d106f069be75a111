"""Empirical and kernel-smoothed CDF and survival estimation.

Estimators operate on a CensoredSample and are configured with a kernel
table, a bandwidth and an optional left support boundary (handled by
reflection).  Every estimator smooths the sample's one jump measure,
sample.jumps (EDF or Kaplan-Meier), which is computed on first use and
cached on the sample.  Both measures come from one product-limit
routine, which telescopes the product between censorings, so the EDF
is its censoring-free case.  Each value has one route:

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
from functools import cached_property

import numpy as np

# rows of grid-by-sample evaluation per block, ~1M entries: the block
# partition fixes every kernel sum's bits, since OpenBLAS's gemv sums a
# block's rows in groups of 4 and its 1-3 leftover rows by another path
_BLOCK = 1 << 20
# about the values of one chunk of a block: the kernel sum holds one
# chunk's buffer at a time
_CHUNK = 1 << 17
# how far below the smallest observation a standardized point path starts,
# in bandwidth units; kernel oscillation beyond this is ~1e-4 and below
# Monte Carlo resolution
_PATH_WINDOW = 256.0
_PATH_POINTS = 1025
# bits of the fixed-point bounds on the Kaplan-Meier survival product;
# far more than a height's 53, so the exact fallback almost never runs
_KM_BITS = 160
# cap on the terms of one kernel sum, ECF or CV: 3-5 minutes at the
# 20-30 ns a term of the CV or of looked-up Kbar values, under 2 at the
# 9-13 ns of a kernel sum's merged rows (2-vCPU Xeon)
MAX_KERNEL_TERMS = 10**10


def check_terms(work: str, terms: int, factors: str, cap: int) -> None:
    """ValueError, before any work, for more than cap terms; each caller
    passes MAX_KERNEL_TERMS as its own module reads it."""
    if terms > cap:
        raise ValueError(f"the {work} needs {terms} terms ({factors}), "
                         f"above the cap of {cap}")


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
        event is observed (bitwise equal to KM there), else KM."""
        return edf(self) if np.all(self.event) else kaplan_meier(self)


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth and left boundary of the smoothed estimators.

    kernel must expose kbar(x, out=None) (vectorized integrated kernel,
    written into out when given) and a tail_cutoff; KernelTable and
    GaussianKernel both qualify.  Raw paths are made valid by
    standardize_path, or by smoothed_paths.
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
    """Empirical distribution function as a jump measure: the product-limit
    measure without censoring, whose heights are d_i/n by construction."""
    if not np.all(sample.event):
        raise ValueError("edf requires fully uncensored data")
    return _product_limit(sample)


def kaplan_meier(sample: CensoredSample) -> StepEstimate:
    """Jump measure of the Kaplan-Meier estimate: the drops of S, each
    rounded once (_product_limit).  Censorings at a time t stay in the
    risk set through events at t; total mass is below 1 when the largest
    observation is censored."""
    if not np.any(sample.event):
        raise DegenerateSampleError("kaplan_meier needs at least one event")
    return _product_limit(sample)


def _product_limit(sample: CensoredSample) -> StepEstimate:
    """Product-limit jumps S_i d_i / r_i, each exact jump rounded once.

    With c_k censorings in [t_k, t_k+1), the product telescopes:
    S_i d_i / r_i = d_i P / r_1, where P multiplies (r_k+1 + c_k) / r_k+1
    over the censoring gaps before t_i.  So the events of a stretch
    between two gaps share P, and those with equal d_i share a height.
    Without censoring P = 1, and the heights are d_i/n rounded once.
    Fixed-point bounds lo <= P * 2**_KM_BITS <= hi move once per gap.
    Int true division rounds correctly, and rounding is monotone, so
    bounds that give one float give the exact height; else P is rebuilt
    exactly by product trees and the bounds restart from it.  numpy work
    is linear in the events after their sort; big-int steps are linear
    in the gaps.
    """
    times, event = sample.times, sample.event
    event_times, d = np.unique(times[event], return_counts=True)
    censored = np.searchsorted(np.sort(times[~event]), event_times)
    at_risk = sample.n - censored - np.cumsum(d) + d
    new = np.diff(censored, prepend=censored[0]) > 0  # first after a gap
    gap = np.flatnonzero(new)
    nums, dens = (at_risk - d)[gap - 1], at_risk[gap]
    factors = zip(memoryview(nums), memoryview(dens))  # as Python ints
    # a group is the events of one stretch with one d_i: one height
    span = int(d.max()) + 1
    keys, inverse = np.unique(np.cumsum(new) * span + d, return_inverse=True)
    stretch, deaths = np.divmod(keys, span)
    r1 = int(at_risk[0])
    # every height d_i P / r_1 is at least 1/n: scaling by 2**-bits is exact
    unit = 2.0 ** -_KM_BITS
    lo = hi = 1 << _KM_BITS
    k, heights = 0, []  # k: gap factors in lo and hi
    for crossed, dk in zip(np.diff(stretch, prepend=0).tolist(),
                           deaths.tolist()):
        if crossed:
            num, den = next(factors)
            lo = lo * num // den
            hi = -(-hi * num // den)
            k += 1
        height = dk * lo / r1 * unit
        if height != dk * hi / r1 * unit:
            num, den = _product(nums[:k].tolist()), _product(dens[:k].tolist())
            height = dk * num / (den * r1)
            lo, hi = (num << _KM_BITS) // den, -(-(num << _KM_BITS) // den)
        heights.append(height)
    return StepEstimate(event_times, np.array(heights)[inverse])


def _product(factors: list) -> int:
    """Product of ints by a balanced tree: near-linear in the size of the
    result, where a running product is quadratic."""
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[2 * len(pairs):]
    return factors[0] if factors else 1


def standardize_path(raw, decreasing: bool = False) -> np.ndarray:
    """Rectify raw grid values into a valid path, clipped to [0, 1]: the
    running max for a CDF, the running min for a survival curve."""
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw.copy()
    run = np.minimum if decreasing else np.maximum
    return np.clip(run.accumulate(raw), 0.0, 1.0)


def _kbar_sum(locations, weights, kernel, h, points) -> np.ndarray:
    """sum_j w_j * Kbar((t - x_j)/h) for each t, in blocks of at most
    _BLOCK terms.

    Each block is summed in chunks of about _CHUNK terms that share one
    buffer.  Chunks start at multiples of 4 rows from the block's start
    and the last one takes the block's 1-3 leftover rows, so every row
    is summed by the same gemv path as a product of the whole block.

    Each row of a chunk holds one point's arguments (t - x_j)/h, and the
    locations ascend, so every row is nonincreasing.  A KernelTable
    merges such a row against its knots when the row is dense: when it
    holds more arguments than the knots between its ends, by a margin
    for the per-row cost (KernelTable._merge_dense_rows).  The rows of a
    fit with thousands of jumps are dense; those of a study's 15 or 30
    are not, and are looked up value by value.  The two routes give the
    same bits.
    """
    points = np.asarray(points, dtype=float)
    check_terms("kernel sum", points.size * locations.size,
                "points x jumps", MAX_KERNEL_TERMS)
    out = np.empty(points.shape, dtype=float)
    jumps = max(1, locations.size)
    rows = max(1, _BLOCK // jumps)
    step = 4 * max(1, _CHUNK // (4 * jumps))
    # one chunk of arguments, overwritten by their Kbar values
    buf = np.empty((min(step + 3, rows, points.size), locations.size))
    for i in range(0, points.size, rows):
        stop = min(i + rows, points.size)
        cuts = [i, *range(i + step, stop - 3, step), stop]
        for lo, hi in zip(cuts, cuts[1:]):
            args = buf[:hi - lo]
            np.subtract(points[lo:hi, None], locations, out=args)
            args /= h
            out[lo:hi] = kernel.kbar(args, out=args) @ weights
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
