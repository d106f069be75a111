"""Test-side oracles: values the tests check the library against, by
routes that no command takes."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

import ftcdf.estimators as estimators
from ftcdf.asymptotics import POWER
from ftcdf.kernels import TRAPEZOID, FlatTopSpec, window
from ftcdf.quadrature import adaptive_quad

# C_K of the smooth taper (b = 1) by flat radius c, to 20 digits: the
# taper identity of kernels.kernel_cross_moment in 30-digit arithmetic
SMOOTH_CROSS_MOMENTS = {0.05: 0.26027872088467013439,
                        0.1: 0.24624783392494001936,
                        0.3: 0.20355725600886931697}


def gaussian_cross_moment() -> float:
    """int u phi(u) Phi(u) du of the standard normal kernel, by quadrature
    of its by-parts form int_0^40 Phi (1 - Phi); exactly 1/(2 sqrt(pi))."""
    f = lambda u: ndtr(u) * (1.0 - ndtr(u))
    return adaptive_quad(f, 0.0, 40.0, 1e-12)


def trapezoid_cross_moment_by_quad(c: float) -> float:
    """C_K of the trapezoid taper at flat radius c, by adaptive quadrature
    of the taper identity (1/2pi) [1 + int_c^1 (1 - lam^2)/s^2 ds], where
    kernel_cross_moment takes the closed form.  1 - lam^2 cancels near
    s = c: the quadrature is certified at c = 1e-3, and refuses 1e-4."""
    spec = FlatTopSpec(TRAPEZOID, c)
    f = lambda s: (1.0 - window(spec, s) ** 2) / s ** 2
    return (1.0 + adaptive_quad(f, c, 1.0, 1e-12)) / (2.0 * math.pi)


def cv_bandwidth_loop(sample, h_grid) -> float:
    """Leave-one-out CV bandwidth, one bandwidth at a time: the selector
    that bandwidth.cv_bandwidth_km evaluates in groups of bandwidths.

    Each bandwidth gets its own np.linspace quadrature grid, evaluated
    in column blocks of about 2**20 values; returns the first minimizer.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    events = sample.times[sample.event]
    step = sample.jumps
    loc, s = step.locations, step.heights
    w = s / np.unique(events, return_counts=True)[1]
    rest = (step.total_mass - w)[:, None]
    cols = max(1, (1 << 20) // loc.size)
    sq = np.empty(256)
    best_h, best_cv = None, np.inf
    for h in h_grid:
        grid = np.linspace(loc.min() - 3.0 * h, loc.max() + 3.0 * h, 256)
        for j in range(0, grid.size, cols):
            g = grid[None, j:j + cols]
            phi = ndtr((g - loc[:, None]) / h)
            total = (s[:, None] * phi).sum(axis=0)
            loo = (total[None, :] - w[:, None] * phi) / rest
            resid = (loc[:, None] <= g).astype(float) - loo
            sq[j:j + cols] = s @ (resid ** 2)
        cv = float(np.trapezoid(sq, grid))
        if cv < best_cv:
            best_h, best_cv = float(h), cv
    return best_h


def robust_scale(sample) -> float:
    """The data scale by np.percentile: the rule CensoredSample.scale
    states from one sort, and 1 where the sample refuses.

    IQR/1.349, falling back to the standard deviation, then to 1.  A
    sample whose times are all equal has the scale max|time|, and 1
    when every time is zero.  The standard deviation is np.std's, taken
    of the times over a power of two at least max|time| and scaled back,
    so that no square under- or overflows; 1 only below the least
    subnormal.
    """
    times = sample.times
    if np.min(times) == np.max(times):
        return abs(float(times[0])) or 1.0
    q75, q25 = np.percentile(times, [75.0, 25.0])
    scale = (q75 - q25) / 1.349
    if scale <= 0.0:
        e = math.frexp(float(np.max(np.abs(times))))[1]
        scale = math.ldexp(float(np.std(np.ldexp(times, -e))), e)
    return scale if scale > 0.0 else 1.0


def report_cell(report, estimator: str, t: float, n: int):
    """The CellStats of an MseReport at (estimator, t, n); KeyError when
    the report has no such cell."""
    for c in report.cells:
        if c.estimator == estimator and c.t == t and c.n == n:
            return c
    raise KeyError(f"no cell ({estimator}, {t}, {n})")


def expansion_mse(expansion, n):
    """MSE(n) of an MseExpansion: c/n^r plus its second-order term,
    second_const/n^(r+delta) (POWER) or second_const/(n^r log n)
    (LOG_FACTOR)."""
    n = np.asarray(n, dtype=float)
    lead = expansion.c * n ** -expansion.r
    if expansion.second_kind == POWER:
        return lead + expansion.second_const * n ** -(expansion.r
                                                      + expansion.delta)
    return lead + expansion.second_const * n ** -expansion.r / np.log(n)


def exact_km(sample):
    """The product-limit loop in exact rationals, one rounding per jump:
    (locations, heights) that kaplan_meier must reproduce bitwise."""
    times = sample.times
    order = np.sort(times)
    event_times, d = np.unique(times[sample.event], return_counts=True)
    at_risk = sample.n - np.searchsorted(order, event_times, side="left")
    surv = Fraction(1)
    heights = np.empty(event_times.size, dtype=float)
    for i in range(event_times.size):
        jump = surv * Fraction(int(d[i]), int(at_risk[i]))
        heights[i] = float(jump)
        surv -= jump
    return event_times, heights


def blockwise_product(kern, locations, weights, points, h):
    """The kernel sum as one matrix-vector product per block of rows of
    estimators._kbar_sum, each block's Kbar values from 1-d arguments:
    a table looks every value up, and merges no row."""
    rows = max(1, estimators._BLOCK // locations.size)
    sums = []
    for i in range(0, points.size, rows):
        args = (points[i:i + rows, None] - locations[None, :]) / h
        sums.append(kern.kbar(args.ravel()).reshape(args.shape) @ weights)
    return np.concatenate(sums)


def spline_intervals(knots, v):
    """The spline interval of each v within the knots, by binary search:
    the i with knots[i] <= v < knots[i + 1], the last knot belonging to
    the last interval."""
    return np.minimum(np.searchsorted(knots, v, side="right") - 1,
                      knots.size - 2)
