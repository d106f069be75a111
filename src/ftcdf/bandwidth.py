"""Bandwidth selection from the empirical characteristic function.

The automatic rule finds the first frequency t* beyond which the ECF
magnitude stays under a noise threshold across a window of width
epsilon, then sets h = effective_c / t*.  A plateau variant triggers on
the flattening of the curve instead.  A leave-one-out cross-validation
selector for the Gaussian comparator kernel, on iid or censored data,
is included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .estimators import CensoredSample, DegenerateSampleError

THRESHOLD = "threshold"
PLATEAU = "plateau"

_ECF_BLOCK = 1 << 20
# sizes of the default frequency and CV bandwidth grids, and of the
# trapezoidal grid each CV score integrates over
_FREQ_POINTS = 512
_CV_POINTS = 32
_CV_QUAD_POINTS = 256


class NoPlateauError(Exception):
    """The selection criterion never triggered on the given grid.

    Raised instead of guessing; the caller should extend the frequency
    range or refine the grid.
    """


@dataclass(frozen=True)
class EcfCurve:
    """|ECF| sampled on an ascending nonnegative frequency grid."""
    freqs: np.ndarray
    magnitudes: np.ndarray
    n: int

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        mags = np.asarray(self.magnitudes, dtype=float)
        if freqs.ndim != 1 or freqs.size == 0 or freqs.shape != mags.shape:
            raise ValueError("freqs/magnitudes must be matching 1d arrays")
        if freqs[0] < 0.0 or not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be nonnegative strictly ascending")
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "magnitudes", mags)


@dataclass(frozen=True)
class BandwidthRule:
    """Parameters of the automatic rule; defaults via default_rule()."""
    C: float
    epsilon: float
    effective_c: float
    mode: str = THRESHOLD

    def __post_init__(self):
        if not self.C > 0 or not self.epsilon > 0:
            raise ValueError("C and epsilon must be positive")
        if not 0.0 < self.effective_c <= 1.0:
            raise ValueError("effective_c must lie in (0, 1]")
        if self.mode not in (THRESHOLD, PLATEAU):
            raise ValueError(f"unknown mode {self.mode!r}")


def default_rule(n: int, effective_c: float,
                 mode: str = THRESHOLD) -> BandwidthRule:
    # epsilon grows slowly with n but stays o(log n)-compatible
    return BandwidthRule(C=2.0, epsilon=max(1.0, math.log10(max(n, 2))),
                         effective_c=effective_c, mode=mode)


def _robust_scale(sample: CensoredSample) -> float:
    """IQR/1.349, falling back to the standard deviation, then to 1."""
    q75, q25 = np.percentile(sample.times, [75.0, 25.0])
    scale = (q75 - q25) / 1.349
    if scale <= 0.0:
        scale = float(np.std(sample.times))
    return scale if scale > 0.0 else 1.0


def default_freq_grid(sample: CensoredSample) -> np.ndarray:
    """512 frequencies over [0, 4*pi/scale], scale = IQR/1.349 (robust)."""
    return np.linspace(0.0, 4.0 * np.pi / _robust_scale(sample),
                       _FREQ_POINTS)


def default_cv_grid(sample: CensoredSample) -> np.ndarray:
    """32 log-spaced CV candidates 0.05..2 times the robust data scale."""
    return np.geomspace(0.05, 2.0, _CV_POINTS) * _robust_scale(sample)


def ecf(sample: CensoredSample, freqs) -> EcfCurve:
    """ECF magnitude curve.

    Uncensored data uses the normalized (1/n) sum; censored data weights
    each distinct event time by its Kaplan-Meier jump mass, without
    renormalizing when the total mass is below 1.
    """
    freqs = np.asarray(freqs, dtype=float)
    step = sample.jumps
    mags = np.empty(freqs.shape, dtype=float)
    rows = max(1, _ECF_BLOCK // max(1, step.locations.size))
    for i in range(0, freqs.size, rows):
        blk = freqs[i:i + rows]
        phases = np.exp(1j * blk[:, None] * step.locations[None, :])
        mags[i:i + rows] = np.abs(phases @ step.heights)
    np.clip(mags, 0.0, 1.0, out=mags)
    return EcfCurve(freqs, mags, sample.n)


def noise_threshold(n: int, C: float) -> float:
    return C * math.sqrt(math.log10(n) / n)


def _window_spans(freqs: np.ndarray, epsilon: float, closed: bool):
    """Right edge index of each point's epsilon window; -1 if it overflows."""
    side = "right" if closed else "left"
    hi = np.searchsorted(freqs, freqs + epsilon, side=side)
    fits = freqs + epsilon <= freqs[-1]
    return np.where(fits, hi, -1)


def select_bandwidth(curve: EcfCurve, rule: BandwidthRule) -> float:
    """Automatic bandwidth h = effective_c / t*.

    Threshold mode: t* is the smallest positive grid frequency such that
    every grid point strictly inside (t*, t* + epsilon) has magnitude
    under C*sqrt(log10(n)/n); the window must fit inside the grid and
    contain at least one point.  Plateau mode: t* is the first positive
    frequency where the least-squares slope of the magnitude over
    [t*, t* + epsilon] is smaller than threshold/epsilon in size.
    """
    freqs = curve.freqs
    mags = curve.magnitudes
    thr = noise_threshold(curve.n, rule.C)
    if rule.mode == THRESHOLD:
        below = np.concatenate([[0], np.cumsum(mags < thr)])
        hi = _window_spans(freqs, rule.epsilon, closed=False)
        for i in range(freqs.size):
            if freqs[i] <= 0.0 or hi[i] < 0 or hi[i] - 1 - i < 1:
                continue
            inside = hi[i] - 1 - i
            if below[hi[i]] - below[i + 1] == inside:
                return rule.effective_c / freqs[i]
        raise NoPlateauError(
            "ECF magnitude never stays below the threshold across a full "
            "window; extend the frequency range")
    # plateau mode
    tol = thr / rule.epsilon
    hi = _window_spans(freqs, rule.epsilon, closed=True)
    for i in range(freqs.size):
        if freqs[i] <= 0.0 or hi[i] < 0 or hi[i] - i < 2:
            continue
        f = freqs[i:hi[i]]
        m = mags[i:hi[i]]
        fc = f - f.mean()
        slope = float(np.dot(fc, m - m.mean()) / np.dot(fc, fc))
        if abs(slope) < tol:
            return rule.effective_c / freqs[i]
    raise NoPlateauError(
        "ECF magnitude never levels off on the grid; extend the range")


def auto_bandwidth(sample: CensoredSample, effective_c: float) -> float:
    """Convenience wrapper: default grid and rule, then select_bandwidth."""
    return select_bandwidth(ecf(sample, default_freq_grid(sample)),
                            default_rule(sample.n, effective_c))


def cv_bandwidth_km(sample: CensoredSample, h_grid) -> float:
    """Leave-one-out CV bandwidth for the Gaussian-kernel estimate.

    CV(h) = sum_k s_k int [I(x_k <= t) - F_{h,-k}(t)]^2 w(t) dt over the
    jumps x_k and masses s_k of sample.jumps (EDF or Kaplan-Meier),
    with w the unnormalized indicator of [min - 3h, max + 3h] and a
    256-point trapezoidal quadrature grid.
    F_{h,-k} leaves out one event's mass s_k/d_k at x_k, d_k being the
    number of events there, and renormalizes the rest to total one; on
    iid data this is leave-one-observation-out.  Returns the argmin over
    h_grid; the first minimizer wins ties.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0:
        raise ValueError("h_grid must be nonempty")
    if np.any(h_grid <= 0):
        raise ValueError("bandwidths must be positive")
    events = sample.times[sample.event]
    if events.size < 2:
        raise DegenerateSampleError("leave-one-out needs at least two "
                                    "events")
    step = sample.jumps
    loc, s = step.locations, step.heights
    w = s / np.unique(events, return_counts=True)[1]
    rest = (step.total_mass - w)[:, None]
    best_h, best_cv = None, np.inf
    for h in h_grid:
        grid = np.linspace(loc.min() - 3.0 * h, loc.max() + 3.0 * h,
                           _CV_QUAD_POINTS)
        phi = ndtr((grid[None, :] - loc[:, None]) / h)
        total = (s[:, None] * phi).sum(axis=0)
        loo = (total[None, :] - w[:, None] * phi) / rest
        resid = (loc[:, None] <= grid[None, :]).astype(float) - loo
        cv = float(np.trapezoid(s @ (resid ** 2), grid))
        if cv < best_cv:
            best_h, best_cv = float(h), cv
    return best_h
