"""Bandwidth selection from the empirical characteristic function.

The automatic rule, the one flat-top selector, finds the first
frequency t* beyond which the ECF magnitude stays under the noise
threshold C*sqrt(log10(n)/n) across a window of width epsilon, then
sets h = effective_c / t*.  n is the row count; where no window
qualifies and the jump measure is Kaplan-Meier, whose large late
heights can lift its ECF's noise floor, the scan runs again with the
threshold at the measure's effective size n_eff = (sum s)^2 / sum s^2.
A leave-one-out cross-validation selector for the Gaussian comparator
kernel, on iid or censored data, is included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import ndtr
from .estimators import (MAX_KERNEL_TERMS, CensoredSample,
                         DegenerateSampleError, check_terms)

# complex values per array of the ECF; blocks that stay in cache made
# the exp about twice as fast as blocks of 2**20
_ECF_BLOCK = 1 << 16
# frequencies per block of the ECF's phase recurrence on a linspace grid
_ECF_ROWS = 64
# values per array of the cross-validation when it evaluates a group of
# bandwidths at once (up to 128 jumps).  Groups that stay in cache cut
# the CPU time of a serial study by about 18 %; groups of 2**17 and 2**20
# values did not win every run
_CV_GROUP = 1 << 15
# values per array when one bandwidth fills a group: all 256 quadrature
# points of one bandwidth up to 4096 jumps, column blocks beyond
_CV_BLOCK = 1 << 20
# sizes of the default frequency and CV bandwidth grids, and of the
# trapezoidal grid each CV score integrates over
_FREQ_POINTS = 512
_CV_POINTS = 32
_CV_QUAD_POINTS = 256


class NoPlateauError(ValueError):
    """The selection criterion never triggered on the given grid.

    Raised instead of guessing; the caller should extend the frequency
    range or refine the grid.
    """


def _check_freqs(freqs: np.ndarray, shape) -> None:
    if freqs.ndim != 1 or freqs.size == 0 or freqs.shape != shape:
        raise ValueError("freqs/magnitudes must be matching 1d arrays")
    if freqs[0] < 0.0 or not np.all(np.diff(freqs) > 0):
        raise ValueError("freqs must be nonnegative strictly ascending")


@dataclass(frozen=True)
class EcfCurve:
    """|ECF| sampled on an ascending nonnegative frequency grid, of a
    sample of n rows; n_eff, the threshold's fallback size, is set only
    for a Kaplan-Meier measure (a sample with a censored row)."""
    freqs: np.ndarray
    magnitudes: np.ndarray
    n: int
    n_eff: float | None = None

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        mags = np.asarray(self.magnitudes, dtype=float)
        _check_freqs(freqs, mags.shape)
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "magnitudes", mags)


@dataclass(frozen=True)
class BandwidthRule:
    """Parameters of the automatic rule; defaults via default_rule()."""
    C: float
    epsilon: float
    effective_c: float | None

    def __post_init__(self):
        if not self.C > 0 or not self.epsilon > 0:
            raise ValueError("C and epsilon must be positive")
        if self.effective_c is None:
            raise ValueError(
                "effective_c has no default for smooth family away from "
                "(b=1, c=0.05); pass it explicitly")
        if not 0.0 < self.effective_c <= 1.0:
            raise ValueError("effective_c must lie in (0, 1]")


def default_rule(n: int, effective_c: float | None) -> BandwidthRule:
    """The rule for a sample of n rows.  A one-row sample is refused
    (DegenerateSampleError): its noise threshold C*sqrt(log10(n)/n) is
    0, so no window could qualify.  The rule's own parameters are checked
    first: a bad effective_c is named whatever the sample."""
    # epsilon grows slowly with n but stays o(log n)-compatible
    rule = BandwidthRule(C=2.0, epsilon=max(1.0, math.log10(max(n, 1))),
                         effective_c=effective_c)
    if n < 2:
        raise DegenerateSampleError("the threshold rule needs at least two "
                                    "rows; at n = 1 its noise threshold is 0")
    return rule


def default_freq_grid(sample: CensoredSample) -> np.ndarray:
    """512 frequencies over [0, 4*pi/scale], scale = sample.scale."""
    return np.linspace(0.0, 4.0 * np.pi / sample.scale, _FREQ_POINTS)


def default_cv_grid(sample: CensoredSample) -> np.ndarray:
    """32 log-spaced CV candidates 0.05..2 times sample.scale."""
    return np.geomspace(0.05, 2.0, _CV_POINTS) * sample.scale


def ecf(sample: CensoredSample, freqs) -> EcfCurve:
    """ECF magnitude curve.

    Uncensored data uses the normalized (1/n) sum; censored data weights
    each distinct event time by its Kaplan-Meier jump mass, without
    renormalizing when the total mass is below 1.

    On a linspace grid of spacing dt, blocks of _ECF_ROWS frequencies
    start from a direct exp(i t0 x) and step by powers w**k of
    w = exp(i dt x); the magnitudes agree with the direct sum to about
    1e-15 (1e-14 max|t x| at worst).  Any other grid takes one row per
    block, which is the direct sum.
    """
    freqs = np.asarray(freqs, dtype=float)
    step = sample.jumps
    x, heights = step.locations, step.heights
    check_terms("ECF", freqs.size * x.size, "frequencies x jumps",
                MAX_KERNEL_TERMS)
    _check_freqs(freqs, freqs.shape)
    # the blocks never form the largest phase freqs[-1] max|x|; form it,
    # so that an overflow raises under np.errstate(over="raise")
    np.multiply(freqs[-1:], np.max(np.abs(x), initial=0.0))
    uniform = np.array_equal(
        freqs, np.linspace(freqs[0], freqs[-1], freqs.size))
    rows = min(_ECF_ROWS if uniform else 1, freqs.size)
    dt = (freqs[-1] - freqs[0]) / max(freqs.size - 1, 1)
    starts = freqs[::rows]
    # sums[k, b] is the ECF at frequency starts[b] + k dt
    sums = np.zeros((rows, starts.size), dtype=complex)
    cols = max(1, _ECF_BLOCK // max(rows, starts.size))
    for j in range(0, x.size, cols):
        xj = x[j:j + cols]
        # powers[k] holds heights times w**k
        powers = np.empty((rows, xj.size), dtype=complex)
        powers[0] = heights[j:j + cols]
        w, k = np.exp(1j * (dt * xj)), 1
        while k < rows:
            # rows k .. 2k-1 are rows 0 .. k-1 times w**k
            m = min(k, rows - k)
            np.multiply(powers[:m], w, out=powers[k:k + m])
            w *= w
            k *= 2
        sums += powers @ np.exp((1j * starts[:, None]) * xj).T
    mags = np.abs(sums.T.ravel()[:freqs.size])
    np.clip(mags, 0.0, 1.0, out=mags)
    n_eff = (None if np.all(sample.event)
             else step.total_mass ** 2 / float(np.square(heights).sum()))
    return EcfCurve(freqs, mags, sample.n, n_eff)


def noise_threshold(n: int, C: float) -> float:
    return C * math.sqrt(math.log10(n) / n)


def threshold_scan(curve: EcfCurve, rule: BandwidthRule):
    """(t*, threshold) of the automatic rule: t* is a frequency of
    curve's grid, and threshold the noise level the scan used.

    t* is the smallest positive grid frequency such that every grid
    point strictly inside (t*, t* + epsilon) has magnitude under
    C*sqrt(log10(n)/n); the window must fit inside the grid and contain
    at least one point.  Where none does, a Kaplan-Meier curve's scan
    runs again with the threshold at curve.n_eff.
    """
    freqs = curve.freqs
    edge = freqs + rule.epsilon
    # grid points strictly inside each window are idx+1 .. end-1
    end = np.searchsorted(freqs, edge)
    idx = np.arange(freqs.size)
    inside = end - 1 - idx
    fits = (freqs > 0.0) & (edge <= freqs[-1]) & (inside >= 1)
    for size in (curve.n, curve.n_eff):
        if size is None:
            break
        thr = noise_threshold(size, rule.C)
        below = np.concatenate([[0], np.cumsum(curve.magnitudes < thr)])
        ok = fits & (below[end] - below[idx + 1] == inside)
        if ok.any():
            return freqs[ok.argmax()], thr
    raise NoPlateauError(
        "ECF magnitude never stays below the threshold across a full "
        "window; extend the frequency range")


def select_bandwidth(curve: EcfCurve, rule: BandwidthRule) -> float:
    """Automatic bandwidth h = effective_c / t*, t* from threshold_scan."""
    return rule.effective_c / threshold_scan(curve, rule)[0]


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
    number of events there (the measure's counts), and renormalizes the
    rest to total one; on iid data this is leave-one-observation-out.
    Returns the argmin over h_grid; the first minimizer wins ties.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0:
        raise ValueError("h_grid must be nonempty")
    if np.any(h_grid <= 0):
        raise ValueError("bandwidths must be positive")
    if np.count_nonzero(sample.event) < 2:
        raise DegenerateSampleError("leave-one-out needs at least two "
                                    "events")
    step = sample.jumps
    loc, s = step.locations, step.heights
    check_terms("CV", loc.size * _CV_QUAD_POINTS * h_grid.size,
                "jumps x grid points x bandwidths", MAX_KERNEL_TERMS)
    w = s / step.counts
    rest = (step.total_mass - w)[:, None]
    lo, hi = loc.min() - 3.0 * h_grid, loc.max() + 3.0 * h_grid
    if np.all((hi - lo) / (_CV_QUAD_POINTS - 1) != 0.0):
        # in rows: linspace along the last axis is a transposed view,
        # which the loop below would read strided
        grids = np.ascontiguousarray(
            np.linspace(lo, hi, _CV_QUAD_POINTS, axis=-1))
    else:
        # a step that underflows to 0 moves every row of one linspace
        # call to another formula; row by row, each row keeps its own
        grids = np.array([np.linspace(a, b, _CV_QUAD_POINTS)
                          for a, b in zip(lo, hi)])
    sq = np.empty(grids.shape)
    # arrays of `group` bandwidths x jumps x `cols` quadrature points
    per_h = loc.size * _CV_QUAD_POINTS
    group = min(h_grid.size, max(1, _CV_GROUP // per_h))
    cols = min(_CV_QUAD_POINTS, max(1, _CV_BLOCK // loc.size))
    phi, term = np.empty((2, group * loc.size * cols))
    for k in range(0, h_grid.size, group):
        h = h_grid[k:k + group, None, None]
        for j in range(0, _CV_QUAD_POINTS, cols):
            g = grids[k:k + group, None, j:j + cols]
            shape = (h.shape[0], loc.size, g.shape[2])
            p = phi[:math.prod(shape)].reshape(shape)
            t = term[:p.size].reshape(shape)
            np.subtract(g, loc[:, None], out=p)
            p /= h
            ndtr(p, out=p)
            total = np.multiply(s[:, None], p, out=t).sum(axis=1)
            # p becomes the leave-one-out fit, then the squared residual
            np.multiply(w[:, None], p, out=p)
            np.subtract(total[:, None, :], p, out=p)
            p /= rest
            np.less_equal(loc[:, None], g, out=t)
            np.subtract(t, p, out=p)
            np.square(p, out=p)
            sq[k:k + group, j:j + cols] = s @ p
    cvs = np.trapezoid(sq, grids, axis=1)
    return float(h_grid[np.argmin(cvs)])
