"""Kaplan-Meier product-limit estimation and flat-top smoothing of it.

The product-limit computation runs in exact rational arithmetic
(fractions.Fraction) with a single correctly rounded float division per
jump, so that with zero censoring the jump data is bitwise identical to
the EDF's d_i/n heights.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .estimators import (CensoredSample, DegenerateSampleError,
                         EstimatorConfig, StepEstimate, _path_on_grid,
                         _point_value, edf)


def kaplan_meier(sample: CensoredSample) -> StepEstimate:
    """Jump measure of the Kaplan-Meier estimate.

    Ties: censorings at a time t stay in the risk set through events at
    t.  Returned heights are the drops of the survival curve (equally,
    jumps of 1 - S); total mass is below 1 when the largest observation
    is censored.
    """
    if not np.any(sample.event):
        raise DegenerateSampleError("kaplan_meier needs at least one event")
    times = sample.times
    order = np.sort(times)
    event_times, d = np.unique(times[sample.event], return_counts=True)
    # at risk: every observation with time >= t_i
    at_risk = sample.n - np.searchsorted(order, event_times, side="left")
    surv = Fraction(1)
    heights = np.empty(event_times.size, dtype=float)
    for i in range(event_times.size):
        jump = surv * Fraction(int(d[i]), int(at_risk[i]))
        heights[i] = float(jump)
        surv -= jump
    return StepEstimate(event_times, heights)


def jump_measure(sample: CensoredSample) -> StepEstimate:
    """The estimators' jump measure: the EDF when every event is observed,
    Kaplan-Meier otherwise.  The two are bitwise equal on uncensored
    data; the EDF is the cheaper route."""
    return edf(sample) if np.all(sample.event) else kaplan_meier(sample)


def smoothed_survival_on_grid(sample: CensoredSample, cfg: EstimatorConfig,
                              grid) -> np.ndarray:
    """Smoothed survival path on an ascending grid.

    S(t) = sum_j s_j (1 - Kbar((t - x_j)/h)) over the jumps of
    jump_measure(sample), equal to total mass minus the smoothed CDF of
    the same jump measure; the boundary correction enters through the
    CDF side.  Standardization makes the path nonincreasing within
    [0, 1].
    """
    return _path_on_grid(sample, cfg, grid, jump_measure, survival=True)


def smoothed_survival(sample: CensoredSample, cfg: EstimatorConfig,
                      t: float) -> float:
    """Smoothed survival at one point; mirrors smoothed_cdf's conventions.

    The standardized value is the one smoothed_paths gives at t: the
    running inf over its fine grid from the path start up to t, clipped
    to [0, 1].
    """
    return _point_value(sample, cfg, t, jump_measure, survival=True)
