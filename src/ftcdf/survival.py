"""Flat-top smoothing of the sample's cached jump measure, sample.jumps:
Kaplan-Meier under censoring, the EDF otherwise.  kaplan_meier lives next
to edf in ftcdf.estimators and is re-exported here; it runs in linear
time, and each height is the exact product-limit jump rounded once
(fixed-point bounds, with an exact fallback where they round apart).
"""
from __future__ import annotations

import numpy as np

from .estimators import (CensoredSample, EstimatorConfig, _path_on_grid,
                         _point_value, kaplan_meier)

__all__ = ["kaplan_meier", "smoothed_survival", "smoothed_survival_on_grid"]


def smoothed_survival_on_grid(sample: CensoredSample, cfg: EstimatorConfig,
                              grid) -> np.ndarray:
    """Smoothed survival path on an ascending grid.

    S(t) = sum_j s_j (1 - Kbar((t - x_j)/h)) over the jumps of
    sample.jumps, equal to total mass minus the smoothed CDF of the same
    jump measure; the boundary correction enters through the CDF side.
    Standardization makes the path nonincreasing within [0, 1].
    """
    return _path_on_grid(sample, cfg, grid, survival=True)


def smoothed_survival(sample: CensoredSample, cfg: EstimatorConfig,
                      t: float) -> float:
    """Smoothed survival at one point; mirrors smoothed_cdf's conventions.

    The standardized value is the one smoothed_paths gives at t: the
    running inf over its fine grid from the path start up to t, clipped
    to [0, 1].
    """
    return _point_value(sample, cfg, t, survival=True)
