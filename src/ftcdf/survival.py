"""Survival-side names, re-exported from ftcdf.estimators.

kaplan_meier gives the jump measure that censored samples smooth
(sample.jumps); smoothed_survival_on_grid evaluates the smoothed survival
path on a grid.  Both live next to their CDF twins, edf and
evaluate_on_grid; smoothed_paths(..., survival=True) gives
path-standardized values at points.
"""
from .estimators import kaplan_meier, smoothed_survival_on_grid

__all__ = ["kaplan_meier", "smoothed_survival_on_grid"]
