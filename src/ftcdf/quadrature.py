"""Adaptive Gauss-Kronrod quadrature and Gauss-Legendre helpers.

Single shared implementation used by the kernel builders and the tests
as an independent integration route.  Absolute-tolerance stopping, fixed
maximum bisection depth, and hard failure (no silent fallback) when the
tolerance cannot be certified.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# 15-point Kronrod extension of 7-point Gauss (QUADPACK QK15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# full symmetric node/weight tables, ordered ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss nodes sit at the odd Kronrod positions
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG_FULL = np.concatenate([_WG[:-1], _WG[::-1]])
# bisection depth at which adaptive_quad gives up
_MAX_DEPTH = 48


class QuadratureError(ValueError):
    """Requested tolerance could not be certified within the depth budget."""


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel.  Returns (integral, error_estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(center + half * _NODES), dtype=float)
    resk = float(np.dot(_WEIGHTS, y))
    resg = float(np.dot(_WG_FULL, y[_G_IDX]))
    err = abs((resk - resg) * half)
    # QUADPACK-style rescaled estimate; guards against coincidental
    # agreement of the two rules on oscillatory panels
    reskh = resk * 0.5
    resasc = float(np.dot(_WEIGHTS, np.abs(y - reskh))) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept an ndarray of abscissae and return an ndarray of the
    same shape.  Bisects until each panel's error estimate fits its share
    of the budget; raises QuadratureError once the depth budget is spent.
    """
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("finite integration limits required")
    if a == b:
        return 0.0
    total = 0.0
    # explicit stack of (a, b, tol, depth); avoids Python recursion limits
    stack = [(float(a), float(b), float(tol), 0)]
    while stack:
        lo, hi, budget, depth = stack.pop()
        val, err = _gk15(f, lo, hi)
        if err <= budget:
            total += val
            continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"tolerance {budget:.3g} not reached on [{lo:.6g}, {hi:.6g}] "
                f"at depth {depth}: error estimate {err:.3g}")
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # width at float resolution; nothing left to split
            total += val
            continue
        stack.append((lo, mid, 0.5 * budget, depth + 1))
        stack.append((mid, hi, 0.5 * budget, depth + 1))
    return total


@lru_cache(maxsize=64)
def unit_gl_rule(order: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    if order < 2:
        raise ValueError("order must be >= 2")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w
