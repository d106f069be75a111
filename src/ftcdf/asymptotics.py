"""Large-sample accuracy formulas.

Second-order MSE expansions, tail bounds on the smoothing bias, the
rate-optimal bandwidth presets for each smoothness class, and the
sample-size deficiency implied by a pair of MSE expansions.  All
formulas are analytic; nothing here touches data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exp1

from .quadrature import adaptive_quad

POWER = "power"
LOG_FACTOR = "log-factor"

POLYNOMIAL = "polynomial-tail"
EXPONENTIAL = "exponential-tail"
BAND_LIMITED = "band-limited"

# doubling blocks allowed before a user-supplied tail is declared
# non-integrable
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class MseExpansion:
    """MSE(n) = c/n^r plus a second-order term.

    second_kind "power" adds second_const/n^(r+delta); "log-factor" adds
    second_const/(n^r log n).
    """
    c: float
    r: float
    second_const: float
    second_kind: str = POWER
    delta: float | None = None

    def __post_init__(self):
        if not self.c > 0 or not self.r > 0:
            raise ValueError("leading constant and rate must be positive")
        if self.second_kind == POWER:
            if self.delta is None or not self.delta > 0:
                raise ValueError("power expansion needs delta > 0")
        elif self.second_kind == LOG_FACTOR:
            if self.delta is not None:
                raise ValueError("log-factor expansion takes no delta")
        else:
            raise ValueError(f"unknown second_kind {self.second_kind!r}")

    def mse(self, n) -> float:
        n = np.asarray(n, dtype=float)
        lead = self.c * n ** -self.r
        if self.second_kind == POWER:
            return lead + self.second_const * n ** -(self.r + self.delta)
        return lead + self.second_const * n ** -self.r / np.log(n)


@dataclass(frozen=True)
class SmoothnessClass:
    """Tail behaviour of the characteristic function.

    polynomial-tail: |phi(s)| decays like |s|^-p (p > 1/2); the bias
    bound then needs an explicit |phi| callable.  exponential-tail:
    |phi(s)| <= D exp(-d|s|).  band-limited: phi vanishes beyond |s|=b.
    """
    kind: str
    p: float | None = None
    d: float | None = None
    D: float | None = None
    b: float | None = None

    def __post_init__(self):
        given = {k: v for k, v in
                 (("p", self.p), ("d", self.d), ("D", self.D),
                  ("b", self.b)) if v is not None}
        need = {POLYNOMIAL: {"p"}, EXPONENTIAL: {"d", "D"},
                BAND_LIMITED: {"b"}}.get(self.kind)
        if need is None:
            raise ValueError(f"unknown smoothness kind {self.kind!r}")
        if set(given) != need:
            raise ValueError(f"{self.kind} needs exactly {sorted(need)}")
        if any(v <= 0 for v in given.values()):
            raise ValueError("smoothness parameters must be positive")

    @classmethod
    def polynomial(cls, p: float) -> "SmoothnessClass":
        return cls(POLYNOMIAL, p=p)

    @classmethod
    def exponential(cls, d: float, D: float) -> "SmoothnessClass":
        return cls(EXPONENTIAL, d=d, D=D)

    @classmethod
    def band_limited(cls, b: float) -> "SmoothnessClass":
        return cls(BAND_LIMITED, b=b)


def variance_expansion(F_t: float, f_t: float, h: float, n: int,
                       cross_moment: float) -> float:
    """Second-order variance: F(1-F)/n - 2 f(t) cross_moment h / n.

    The h term is the smoothing gain; it is what the deficiency
    calculations trade against sample size.
    """
    if not 0.0 <= F_t <= 1.0:
        raise ValueError("F_t must lie in [0, 1]")
    if f_t < 0.0:
        raise ValueError("density value must be nonnegative")
    if h < 0.0:
        raise ValueError("bandwidth must be nonnegative")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return F_t * (1.0 - F_t) / n - 2.0 * f_t * cross_moment * h / n


def _table_tail_integral(phi_abs: Callable, lo: float) -> float:
    # integrate |phi(s)|/s over [lo, inf) in doubling blocks; declare
    # the tail non-integrable if the blocks never stop mattering
    total = 0.0
    left = lo
    for _ in range(_MAX_DOUBLINGS):
        right = 2.0 * left
        block = adaptive_quad(lambda s: phi_abs(s) / s, left, right,
                              tol=1e-12)
        total += block
        if abs(block) < 1e-12 * max(1.0, abs(total)):
            return total
        left = right
    raise ValueError("tail integral of the supplied |phi| did not settle; "
                     "the bias bound does not converge")


def bias_bound(phi, h: float) -> float:
    """Upper bound (1/pi) * integral of |phi(s)|/|s| over |s| > 1/h.

    `phi` is a SmoothnessClass with a closed-form tail, or a callable
    giving |phi(s)| for s > 0 (integrated numerically).
    """
    if not h > 0.0:
        raise ValueError("bandwidth must be positive")
    if isinstance(phi, SmoothnessClass):
        if phi.kind == BAND_LIMITED:
            if h * phi.b <= 1.0:
                return 0.0
            raise ValueError(
                "band-limited bound is exact only for h <= 1/b; larger "
                "bandwidths need the actual |phi| on (1/h, b)")
        if phi.kind == EXPONENTIAL:
            # 2D/pi * E1(d/h), the closed form of the exponential tail
            return 2.0 * phi.D / math.pi * float(exp1(phi.d / h))
        raise ValueError(
            "polynomial-tail inputs need an explicit |phi| callable")
    if not callable(phi):
        raise TypeError("phi must be a SmoothnessClass or a callable")
    return 2.0 / math.pi * _table_tail_integral(phi, 1.0 / h)


def optimal_bandwidth_preset(smoothness: SmoothnessClass, n,
                             a: float) -> float:
    """Rate-optimal bandwidth for the smoothness class.

    polynomial-tail: a * n^(-1/(2p+1)); exponential-tail: a / log n with
    a < 2d; band-limited: min(a, 1/b), a constant.  Real-valued n is
    accepted; only its magnitude enters the rate arithmetic.
    """
    if not a > 0.0:
        raise ValueError("preset constant a must be positive")
    if smoothness.kind == BAND_LIMITED:
        return min(a, 1.0 / smoothness.b)
    if not n > 1:
        raise ValueError("n must exceed 1")
    if smoothness.kind == POLYNOMIAL:
        return a * float(n) ** (-1.0 / (2.0 * smoothness.p + 1.0))
    if not a < 2.0 * smoothness.d:
        raise ValueError("exponential-tail preset needs a < 2d")
    return a / math.log(n)


def _require_comparable(s: MseExpansion, t: MseExpansion):
    if s.c != t.c or s.r != t.r or s.second_kind != t.second_kind \
            or s.delta != t.delta:
        raise ValueError("deficiency needs matching leading terms and "
                         "second-order kind")


def deficiency_rate(s: MseExpansion, t: MseExpansion):
    """Limit of the extra observations t needs to match s, with its rate.

    Power expansions: d / n^(1-delta) -> (b-a)/(c r).  Log-factor
    expansions: d log n / n -> (b-a)/(c r).  Returns (limit, rate
    descriptor string).
    """
    _require_comparable(s, t)
    limit = (t.second_const - s.second_const) / (s.c * s.r)
    if s.second_kind == POWER:
        return limit, f"n^{1.0 - s.delta:g}"
    return limit, "n/log n"


def predicted_deficiency(s: MseExpansion, t: MseExpansion, n) -> float:
    """Finite-n deficiency implied by the limit (remainders dropped);
    n must exceed 1."""
    limit, _ = deficiency_rate(s, t)
    if not n > 1:
        raise ValueError("n must exceed 1")
    n = float(n)
    if s.second_kind == POWER:
        return limit * n ** (1.0 - s.delta)
    return limit * n / math.log(n)


def edf_deficiency(smoothness: SmoothnessClass, F_t: float, f_t: float,
                   cross_moment: float, n, a: float) -> float:
    """Observations the unsmoothed estimator needs beyond the smoothed one.

    With the rate-optimal preset bandwidth the gain factor is
    g = 2 f(t) cross_moment / (F(1-F)); the deficiency is a*g*n^(2p/(2p+1))
    for polynomial tails, a*g*n/log n for exponential tails, and g*n in
    the band-limited case (constant bandwidth, displayed at unit h).
    n must exceed 1.
    """
    denom = F_t * (1.0 - F_t)
    if denom == 0.0:
        raise ValueError("deficiency is undefined where F(1-F) = 0")
    if f_t < 0.0:
        raise ValueError("density value must be nonnegative")
    if not n > 1:
        raise ValueError("n must exceed 1")
    gain = 2.0 * f_t * cross_moment / denom
    n = float(n)
    if smoothness.kind == POLYNOMIAL:
        return a * gain * n ** (2.0 * smoothness.p /
                                (2.0 * smoothness.p + 1.0))
    if smoothness.kind == EXPONENTIAL:
        return a * gain * n / math.log(n)
    return gain * n
