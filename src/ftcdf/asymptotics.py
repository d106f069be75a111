"""Large-sample accuracy formulas.

Second-order MSE expansions, the smoothness classes of the
characteristic function, and the sample-size deficiency implied by a
pair of MSE expansions or by a smoothness class.  All formulas are
analytic; nothing here touches data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POWER = "power"
LOG_FACTOR = "log-factor"

POLYNOMIAL = "polynomial-tail"
EXPONENTIAL = "exponential-tail"
BAND_LIMITED = "band-limited"


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

    polynomial-tail: |phi(s)| decays like |s|^-p (p > 1/2).
    exponential-tail: |phi(s)| <= D exp(-d|s|) for some D.  band-limited:
    phi vanishes beyond some |s| = b.  The deficiency reads only p and d,
    so D and b are not stored.
    """
    kind: str
    p: float | None = None
    d: float | None = None

    def __post_init__(self):
        given = {k: v for k, v in (("p", self.p), ("d", self.d))
                 if v is not None}
        need = {POLYNOMIAL: {"p"}, EXPONENTIAL: {"d"},
                BAND_LIMITED: set()}.get(self.kind)
        if need is None:
            raise ValueError(f"unknown smoothness kind {self.kind!r}")
        if set(given) != need:
            raise ValueError(f"{self.kind} needs exactly {sorted(need)}")
        if any(v <= 0 for v in given.values()):
            raise ValueError("smoothness parameters must be positive")


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

    With the rate-optimal bandwidth (a n^(-1/(2p+1)) for polynomial
    tails, a / log n with a < 2d for exponential tails, a constant in the
    band-limited case) the gain factor is
    g = 2 f(t) cross_moment / (F(1-F)); the deficiency is a*g*n^(2p/(2p+1))
    for polynomial tails, a*g*n/log n for exponential tails, and g*n in
    the band-limited case (displayed at unit h, a ignored).  n must
    exceed 1, F(t) must lie in (0, 1), and outside the band-limited case
    a must be positive, and below 2d under exponential tails.
    edf_deficiency_rate gives the growth in n as text.
    """
    if not 0.0 <= F_t <= 1.0:
        raise ValueError("F_t must lie in [0, 1]")
    denom = F_t * (1.0 - F_t)
    if denom == 0.0:
        raise ValueError("deficiency is undefined where F(1-F) = 0")
    if f_t < 0.0:
        raise ValueError("density value must be nonnegative")
    if not n > 1:
        raise ValueError("n must exceed 1")
    if smoothness.kind != BAND_LIMITED and not a > 0.0:
        raise ValueError("preset constant a must be positive")
    if smoothness.kind == EXPONENTIAL and not a < 2.0 * smoothness.d:
        raise ValueError("exponential-tail preset needs a < 2d")
    gain = 2.0 * f_t * cross_moment / denom
    n = float(n)
    if smoothness.kind == POLYNOMIAL:
        return a * gain * n ** (2.0 * smoothness.p /
                                (2.0 * smoothness.p + 1.0))
    if smoothness.kind == EXPONENTIAL:
        return a * gain * n / math.log(n)
    return gain * n


def edf_deficiency_rate(smoothness: SmoothnessClass) -> str:
    """The growth in n of edf_deficiency, as a descriptor string."""
    if smoothness.kind == POLYNOMIAL:
        return f"n^{2.0 * smoothness.p / (2.0 * smoothness.p + 1.0):g}"
    return "n/log n" if smoothness.kind == EXPONENTIAL else "n"
