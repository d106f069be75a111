"""Accuracy-formula tests.

The deficiency calculators are checked against a brute-force oracle:
numerically solve MSE_T(m) = MSE_S(n) and compare the scaled d = m - n
with the limit formula.
"""
from __future__ import annotations

import dataclasses
import math

import pytest
from scipy.optimize import brentq

from ftcdf.asymptotics import (
    BAND_LIMITED,
    EXPONENTIAL,
    LOG_FACTOR,
    POLYNOMIAL,
    POWER,
    MseExpansion,
    SmoothnessClass,
    deficiency_rate,
    edf_deficiency,
    predicted_deficiency,
)


# five frozen comparison tuples; the brute-force oracle puts each
# within 1% of its limit at n = 10^6 (calibrated once, asserted below)
DEFICIENCY_TUPLES = [
    (MseExpansion(1.0, 1.0, 0.0, POWER, 0.25),
     MseExpansion(1.0, 1.0, 0.3, POWER, 0.25)),
    (MseExpansion(1.0, 1.0, 0.0, POWER, 0.5),
     MseExpansion(1.0, 1.0, 2.0, POWER, 0.5)),
    (MseExpansion(2.0, 1.0, 0.1, POWER, 0.8),
     MseExpansion(2.0, 1.0, 1.0, POWER, 0.8)),
    (MseExpansion(1.5, 2.0, 0.2, POWER, 0.5),
     MseExpansion(1.5, 2.0, 1.2, POWER, 0.5)),
    (MseExpansion(1.0, 1.0, 0.0, LOG_FACTOR),
     MseExpansion(1.0, 1.0, 1.0, LOG_FACTOR)),
]


def brute_force_scaled_deficiency(s: MseExpansion, t: MseExpansion,
                                  n: int) -> float:
    """Solve MSE_T(m) = MSE_S(n) for real m and scale d = m - n."""
    target = s.mse(n)
    m = brentq(lambda mm: t.mse(mm) - target, n / 8.0, 800.0 * n,
               xtol=1e-6, rtol=1e-14)
    d = m - n
    if s.second_kind == POWER:
        return d / n ** (1.0 - s.delta)
    return d * math.log(n) / n


class TestDeficiencyRate:
    def test_direct_substitution(self):
        s = MseExpansion(1.0, 1.0, 0.0, POWER, 0.5)
        t = MseExpansion(1.0, 1.0, 2.0, POWER, 0.5)
        limit, rate = deficiency_rate(s, t)
        assert limit == 2.0
        assert rate == "n^0.5"

    def test_identical_expansions_zero(self):
        s = MseExpansion(1.0, 1.0, 0.7, POWER, 0.5)
        assert deficiency_rate(s, s)[0] == 0.0

    def test_antisymmetric_in_second_consts(self):
        s = MseExpansion(2.0, 1.5, 0.3, POWER, 0.4)
        t = MseExpansion(2.0, 1.5, 1.1, POWER, 0.4)
        assert deficiency_rate(s, t)[0] == -deficiency_rate(t, s)[0]

    def test_log_factor_descriptor(self):
        s = MseExpansion(1.0, 1.0, 0.0, LOG_FACTOR)
        t = MseExpansion(1.0, 1.0, 1.0, LOG_FACTOR)
        limit, rate = deficiency_rate(s, t)
        assert limit == 1.0
        assert rate == "n/log n"

    def test_mismatched_expansions_rejected(self):
        base = MseExpansion(1.0, 1.0, 0.0, POWER, 0.5)
        for other in (MseExpansion(2.0, 1.0, 1.0, POWER, 0.5),
                      MseExpansion(1.0, 2.0, 1.0, POWER, 0.5),
                      MseExpansion(1.0, 1.0, 1.0, POWER, 0.25),
                      MseExpansion(1.0, 1.0, 1.0, LOG_FACTOR)):
            with pytest.raises(ValueError):
                deficiency_rate(base, other)

    @pytest.mark.parametrize("s,t", DEFICIENCY_TUPLES)
    def test_limits_match_brute_force_oracle(self, s, t):
        limit, _ = deficiency_rate(s, t)
        scaled = brute_force_scaled_deficiency(s, t, 10 ** 6)
        assert scaled == pytest.approx(limit, rel=0.01)

    def test_predicted_deficiency_arithmetic(self):
        s = MseExpansion(1.0, 1.0, 0.0, POWER, 0.5)
        t = MseExpansion(1.0, 1.0, 2.0, POWER, 0.5)
        assert predicted_deficiency(s, t, 10_000) == pytest.approx(200.0)
        sl = MseExpansion(1.0, 1.0, 0.0, LOG_FACTOR)
        tl = MseExpansion(1.0, 1.0, 1.0, LOG_FACTOR)
        n = 10_000
        assert predicted_deficiency(sl, tl, n) == \
            pytest.approx(n / math.log(n), rel=1e-15)

    @pytest.mark.parametrize("kind", [POWER, LOG_FACTOR])
    @pytest.mark.parametrize("n", [1, 0.5, -5, math.nan])
    def test_n_must_exceed_one(self, kind, n):
        # n = 1 divides by log n, and a negative n to a power is complex
        delta = 0.5 if kind == POWER else None
        s = MseExpansion(1.0, 1.0, 0.0, kind, delta)
        t = MseExpansion(1.0, 1.0, 2.0, kind, delta)
        with pytest.raises(ValueError, match="n must exceed 1"):
            predicted_deficiency(s, t, n)

    def test_expansion_validation(self):
        with pytest.raises(ValueError):
            MseExpansion(0.0, 1.0, 0.0, POWER, 0.5)
        with pytest.raises(ValueError):
            MseExpansion(1.0, -1.0, 0.0, POWER, 0.5)
        with pytest.raises(ValueError):
            MseExpansion(1.0, 1.0, 0.0, POWER)
        with pytest.raises(ValueError):
            MseExpansion(1.0, 1.0, 0.0, LOG_FACTOR, 0.5)
        with pytest.raises(ValueError):
            MseExpansion(1.0, 1.0, 0.0, "other")


class TestEdfDeficiency:
    CM = 0.1919132193379  # trapezoid-family cross moment, frozen oracle

    def test_band_limited_display_arithmetic(self):
        f_peak = 1.0 / (2.0 * math.pi)
        d = edf_deficiency(SmoothnessClass(BAND_LIMITED), 0.5, f_peak,
                           self.CM, 100, 1.0)
        assert d == pytest.approx(2.0 * f_peak * self.CM / 0.25 * 100.0,
                                  rel=1e-15)

    def test_zero_density_zero_deficiency(self):
        d = edf_deficiency(SmoothnessClass(BAND_LIMITED), 0.5, 0.0,
                           self.CM, 100, 1.0)
        assert d == 0.0

    def test_linear_in_n_for_band_limited(self):
        cls = SmoothnessClass(BAND_LIMITED)
        d1 = edf_deficiency(cls, 0.5, 0.2, self.CM, 500, 1.0)
        d2 = edf_deficiency(cls, 0.5, 0.2, self.CM, 1000, 1.0)
        assert d2 == 2.0 * d1

    def test_polynomial_rate(self):
        d = edf_deficiency(SmoothnessClass(POLYNOMIAL, p=1.0), 0.5, 0.2,
                           self.CM, 1000, 0.7)
        gain = 2.0 * 0.2 * self.CM / 0.25
        assert d == pytest.approx(0.7 * gain * 1000.0 ** (2.0 / 3.0),
                                  rel=1e-15)

    def test_exponential_rate(self):
        d = edf_deficiency(SmoothnessClass(EXPONENTIAL, d=1.0), 0.5, 0.2,
                           self.CM, 1000, 0.7)
        gain = 2.0 * 0.2 * self.CM / 0.25
        assert d == pytest.approx(0.7 * gain * 1000.0 / math.log(1000.0),
                                  rel=1e-15)

    @pytest.mark.parametrize("cls", [SmoothnessClass(POLYNOMIAL, p=2.0),
                                     SmoothnessClass(EXPONENTIAL, d=1.0),
                                     SmoothnessClass(BAND_LIMITED)],
                             ids=["polynomial", "exponential", "band-limited"])
    @pytest.mark.parametrize("n", [1, 0.5, -5, math.nan])
    def test_n_must_exceed_one(self, cls, n):
        with pytest.raises(ValueError, match="n must exceed 1"):
            edf_deficiency(cls, 0.5, 0.2, self.CM, n, 1.0)

    def test_degenerate_F_rejected(self):
        for F in (0.0, 1.0):
            with pytest.raises(ValueError):
                edf_deficiency(SmoothnessClass(BAND_LIMITED), F, 0.2,
                               self.CM, 100, 1.0)

    @pytest.mark.parametrize("cls,F,a,match", [
        (SmoothnessClass(POLYNOMIAL, p=2.0), 0.5, -1.0, "positive"),
        (SmoothnessClass(EXPONENTIAL, d=1.0), 0.5, 0.0, "positive"),
        (SmoothnessClass(EXPONENTIAL, d=1.0), 0.5, 2.0, "a < 2d"),
        (SmoothnessClass(EXPONENTIAL, d=1.0), 0.5, 5.0, "a < 2d"),
        (SmoothnessClass(POLYNOMIAL, p=2.0), 2.0, 1.0, "F_t"),
        (SmoothnessClass(BAND_LIMITED), -0.5, None, "F_t")])
    def test_refuses_what_preset_and_variance_refuse(self, cls, F, a,
                                                     match):
        with pytest.raises(ValueError, match=match):
            edf_deficiency(cls, F, 0.3, self.CM, 100, a)

    def test_band_limited_ignores_premultiplier(self):
        cls = SmoothnessClass(BAND_LIMITED)
        assert edf_deficiency(cls, 0.5, 0.3, self.CM, 100, None) == \
            edf_deficiency(cls, 0.5, 0.3, self.CM, 100, -1.0)

    def test_smoothness_class_validation(self):
        # the class holds only what the deficiency formulas read
        assert [f.name for f in dataclasses.fields(SmoothnessClass)] == \
            ["kind", "p", "d"]
        for kind, params in ((POLYNOMIAL, {}), (EXPONENTIAL, {}),
                             (EXPONENTIAL, {"d": 1.0, "p": 2.0}),
                             (BAND_LIMITED, {"p": 2.0}),
                             (POLYNOMIAL, {"p": -1.0}),
                             (EXPONENTIAL, {"d": 0.0}),
                             ("unknown", {"p": 1.0})):
            with pytest.raises(ValueError):
                SmoothnessClass(kind, **params)
