"""Bandwidth selection tests.

The threshold-rule example is checked against an analytic oracle: the
crossing of exp(-t^2/2) with the printed noise threshold solves
t* = sqrt(2 ln(1/thr)).  Monte Carlo bounds were calibrated once and
frozen as regression checks.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtr

from ftcdf.bandwidth import (
    PLATEAU,
    THRESHOLD,
    BandwidthRule,
    EcfCurve,
    NoPlateauError,
    auto_bandwidth,
    cv_bandwidth_km,
    default_cv_grid,
    default_freq_grid,
    default_rule,
    ecf,
    noise_threshold,
    select_bandwidth,
)
from ftcdf.distributions import DistSpec, sample_distribution
from ftcdf.estimators import CensoredSample, DegenerateSampleError


def cv_bandwidth_gaussian(sample: CensoredSample, h_grid,
                          quad_points: int = 256) -> float:
    """Oracle: leave-one-observation-out CV over the raw iid sample.

    CV(h) = (1/n) sum_i int [I(X_i <= t) - F_{h,-i}(t)]^2 w(t) dt with w
    the unnormalized indicator of [min - 3h, max + 3h] and a fixed-size
    trapezoidal quadrature grid; the first minimizer wins ties.
    """
    x = sample.times
    n = x.size
    best_h, best_cv = None, np.inf
    for h in np.asarray(h_grid, dtype=float):
        grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, quad_points)
        # n x m matrix of Phi((t - X_j)/h)
        phi = ndtr((grid[None, :] - x[:, None]) / h)
        total = phi.sum(axis=0)
        loo = (total[None, :] - phi) / (n - 1)
        resid = (x[:, None] <= grid[None, :]).astype(float) - loo
        cv = float(np.trapezoid(np.mean(resid ** 2, axis=0), grid))
        if cv < best_cv:
            best_h, best_cv = float(h), cv
    return best_h


def normal_curve(n: int, grid: np.ndarray) -> EcfCurve:
    return EcfCurve(grid, np.exp(-grid ** 2 / 2.0), n)


class TestEcf:
    def test_zero_frequency_is_one(self):
        rng = np.random.default_rng(0)
        s = CensoredSample.uncensored(rng.standard_normal(50))
        curve = ecf(s, np.array([0.0, 1.0]))
        assert curve.magnitudes[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_observation_flat(self):
        s = CensoredSample.uncensored(np.array([2.7]))
        curve = ecf(s, np.linspace(0.0, 10.0, 11))
        assert np.allclose(curve.magnitudes, 1.0, atol=1e-12)

    def test_conjugate_pair_cosine(self):
        x = 1.3
        s = CensoredSample.uncensored(np.array([-x, x]))
        t = np.linspace(0.0, 6.0, 61)
        curve = ecf(s, t)
        assert np.allclose(curve.magnitudes, np.abs(np.cos(t * x)),
                           atol=1e-12)

    def test_censored_uses_unrenormalized_km_mass(self):
        # censored largest observation leaves total mass 2/3
        s = CensoredSample(np.array([1.0, 2.0, 3.0]),
                           np.array([True, True, False]))
        curve = ecf(s, np.array([0.0]))
        assert curve.magnitudes[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            EcfCurve(np.array([1.0, 0.5]), np.array([0.1, 0.2]), 10)
        with pytest.raises(ValueError):
            EcfCurve(np.array([-1.0, 0.5]), np.array([0.1, 0.2]), 10)
        with pytest.raises(ValueError):
            EcfCurve(np.array([0.0, 0.5]), np.array([0.1]), 10)


class TestThresholdRule:
    def test_printed_threshold(self):
        assert noise_threshold(100, 2.0) == pytest.approx(0.2828, abs=5e-5)

    def test_normal_population_curve(self):
        # oracle: exp(-t^2/2) = thr at t = sqrt(2 ln(1/thr)) ~ 1.5893
        grid = np.linspace(0.0, 4.0, 4001)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=THRESHOLD)
        h = select_bandwidth(normal_curve(100, grid), rule)
        thr = noise_threshold(100, 2.0)
        t_root = np.sqrt(2.0 * np.log(1.0 / thr))
        assert 0.75 / h == pytest.approx(t_root, abs=2e-3)
        assert h == pytest.approx(0.472, abs=2e-3)

    def test_immediate_trigger_returns_first_positive_frequency(self):
        grid = np.linspace(0.0, 3.0, 301)
        mags = np.full(301, 1e-6)
        mags[0] = 1.0
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=THRESHOLD)
        h = select_bandwidth(EcfCurve(grid, mags, 100), rule)
        assert h == pytest.approx(0.75 / grid[1], rel=1e-15)

    def test_never_triggered_raises(self):
        grid = np.linspace(0.0, 3.0, 301)
        curve = EcfCurve(grid, np.ones(301), 100)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=THRESHOLD)
        with pytest.raises(NoPlateauError):
            select_bandwidth(curve, rule)

    def test_window_must_fit_in_grid(self):
        grid = np.linspace(0.0, 0.5, 51)
        curve = EcfCurve(grid, np.full(51, 1e-6), 100)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=THRESHOLD)
        with pytest.raises(NoPlateauError):
            select_bandwidth(curve, rule)

    def test_scale_equivariance_exact(self):
        lam = 4.0  # power of two keeps every float op exact
        rng = np.random.default_rng(21)
        x = rng.standard_normal(300)
        grid = np.linspace(0.0, 16.0, 1024)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=THRESHOLD)
        rule_scaled = BandwidthRule(C=2.0, epsilon=1.0 / lam,
                                    effective_c=0.75, mode=THRESHOLD)
        h1 = select_bandwidth(ecf(CensoredSample.uncensored(x), grid), rule)
        h2 = select_bandwidth(
            ecf(CensoredSample.uncensored(lam * x), grid / lam), rule_scaled)
        assert h2 == lam * h1

    def test_weakly_increasing_in_C(self):
        rng = np.random.default_rng(42)
        s = CensoredSample.uncensored(rng.standard_normal(500))
        grid = np.linspace(0.0, 12.0, 1024)
        curve = ecf(s, grid)
        hs = [select_bandwidth(
            curve, BandwidthRule(C=C, epsilon=1.0, effective_c=0.75,
                                 mode=THRESHOLD))
            for C in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(hs, hs[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        s = CensoredSample.uncensored(rng.standard_normal(200))
        a = auto_bandwidth(s, 0.75)
        b = auto_bandwidth(s, 0.75)
        assert a == b

    def test_median_h_decreases_with_n(self):
        med = {}
        for n in (100, 10_000):
            hs = []
            for seed in range(15):
                rng = np.random.default_rng(200 + seed)
                s = CensoredSample.uncensored(rng.standard_normal(n))
                hs.append(auto_bandwidth(s, 0.75))
            med[n] = np.median(hs)
        assert med[10_000] < med[100]

    def test_band_limited_recovers_support_edge(self):
        # Polya-type data: |phi| vanishes beyond t=1, so t* -> 1 and the
        # error shrinks as n grows
        rule = BandwidthRule(C=2.0, epsilon=0.5, effective_c=0.75,
                             mode=THRESHOLD)
        grid = np.linspace(0.0, 4.0, 2001)
        err = {}
        for n in (1000, 100_000):
            ts = []
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                x = sample_distribution(DistSpec("polya"), n, rng)
                h = select_bandwidth(
                    ecf(CensoredSample.uncensored(x), grid), rule)
                ts.append(0.75 / h)
            err[n] = abs(np.median(ts) - 1.0)
        assert err[100_000] < 0.05
        assert err[100_000] < err[1000]


class TestPlateauRule:
    def test_regression_value_on_normal_curve(self):
        # frozen from a calibration run of the slope statistic
        grid = np.linspace(0.0, 4.0, 4001)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75,
                             mode=PLATEAU)
        h = select_bandwidth(normal_curve(100, grid), rule)
        assert 0.75 / h == pytest.approx(1.485, abs=1e-3)

    def test_steep_curve_raises(self):
        grid = np.linspace(0.0, 2.0, 201)
        curve = EcfCurve(grid, 1.0 - 0.45 * grid, 100)
        rule = BandwidthRule(C=0.2, epsilon=1.0, effective_c=0.75,
                             mode=PLATEAU)
        with pytest.raises(NoPlateauError):
            select_bandwidth(curve, rule)


class TestDefaults:
    def test_default_rule(self):
        rule = default_rule(10_000, 0.75)
        assert rule.C == 2.0
        assert rule.epsilon == pytest.approx(4.0)
        assert rule.mode == THRESHOLD
        assert default_rule(10, 0.5).epsilon == 1.0

    def test_default_grid_covers_scaled_range(self):
        rng = np.random.default_rng(1)
        s = CensoredSample.uncensored(rng.standard_normal(400))
        grid = default_freq_grid(s)
        assert grid.size == 512
        assert grid[0] == 0.0
        q75, q25 = np.percentile(s.times, [75.0, 25.0])
        assert grid[-1] == pytest.approx(4.0 * np.pi * 1.349 / (q75 - q25))

    def test_robust_scale_fallbacks(self):
        # zero IQR falls back to the standard deviation, zero spread to 1
        spiked = CensoredSample.uncensored(np.array([0.0] * 7 + [4.0]))
        sd = float(np.std(spiked.times))
        assert default_freq_grid(spiked)[-1] == 4.0 * np.pi / sd
        assert np.array_equal(default_cv_grid(spiked),
                              np.geomspace(0.05, 2.0, 32) * sd)
        flat = CensoredSample.uncensored(np.full(5, 2.0))
        assert default_freq_grid(flat)[-1] == 4.0 * np.pi
        assert np.array_equal(default_cv_grid(flat),
                              np.geomspace(0.05, 2.0, 32))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule(C=0.0, epsilon=1.0, effective_c=0.75)
        with pytest.raises(ValueError):
            BandwidthRule(C=1.0, epsilon=1.0, effective_c=1.5)
        with pytest.raises(ValueError):
            BandwidthRule(C=1.0, epsilon=1.0, effective_c=0.75, mode="x")


class TestCrossValidation:
    def test_two_identical_points_prefers_smallest_h(self):
        # direct evaluation: CV(h) = h * int [1(u>=0) - Phi(u)]^2 du on
        # the standardized window, strictly increasing in h, so the
        # smallest grid bandwidth minimizes the objective
        s = CensoredSample.uncensored(np.array([1.0, 1.0]))
        grid = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        assert cv_bandwidth_km(s, grid) == 0.05
        assert cv_bandwidth_gaussian(s, grid) == 0.05

    def test_singleton_grid(self):
        rng = np.random.default_rng(4)
        s = CensoredSample.uncensored(rng.standard_normal(20))
        assert cv_bandwidth_km(s, [0.3]) == 0.3

    def test_interior_selection_rate(self):
        # calibrated at 40/40 seeds; frozen bound at >= 36
        hg = np.geomspace(0.05, 2.0, 32)
        inner = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            s = CensoredSample.uncensored(rng.standard_normal(30))
            h = cv_bandwidth_km(s, hg)
            inner += h not in (hg[0], hg[-1])
        assert inner >= 36

    def test_rejects_censored_and_bad_grids(self):
        # fewer than two events: nothing is left after leaving one out
        s = CensoredSample(np.array([1.0, 2.0]), np.array([True, False]))
        with pytest.raises(DegenerateSampleError):
            cv_bandwidth_km(s, [0.1])
        none = CensoredSample(np.array([1.0, 2.0]), np.array([False, False]))
        with pytest.raises(DegenerateSampleError):
            cv_bandwidth_km(none, [0.1])
        ok = CensoredSample.uncensored(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cv_bandwidth_km(ok, [])
        with pytest.raises(ValueError):
            cv_bandwidth_km(ok, [-0.1])
        with pytest.raises(DegenerateSampleError):
            cv_bandwidth_km(CensoredSample.uncensored(np.array([1.0])), [0.1])

    def test_km_variant_matches_iid_selector_without_ties(self):
        rng = np.random.default_rng(3)
        s = CensoredSample.uncensored(rng.standard_normal(40))
        hg = np.geomspace(0.05, 2.0, 32)
        assert cv_bandwidth_km(s, hg) == cv_bandwidth_gaussian(s, hg)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_on_tied_and_untied_iid(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal(15 + 5 * seed)
        for times in (x, np.round(x, 1), np.repeat(x[:8], 3)):
            s = CensoredSample.uncensored(times)
            hg = default_cv_grid(s)
            assert cv_bandwidth_km(s, hg) == cv_bandwidth_gaussian(s, hg)

    def test_tied_events_leave_out_one_event(self):
        # two events tied at one time: leaving one of them out keeps the
        # other, so the estimate is the same as for a single full jump
        s = CensoredSample(np.array([1.0, 1.0, 3.0]),
                           np.array([True, True, False]))
        h = cv_bandwidth_km(s, np.array([0.05, 0.1, 0.2, 0.4, 0.8]))
        assert h == 0.05

    def test_km_variant_runs_on_censored_data(self):
        rng = np.random.default_rng(8)
        t = rng.weibull(1.5, 60)
        c = 1.3 * rng.weibull(2.0, 60)
        s = CensoredSample(np.minimum(t, c), t <= c)
        h = cv_bandwidth_km(s, np.geomspace(0.05, 2.0, 16))
        assert 0.05 <= h <= 2.0
