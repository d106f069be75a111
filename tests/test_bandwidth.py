"""Bandwidth selection tests.

The threshold-rule example is checked against an analytic oracle: the
crossing of exp(-t^2/2) with the printed noise threshold solves
t* = sqrt(2 ln(1/thr)).  Monte Carlo bounds were calibrated once and
frozen as regression checks.
"""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import ndtr

import ftcdf.bandwidth as bandwidth
from ftcdf.bandwidth import (
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
    threshold_scan,
)
from ftcdf.distributions import DistSpec, sample_distribution
from ftcdf.estimators import CensoredSample, DegenerateSampleError
from oracles import cv_bandwidth_loop


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


def direct_ecf(sample: CensoredSample, freqs: np.ndarray) -> np.ndarray:
    """Oracle: |sum_j s_j exp(i t x_j)|, one complex exp per term."""
    step = sample.jumps
    return np.abs(np.exp(1j * np.outer(freqs, step.locations))
                  @ step.heights)


def assert_matches_direct(sample: CensoredSample, freqs) -> None:
    freqs = np.asarray(freqs, dtype=float)
    got = ecf(sample, freqs).magnitudes
    phases = np.outer(freqs, sample.jumps.locations)
    tol = 1e-14 * max(1.0, float(np.max(np.abs(phases))))
    assert got.shape == freqs.shape
    assert np.max(np.abs(got - np.clip(direct_ecf(sample, freqs), 0.0, 1.0))
                  ) <= tol


def mixed_samples():
    """An iid sample and a censored one with ties, both of scale 3."""
    rng = np.random.default_rng(17)
    x = np.round(3.0 * rng.standard_normal(400), 2)
    return (CensoredSample.uncensored(x),
            CensoredSample(x, rng.random(400) < 0.6))


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

    @pytest.mark.parametrize("lo", [0.0, 0.7])
    @pytest.mark.parametrize("points", [1, 2, 63, 64, 65, 512])
    def test_uniform_grid_matches_direct_sum(self, points, lo):
        for sample in mixed_samples():
            assert_matches_direct(sample, np.linspace(lo, lo + 9.0, points))

    @pytest.mark.parametrize("freqs", [
        [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0],
        [0.25, 7.5],
        np.sort(np.random.default_rng(5).uniform(0.0, 12.0, 130))])
    def test_comma_list_grid_matches_direct_sum(self, freqs):
        for sample in mixed_samples():
            assert_matches_direct(sample, freqs)

    @pytest.mark.parametrize("block", [1, 64 * 7, 1000])
    def test_column_chunks_match_direct_sum(self, monkeypatch, block):
        # the sample's jumps are split into chunks of block // 64 columns
        # on a uniform grid and block // 130 on the 130-point list
        monkeypatch.setattr(bandwidth, "_ECF_BLOCK", block)
        grid = np.sort(np.random.default_rng(5).uniform(0.0, 12.0, 130))
        for sample in mixed_samples():
            assert_matches_direct(sample, np.linspace(0.0, 9.0, 200))
            assert_matches_direct(sample, grid)

    def test_largest_phase_overflow_raises(self):
        s = CensoredSample.uncensored(np.array([-2.0, 0.5, 3.0]))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                ecf(s, np.linspace(0.0, 1e308, 5))
            with pytest.raises(FloatingPointError):
                ecf(s, np.array([0.0, 1.0, 1e308]))

    @pytest.mark.parametrize("freqs", [[1.0, 0.5], [-1.0, 0.5], [0.0, 0.0],
                                       [], [[0.0, 1.0]]])
    def test_grid_is_validated(self, freqs):
        s = CensoredSample.uncensored(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ecf(s, np.array(freqs, dtype=float))

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
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
        h = select_bandwidth(normal_curve(100, grid), rule)
        thr = noise_threshold(100, 2.0)
        t_root = np.sqrt(2.0 * np.log(1.0 / thr))
        assert 0.75 / h == pytest.approx(t_root, abs=2e-3)
        assert h == pytest.approx(0.472, abs=2e-3)

    def test_immediate_trigger_returns_first_positive_frequency(self):
        grid = np.linspace(0.0, 3.0, 301)
        mags = np.full(301, 1e-6)
        mags[0] = 1.0
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
        h = select_bandwidth(EcfCurve(grid, mags, 100), rule)
        assert h == pytest.approx(0.75 / grid[1], rel=1e-15)

    def test_never_triggered_raises(self):
        grid = np.linspace(0.0, 3.0, 301)
        curve = EcfCurve(grid, np.ones(301), 100)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
        with pytest.raises(NoPlateauError):
            select_bandwidth(curve, rule)

    def test_window_must_fit_in_grid(self):
        # a grid shorter than the window, and one whose spacing of 2
        # leaves no grid point inside any window
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
        for grid in (np.linspace(0.0, 0.5, 51), np.linspace(0.0, 10.0, 6)):
            curve = EcfCurve(grid, np.full(grid.size, 1e-6), 100)
            with pytest.raises(NoPlateauError):
                select_bandwidth(curve, rule)

    @pytest.mark.parametrize("n, draws", [(300, 200), (2000, 60),
                                          (20000, 20)])
    def test_heavily_censored_samples_fall_back_to_the_effective_size(
            self, n, draws):
        # lifetimes 1.5 W(3), censoring 1.2 W(3): about 66 % censored.
        # The Kaplan-Meier measure's large late heights can lift its
        # ECF's noise floor above the threshold at n; then the scan runs
        # again at n_eff, and a fit that the scan at n finds keeps it
        rng = np.random.default_rng(19)
        fell_back = 0
        for _ in range(draws):
            life, cens = 1.5 * rng.weibull(3.0, n), 1.2 * rng.weibull(3.0, n)
            sample = CensoredSample(np.minimum(life, cens), life <= cens)
            curve = ecf(sample, default_freq_grid(sample))
            heights = sample.jumps.heights
            assert curve.n_eff == pytest.approx(
                heights.sum() ** 2 / np.sum(heights ** 2), rel=1e-12)
            assert curve.n_eff < n / 2
            rule = default_rule(n, 0.5)
            h = auto_bandwidth(sample, 0.5)
            t_star, thr = threshold_scan(curve, rule)
            assert h == 0.5 / t_star
            try:
                at_n = select_bandwidth(replace(curve, n_eff=None), rule)
            except NoPlateauError:
                fell_back += 1
                assert thr == noise_threshold(curve.n_eff, rule.C)
            else:
                assert h == at_n and thr == noise_threshold(n, rule.C)
        assert fell_back > 0

    def test_only_kaplan_meier_measures_fall_back(self):
        # an EDF, tied or not, has no fallback size: outside the scale
        # window it refuses as before; so does a Kaplan-Meier measure
        # whose window no threshold can fill
        x = np.random.default_rng(2026).standard_normal(300)
        for times in (8.0 * x, np.round(8.0 * x)):
            sample = CensoredSample.uncensored(times)
            assert ecf(sample, default_freq_grid(sample)).n_eff is None
            with pytest.raises(NoPlateauError):
                auto_bandwidth(sample, 0.75)
        censored = CensoredSample(1000.0 * np.abs(x), x < 1.0)
        assert ecf(censored, default_freq_grid(censored)).n_eff > 1.0
        with pytest.raises(NoPlateauError):
            auto_bandwidth(censored, 0.75)

    def test_scale_equivariance_exact(self):
        lam = 4.0  # power of two keeps every float op exact
        rng = np.random.default_rng(21)
        x = rng.standard_normal(300)
        grid = np.linspace(0.0, 16.0, 1024)
        rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
        rule_scaled = BandwidthRule(C=2.0, epsilon=1.0 / lam,
                                    effective_c=0.75)
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
            curve, BandwidthRule(C=C, epsilon=1.0, effective_c=0.75))
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
        rule = BandwidthRule(C=2.0, epsilon=0.5, effective_c=0.75)
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


class TestDefaults:
    def test_default_rule(self):
        rule = default_rule(10_000, 0.75)
        assert [f.name for f in fields(rule)] == ["C", "epsilon",
                                                  "effective_c"]
        assert rule.C == 2.0
        assert rule.epsilon == pytest.approx(4.0)
        assert default_rule(10, 0.5).epsilon == 1.0
        assert default_rule(2, 0.5).epsilon == 1.0
        # at n = 1 the noise threshold C*sqrt(log10(n)/n) is 0
        with pytest.raises(DegenerateSampleError,
                           match="the threshold rule needs at least two rows"):
            default_rule(1, 0.5)
        # a bad effective_c is named before the one-row sample
        with pytest.raises(ValueError,
                           match=r"effective_c must lie in \(0, 1\]"):
            default_rule(1, 0.0)

    def test_default_grid_covers_scaled_range(self):
        rng = np.random.default_rng(1)
        s = CensoredSample.uncensored(rng.standard_normal(400))
        grid = default_freq_grid(s)
        assert grid.size == 512
        assert grid[0] == 0.0
        q75, q25 = np.percentile(s.times, [75.0, 25.0])
        assert grid[-1] == pytest.approx(4.0 * np.pi * 1.349 / (q75 - q25))

    def test_robust_scale_fallbacks(self):
        # zero IQR falls back to the standard deviation; times that are
        # all equal have the scale max|time|, and all zero the scale 1
        spiked = CensoredSample.uncensored(np.array([0.0] * 7 + [4.0]))
        sd = float(np.std(spiked.times))
        assert default_freq_grid(spiked)[-1] == 4.0 * np.pi / sd
        assert np.array_equal(default_cv_grid(spiked),
                              np.geomspace(0.05, 2.0, 32) * sd)
        flat = CensoredSample.uncensored(np.full(5, 2.0))
        assert default_freq_grid(flat)[-1] == 4.0 * np.pi / 2.0
        assert np.array_equal(default_cv_grid(flat),
                              np.geomspace(0.05, 2.0, 32) * 2.0)
        # a standard deviation of rounding noise (1.4e-17) is no scale
        tenths = CensoredSample.uncensored(np.full(3, -0.1))
        assert np.std(tenths.times) > 0.0
        assert default_freq_grid(tenths)[-1] == 4.0 * np.pi / 0.1
        zeros = CensoredSample.uncensored(np.zeros(4))
        assert default_freq_grid(zeros)[-1] == 4.0 * np.pi
        assert np.array_equal(default_cv_grid(zeros),
                              np.geomspace(0.05, 2.0, 32))

    def test_robust_scale_neither_underflows_nor_overflows(self):
        # without an IQR, the standard deviation is taken of the times
        # over a power of two: it doubles with the data at any magnitude,
        # and keeps np.std's bits wherever that is finite and positive
        def spiked(top):
            return CensoredSample.uncensored(np.array([0.0] * 7 + [top]))

        for top in (1e-200, 1e300, 2.0 ** 1022):
            grid = default_cv_grid(spiked(top))
            assert np.all(np.isfinite(grid)) and np.all(grid > 0.0), top
            assert np.array_equal(default_cv_grid(spiked(2.0 * top)),
                                  2.0 * grid), top
        assert (default_cv_grid(spiked(1e-200))[0]
                == 0.05 * 3.307189138830738e-201)
        # a scale below the least subnormal is refused
        with pytest.raises(DegenerateSampleError, match="no scale"):
            default_cv_grid(spiked(5e-324))
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = np.zeros(int(rng.integers(4, 30)))
            k = int(rng.integers(1, x.size // 4 + 1))
            x[:k] = rng.standard_normal(k) * 10.0 ** rng.integers(-100, 100)
            x += rng.choice([0.0, 3.0, -1e5])
            s = CensoredSample.uncensored(x)
            q75, q25 = np.percentile(x, [75.0, 25.0])
            if q75 == q25 and x.min() < x.max():
                assert default_cv_grid(s)[-1] == 2.0 * float(np.std(x))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule(C=0.0, epsilon=1.0, effective_c=0.75)
        with pytest.raises(ValueError):
            BandwidthRule(C=1.0, epsilon=1.0, effective_c=1.5)


class TestCrossValidation:
    def test_two_identical_points_prefers_smallest_h(self):
        # direct evaluation: CV(h) = h * int [1(u>=0) - Phi(u)]^2 du on
        # the standardized window, strictly increasing in h, so the
        # smallest grid bandwidth minimizes the objective
        s = CensoredSample.uncensored(np.array([1.0, 1.0]))
        grid = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        assert cv_bandwidth_km(s, grid) == 0.05
        assert cv_bandwidth_gaussian(s, grid) == 0.05

    def test_tie_counts_come_from_the_measure(self, spy):
        # the jump measure counts its ties once; the CV divides by them
        rng = np.random.default_rng(35)
        x = np.round(rng.exponential(size=40), 1)
        s = CensoredSample(x, rng.random(40) < 0.7)
        assert np.any(s.jumps.counts > 1)
        grid = default_cv_grid(s)
        calls = spy(np, "unique")
        h = cv_bandwidth_km(s, grid)
        assert calls == []
        assert h == cv_bandwidth_loop(s, grid)

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocked_quadrature_grid_keeps_h(self, monkeypatch, seed):
        # a 200-jump sample in blocks of 1, 3 and 13 quadrature points
        rng = np.random.default_rng(seed)
        t = rng.weibull(1.5, 200)
        c = 1.3 * rng.weibull(2.0, 200)
        samples = (CensoredSample.uncensored(rng.standard_normal(200)),
                   CensoredSample(np.minimum(t, c), t <= c))
        assert samples[1].jumps.locations.size < 200
        one_block = [cv_bandwidth_km(s, default_cv_grid(s))
                     for s in samples]
        for block in (1, 600, 2600):
            monkeypatch.setattr(bandwidth, "_CV_BLOCK", block)
            assert [cv_bandwidth_km(s, default_cv_grid(s))
                    for s in samples] == one_block

    @pytest.mark.parametrize("group", [1, 3, 32])
    def test_bandwidth_groups_keep_h(self, monkeypatch, group):
        # groups of 1, 3 and all 32 bandwidths of a 30-jump sample
        rng = np.random.default_rng(group)
        x = rng.standard_normal(30)
        s = CensoredSample(np.round(x, 1), rng.random(30) < 0.8)
        want = cv_bandwidth_loop(s, default_cv_grid(s))
        monkeypatch.setattr(bandwidth, "_CV_GROUP",
                            group * 256 * s.jumps.locations.size)
        assert cv_bandwidth_km(s, default_cv_grid(s)) == want

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 128, 129, 4097])
    def test_matches_the_per_bandwidth_loop(self, n):
        # jump counts on both sides of the group sizes: 64 and more
        # bandwidths per array, 2, 1 of 256 columns, then column blocks
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        samples = [CensoredSample.uncensored(x)]
        if n < 4097:
            # ties, and about 20 % censoring
            samples += [CensoredSample.uncensored(np.round(x, 1)),
                        CensoredSample(x, np.arange(n) % 5 != 4)]
        for s in samples:
            hg = default_cv_grid(s)
            assert cv_bandwidth_km(s, hg) == cv_bandwidth_loop(s, hg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subnormal_steps_keep_each_rows_own_grid(self, seed):
        # times (100 + k) * 5e-324: the quadrature step (hi - lo) / 255
        # underflows to 0 at the small bandwidths and not at the large
        # ones; one linspace call over all rows would give every row the
        # underflow formula, which on seeds 0 and 2 moves h when the
        # grid descends
        rng = np.random.default_rng(seed)
        t = (100 + rng.integers(0, 50, 25)) * 5e-324
        s = CensoredSample(t, rng.random(25) < 0.8)
        hg = np.geomspace(1e-323, 1e-320, 16)
        steps = (np.ptp(s.jumps.locations) + 6.0 * hg) / 255
        assert (steps == 0.0).any() and (steps > 0.0).any()
        for grid in (hg, hg[::-1]):
            assert cv_bandwidth_km(s, grid) == cv_bandwidth_loop(s, grid)

    def test_term_cap_refuses_before_any_work(self, monkeypatch):
        # 40 jumps x 256 quadrature points x 32 bandwidths
        s = CensoredSample.uncensored(np.arange(40.0))
        monkeypatch.setattr(bandwidth, "MAX_KERNEL_TERMS", 327_679)

        def no_ndtr(x):
            raise AssertionError("the CV evaluated the kernel")

        monkeypatch.setattr(bandwidth, "ndtr", no_ndtr)
        with pytest.raises(ValueError, match="the CV needs 327680 terms "
                           r"\(jumps x grid points x bandwidths\), above "
                           "the cap of 327679"):
            cv_bandwidth_km(s, default_cv_grid(s))

    def test_km_variant_runs_on_censored_data(self):
        rng = np.random.default_rng(8)
        t = rng.weibull(1.5, 60)
        c = 1.3 * rng.weibull(2.0, 60)
        s = CensoredSample(np.minimum(t, c), t <= c)
        h = cv_bandwidth_km(s, np.geomspace(0.05, 2.0, 16))
        assert 0.05 <= h <= 2.0
