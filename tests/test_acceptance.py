"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a complete user-facing promise: the Monte Carlo
tables reproduce their frozen benchmark values within tolerance, the
kernel identities hold against independent quadrature, the deficiency
asymptotics match brute-force solves, the bandwidth selector
concentrates near its population target, shape constraints hold, and
simulation output is bitwise reproducible across worker counts.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from ftcdf.asymptotics import MseExpansion
from ftcdf.bandwidth import (BandwidthRule, auto_bandwidth, default_freq_grid,
                             ecf, select_bandwidth)
from ftcdf.cli import main
from ftcdf.estimators import (CensoredSample, EstimatorConfig, edf,
                              evaluate_on_grid, standardize_path)
from ftcdf.kernels import (TRAPEZOID, FlatTopSpec, GaussianKernel, get_table,
                           integrated_kernel, integrated_kernel_by_quad,
                           kernel, kernel_by_quad, kernel_cross_moment)
from ftcdf.simulate import (ESTIMATORS, builtin_scenario, run_scenario,
                            zero_bias_experiment)
from ftcdf.survival import kaplan_meier

TRAP = FlatTopSpec(TRAPEZOID, 0.75)
SEED = 42

# frozen benchmark MSE values (units of 1e-3) for the auto-bandwidth
# trapezoid estimator; rows n=15, 30, columns t=-1.5, 0, 1.5 for the
# normal study and the t=1.25 column for the censored Weibull study
TRAP_NORMAL_MSE = {(15, -1.5): 2.85e-3, (15, 0.0): 11.72e-3,
                   (15, 1.5): 2.93e-3, (30, -1.5): 1.48e-3,
                   (30, 0.0): 6.49e-3, (30, 1.5): 1.63e-3}
TRAP_WEIBULL_MSE = {15: 8.68e-3, 30: 4.28e-3}


@pytest.fixture(scope="module")
def normal_study():
    sc = builtin_scenario("normal-iid", seed=SEED)
    t0 = time.perf_counter()
    report = run_scenario(sc)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def weibull_study():
    sc = builtin_scenario("weibull-censored", seed=SEED)
    t0 = time.perf_counter()
    report = run_scenario(sc)
    return report, time.perf_counter() - t0


def test_criterion_1_normal_table_reproduction(normal_study):
    report, elapsed = normal_study
    for n in (15, 30):
        for t in (-1.5, 0.0, 1.5):
            F = norm.cdf(t)
            analytic = F * (1.0 - F) / n
            cell = report.cell("edf", t, n)
            assert abs(cell.mse - analytic) <= 3.0 * cell.se, \
                f"EDF off analytic MSE at (t={t}, n={n})"
            trap = report.cell("trap-auto", t, n)
            assert trap.mse < cell.mse, \
                f"trapezoid not below EDF at (t={t}, n={n})"
            ref = TRAP_NORMAL_MSE[(n, t)]
            assert abs(trap.mse - ref) <= 0.25 * ref, \
                f"trapezoid MSE {trap.mse:.3e} vs benchmark {ref:.3e}"
    assert elapsed < 60.0, f"normal study took {elapsed:.1f}s"


def test_criterion_2_censored_table_reproduction(weibull_study):
    report, elapsed = weibull_study
    for n in (15, 30):
        for t in (1.25, 1.75):
            km = report.cell("edf", t, n).mse
            for name in ("trap-auto", "smooth-auto"):
                assert report.cell(name, t, n).mse < km, \
                    f"{name} not below product-limit at (t={t}, n={n})"
        trap = report.cell("trap-auto", 1.25, n).mse
        ref = TRAP_WEIBULL_MSE[n]
        assert abs(trap - ref) <= 0.30 * ref, \
            f"trapezoid MSE {trap:.3e} vs benchmark {ref:.3e} at n={n}"
    assert elapsed < 120.0, f"censored study took {elapsed:.1f}s"


def test_criterion_3_exact_zero_bias_on_bandlimited_data():
    report = zero_bias_experiment(200, 0.5, 2000, SEED)
    for p in report.points:
        assert abs(p.bias) <= 2.0 * p.se, \
            f"bias {p.bias:.2e} exceeds 2 SE at t={p.t}"
    control = zero_bias_experiment(200, 5.0, 2000, SEED)
    assert any(abs(p.bias) > 3.0 * p.se for p in control.points), \
        "oversized bandwidth control arm shows no detectable bias"


def test_criterion_4_kernel_identities():
    rng = np.random.default_rng(12345)
    xs = rng.uniform(-30.0, 30.0, 1000)
    k_closed = kernel(TRAP, xs)
    kbar_closed = integrated_kernel(TRAP, xs)
    for x, kc, kb in zip(xs, k_closed, kbar_closed):
        assert abs(kc - kernel_by_quad(TRAP, x)) <= 1e-6
        assert abs(kb - integrated_kernel_by_quad(TRAP, x)) <= 1e-6
    assert abs(integrated_kernel(TRAP, 0.0) - 0.5) <= 1e-10
    table = get_table(TRAP)
    assert abs(table.kbar(0.0) - 0.5) <= 1e-10
    fine = np.linspace(table.grid[0], table.grid[-1], 2_000_001)
    mass = np.trapezoid(table.k(fine), fine)
    assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-6
    gauss_cm = kernel_cross_moment(GaussianKernel())
    assert abs(gauss_cm - 1.0 / (2.0 * math.sqrt(math.pi))) <= 1e-8


def brute_force_deficiency(s: MseExpansion, t: MseExpansion,
                           n: float) -> float:
    """Extra observations m - n solving MSE_T(m) = MSE_S(n) numerically."""
    target = s.mse(n)
    hi = 2.0 * n
    while t.mse(hi) > target:
        hi *= 2.0
    m = brentq(lambda v: t.mse(v) - target, n, hi, xtol=1e-9, rtol=1e-15)
    return m - n


def test_criterion_5_deficiency_matches_brute_force():
    n = 1e6
    tuples = [
        (1.0, 1.0, 0.0, 0.3, "power", 0.25),
        (1.0, 1.0, 0.0, 2.0, "power", 0.5),
        (2.0, 1.0, 0.1, 1.0, "power", 0.8),
        (1.5, 2.0, 0.2, 1.2, "power", 0.5),
        (1.0, 1.0, 0.0, 1.0, "log-factor", None),
    ]
    for c, r, a, b, kind, delta in tuples:
        s = MseExpansion(c, r, a, second_kind=kind, delta=delta)
        t = MseExpansion(c, r, b, second_kind=kind, delta=delta)
        d = brute_force_deficiency(s, t, n)
        rate = n ** (1.0 - delta) if kind == "power" else n / math.log(n)
        limit = (b - a) / (c * r)
        assert abs(d / rate - limit) <= 0.01 * limit, \
            f"tuple (c={c}, r={r}, {kind}, delta={delta}) drifts " \
            f"from its limit"


def test_criterion_6_bandwidth_selector_calibration():
    hs = []
    for seed in range(200):
        x = np.random.default_rng(seed).normal(size=10**4)
        hs.append(auto_bandwidth(CensoredSample.uncensored(x), 0.75))
    median = float(np.median(hs))
    # population target: |phi| = exp(-t^2/2) crosses 2*sqrt(log10(n)/n)
    target = 0.75 / math.sqrt(-2.0 * math.log(2.0 * math.sqrt(4.0 / 1e4)))
    assert abs(median - target) <= 0.20 * target, \
        f"median bandwidth {median:.4f} vs target {target:.4f}"
    # exact equivariance: scale the data by a power of two and match
    # the frequency grid and window width; every float op stays exact
    sample = CensoredSample.uncensored(
        np.random.default_rng(0).normal(size=500))
    freqs = default_freq_grid(sample)
    rule = BandwidthRule(C=2.0, epsilon=1.0, effective_c=0.75)
    h = select_bandwidth(ecf(sample, freqs), rule)
    for lam in (2.0, 0.25):
        scaled = CensoredSample.uncensored(lam * sample.times)
        matched = BandwidthRule(C=2.0, epsilon=1.0 / lam, effective_c=0.75)
        h_scaled = select_bandwidth(ecf(scaled, freqs / lam), matched)
        assert h_scaled == lam * h


def test_criterion_7_shape_guarantees(normal_study, weibull_study):
    # standardized rows never lose to their raw counterparts, in any cell
    for report, _ in (normal_study, weibull_study):
        for cell in report.cells:
            if cell.estimator.endswith("+raw"):
                plain = report.cell(cell.estimator[:-4], cell.t, cell.n)
                assert plain.mse <= cell.mse, \
                    f"standardization hurt {cell.estimator} at " \
                    f"(t={cell.t}, n={cell.n})"
    # standardized paths are valid CDFs
    table = get_table(TRAP)
    rng = np.random.default_rng(3)
    grid = np.linspace(-6.0, 6.0, 401)
    for _ in range(20):
        sample = CensoredSample.uncensored(rng.normal(size=25))
        h = auto_bandwidth(sample, 0.75)
        path = standardize_path(
            evaluate_on_grid(sample, EstimatorConfig(table, h), grid))
        assert np.all(np.diff(path) >= 0.0)
        assert path.min() >= 0.0 and path.max() <= 1.0
    # product-limit with no censoring collapses to the EDF bitwise
    times = np.array([0.5, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.5])
    sample = CensoredSample.uncensored(times)
    km = kaplan_meier(sample)
    step = edf(sample)
    query = np.concatenate([times, times - 0.25, times + 0.25])
    np.testing.assert_array_equal(km.survival(query),
                                  1.0 - step.cdf(query))
    # reflection pins the estimate to zero at the support boundary
    lifetimes = np.random.default_rng(8).weibull(3.0, 40) * 1.5
    sample = CensoredSample.uncensored(lifetimes)
    cfg = EstimatorConfig(table, 0.4, boundary=0.0)
    vals = evaluate_on_grid(sample, cfg, np.array([0.0, 0.5, 1.0]))
    assert vals[0] == 0.0


def test_criterion_8_worker_count_invariance(tmp_path, capsys):
    paths = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}.csv"
        code = main(["simulate", "--scenario", "weibull-censored",
                     "--n", "15", "--reps", "8", "--seed", str(SEED),
                     "--workers", str(workers), "--output", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["resolved_config"]["workers"] == workers
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "estimator,t,n,mse,bias,var,se,reps"
    # 4 estimators, 3 smoothed ones carry a raw diagnostic twin, at
    # 3 evaluation points each
    assert len(lines) == 1 + (len(ESTIMATORS) + 3) * 3
