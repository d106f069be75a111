from __future__ import annotations

import numpy as np
import pytest

from ftcdf.estimators import (CensoredSample, DegenerateSampleError,
                              EstimatorConfig, edf, smoothed_paths)
from ftcdf.kernels import TRAPEZOID, FlatTopSpec, GaussianKernel, get_table
from ftcdf.survival import (jump_measure, kaplan_meier, smoothed_survival,
                            smoothed_survival_on_grid)

TRAP = FlatTopSpec(TRAPEZOID, 0.75)


def textbook_km(times, event):
    """Independent product-limit routine: sorted loop with cumprod."""
    times = np.asarray(times, dtype=float)
    event = np.asarray(event, dtype=bool)
    tgrid = np.unique(times[event])
    surv = []
    s = 1.0
    for t in tgrid:
        at_risk = np.sum(times >= t)
        d = np.sum(times[event] == t)
        s *= 1.0 - d / at_risk
        surv.append(s)
    return tgrid, np.asarray(surv)


def random_censored(seed, n=60):
    rng = np.random.default_rng(seed)
    life = rng.weibull(1.5, n)
    cens = rng.weibull(2.0, n) * 1.3
    times = np.minimum(life, cens)
    return CensoredSample(times, life <= cens)


def test_km_hand_example():
    s = CensoredSample(np.array([1.0, 2.0, 3.0]),
                       np.array([True, False, True]))
    km = kaplan_meier(s)
    np.testing.assert_array_equal(km.locations, [1.0, 3.0])
    assert km.heights[0] == 1.0 / 3.0
    assert km.heights[1] == 2.0 / 3.0
    assert km.survival(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert km.survival(3.0) == 0.0


def test_km_equals_edf_without_censoring():
    rng = np.random.default_rng(4)
    xs = np.round(rng.standard_normal(37), 1)  # force ties
    s = CensoredSample.uncensored(xs)
    km = kaplan_meier(s)
    e = edf(s)
    np.testing.assert_array_equal(km.locations, e.locations)
    np.testing.assert_array_equal(km.heights, e.heights)


def test_km_censored_max_leaves_mass():
    s = CensoredSample(np.array([1.0, 2.0, 3.0]),
                       np.array([True, True, False]))
    km = kaplan_meier(s)
    assert km.total_mass < 1.0
    assert km.total_mass == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_km_requires_an_event():
    with pytest.raises(DegenerateSampleError):
        kaplan_meier(CensoredSample(np.array([1.0]), np.array([False])))


def test_jump_measure_picks_edf_or_km():
    s = random_censored(4)
    km = jump_measure(s)
    np.testing.assert_array_equal(km.heights, kaplan_meier(s).heights)
    iid = CensoredSample.uncensored(np.round(s.times, 1))
    step = jump_measure(iid)
    np.testing.assert_array_equal(step.locations, edf(iid).locations)
    np.testing.assert_array_equal(step.heights, kaplan_meier(iid).heights)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_km_matches_textbook_routine(seed):
    s = random_censored(seed)
    km = kaplan_meier(s)
    tgrid, surv = textbook_km(s.times, s.event)
    np.testing.assert_array_equal(km.locations, tgrid)
    np.testing.assert_allclose(km.survival(tgrid), surv, atol=1e-12)


def test_smoothed_single_event():
    s = CensoredSample(np.array([0.0, 1.0]), np.array([True, False]))
    km = kaplan_meier(s)
    cfg = EstimatorConfig(get_table(TRAP, 1e-8), 1.0)
    assert smoothed_survival(s, cfg, 0.0) == pytest.approx(
        km.heights[0] * 0.5, abs=1e-12)


def test_smoothed_survival_limits_and_complement():
    s = random_censored(7)
    km = kaplan_meier(s)
    tab = get_table(TRAP, 1e-8)
    cfg = EstimatorConfig(tab, 0.4)
    far = tab.tail_cutoff * 0.4 + 5.0
    assert smoothed_survival(s, cfg, -far) == pytest.approx(km.total_mass,
                                                            abs=1e-12)
    assert smoothed_survival(s, cfg, s.times.max() + far) == 0.0
    # complement identity against the smoothed CDF of the same measure
    from ftcdf.estimators import smoothed_measure_on_grid
    grid = np.linspace(-1.0, 4.0, 101)
    surv = smoothed_survival_on_grid(s, cfg, grid)
    cdf = smoothed_measure_on_grid(km.locations, km.heights, cfg, grid)
    np.testing.assert_allclose(surv + cdf, km.total_mass, atol=1e-12)


def test_smoothed_survival_uncensored_complement():
    rng = np.random.default_rng(12)
    s = CensoredSample.uncensored(rng.standard_normal(30))
    cfg = EstimatorConfig(GaussianKernel(), 0.5)
    from ftcdf.estimators import evaluate_on_grid
    grid = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(smoothed_survival_on_grid(s, cfg, grid),
                               1.0 - evaluate_on_grid(s, cfg, grid),
                               atol=1e-12)


def test_standardized_survival_shape():
    s = random_censored(11)
    cfg = EstimatorConfig(get_table(TRAP, 1e-8), 0.5, boundary=0.0,
                          standardize=True)
    grid = np.linspace(0.0, 5.0, 201)
    vals = smoothed_survival_on_grid(s, cfg, grid)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    km = kaplan_meier(s)
    assert smoothed_survival(s, cfg, -1.0) == pytest.approx(km.total_mass,
                                                            abs=1e-12)


@pytest.mark.parametrize("boundary", [None, 0.0])
@pytest.mark.parametrize("censored", [True, False])
def test_standardized_point_is_study_path_value(boundary, censored):
    s = random_censored(5)
    if not censored:
        s = CensoredSample.uncensored(s.times)
    tab = get_table(TRAP, 1e-8)
    cfg = EstimatorConfig(tab, 0.4, boundary=boundary, standardize=True)
    lo = boundary if boundary is not None else \
        s.times.min() - min(tab.tail_cutoff, 256.0) * 0.4
    for t in (lo - 1.0, 0.3, 1.0, 2.0):
        val = smoothed_survival(s, cfg, t)
        want = smoothed_paths(s, cfg, np.array([t]), jump_measure,
                              survival=True)[1][0]
        assert val == want
        if t > lo:
            fine = smoothed_survival_on_grid(s, cfg,
                                             np.linspace(lo, t, 1025))
            assert val == fine[-1]
