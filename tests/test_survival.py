from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftcdf.estimators as estimators
from ftcdf.bandwidth import ecf
from ftcdf.estimators import (CensoredSample, DegenerateSampleError,
                              EstimatorConfig, edf, smoothed_paths,
                              standardize_path)
from ftcdf.kernels import TRAPEZOID, FlatTopSpec, GaussianKernel, get_table
from ftcdf.survival import kaplan_meier, smoothed_survival_on_grid

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


def exact_km(sample):
    """The product-limit loop in exact rationals, one rounding per jump:
    (locations, heights) that kaplan_meier must reproduce bitwise."""
    times = sample.times
    order = np.sort(times)
    event_times, d = np.unique(times[sample.event], return_counts=True)
    at_risk = sample.n - np.searchsorted(order, event_times, side="left")
    surv = Fraction(1)
    heights = np.empty(event_times.size, dtype=float)
    for i in range(event_times.size):
        jump = surv * Fraction(int(d[i]), int(at_risk[i]))
        heights[i] = float(jump)
        surv -= jump
    return event_times, heights


def assert_km_is_exact(sample):
    km = kaplan_meier(sample)
    locs, heights = exact_km(sample)
    np.testing.assert_array_equal(km.locations, locs)
    np.testing.assert_array_equal(km.heights, heights)


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


def test_km_is_exact_on_heavily_censored_sample():
    rng = np.random.default_rng(90)
    times = np.round(rng.exponential(1.0, 3000), 2)  # ties as well
    event = rng.random(3000) < 0.1
    assert 0.88 < 1.0 - event.mean() < 0.92
    assert_km_is_exact(CensoredSample(times, event))


def test_km_is_exact_at_workload_size():
    # the survival benchmark's law at its size: lifetimes Weibull(shape 3,
    # scale 1.5), censoring Weibull(4, 3), about 7% censored
    rng = np.random.default_rng(2)
    life = 1.5 * rng.weibull(3.0, 20_000)
    cens = 3.0 * rng.weibull(4.0, 20_000)
    assert_km_is_exact(CensoredSample(np.minimum(life, cens), life <= cens))


def test_km_exact_fallback_keeps_the_bits(monkeypatch, spy):
    # at 50 bits the bounds often round apart, so the exact recomputation
    # runs; every height must still be the oracle's
    monkeypatch.setattr(estimators, "_KM_BITS", 50)
    calls = spy(estimators, "_exact_survival")
    rng = np.random.default_rng(50)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        times = rng.integers(0, 13, n) / 4.0
        event = rng.random(n) < rng.random()
        if event.any():
            assert_km_is_exact(CensoredSample(times, event))
    assert len(calls) > 100


def test_km_requires_an_event():
    with pytest.raises(DegenerateSampleError):
        kaplan_meier(CensoredSample(np.array([1.0]), np.array([False])))


def test_jump_measure_picks_edf_or_km():
    s = random_censored(4)
    km = s.jumps
    assert s.jumps is km
    np.testing.assert_array_equal(km.heights, kaplan_meier(s).heights)
    iid = CensoredSample.uncensored(np.round(s.times, 1))
    step = iid.jumps
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
    assert smoothed_survival_on_grid(s, cfg, [0.0])[0] == pytest.approx(
        km.heights[0] * 0.5, abs=1e-12)


def test_smoothed_survival_limits_and_complement():
    s = random_censored(7)
    km = kaplan_meier(s)
    tab = get_table(TRAP, 1e-8)
    cfg = EstimatorConfig(tab, 0.4)
    far = tab.tail_cutoff * 0.4 + 5.0
    assert smoothed_survival_on_grid(s, cfg, [-far])[0] == pytest.approx(
        km.total_mass, abs=1e-12)
    assert smoothed_survival_on_grid(s, cfg, [s.times.max() + far])[0] == 0.0
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
    cfg = EstimatorConfig(get_table(TRAP, 1e-8), 0.5, boundary=0.0)
    grid = np.linspace(0.0, 5.0, 201)
    vals = standardize_path(smoothed_survival_on_grid(s, cfg, grid),
                            decreasing=True)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    km = kaplan_meier(s)
    below = smoothed_paths(s, cfg, [-1.0], survival=True)[1][0]
    assert below == pytest.approx(km.total_mass, abs=1e-12)


@pytest.mark.parametrize("boundary", [None, 0.0])
@pytest.mark.parametrize("censored", [True, False])
def test_standardized_point_is_study_path_value(boundary, censored):
    s = random_censored(5)
    if not censored:
        s = CensoredSample.uncensored(s.times)
    tab = get_table(TRAP, 1e-8)
    cfg = EstimatorConfig(tab, 0.4, boundary=boundary)
    lo = boundary if boundary is not None else \
        s.times.min() - min(tab.tail_cutoff, 256.0) * 0.4
    for t in (lo - 1.0, 0.3, 1.0, 2.0):
        raw, std = smoothed_paths(s, cfg, np.array([t]), survival=True)
        # the standardized value is the running inf of the raw path from
        # its start up to t (1025 points joined with t), clipped to [0, 1]
        fine = np.union1d(np.linspace(min(lo, t), t, 1025), t)
        path = smoothed_survival_on_grid(s, cfg, fine)
        assert std[0] == min(max(path.min(), 0.0), 1.0)
        assert raw[0] == path[-1]


def test_survival_names_are_the_estimators_functions():
    # the survival module re-exports; both names hold one function
    assert kaplan_meier is estimators.kaplan_meier
    assert smoothed_survival_on_grid is estimators.smoothed_survival_on_grid


# small integer ticks force ties; each flag list may censor any subset
_TIED_SAMPLES = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 12), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(_TIED_SAMPLES)
def test_km_properties_on_tied_samples(drawn):
    ticks, flags = drawn
    times = np.array(ticks) / 4.0
    freqs = np.linspace(0.0, 8.0, 33)
    iid = CensoredSample.uncensored(times)
    km, e = kaplan_meier(iid), edf(iid)
    np.testing.assert_array_equal(km.locations, e.locations)
    np.testing.assert_array_equal(km.heights, e.heights)
    assert_km_is_exact(iid)
    samples = [iid]
    if any(flags):
        cens = CensoredSample(times, np.array(flags))
        assert_km_is_exact(cens)
        km = kaplan_meier(cens)
        # each height is its exact jump rounded once, and the exact jumps
        # sum to at most one
        assert sum(map(Fraction, km.heights)) <= 1 + Fraction(1, 2 ** 53)
        samples.append(cens)
    for s in samples:
        mags = ecf(s, freqs).magnitudes
        assert np.all((mags >= 0.0) & (mags <= 1.0))
