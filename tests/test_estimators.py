from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import ftcdf.estimators as estimators
from ftcdf._special import load as load_special
from ftcdf.estimators import (CensoredSample, EstimatorConfig, StepEstimate,
                              edf, evaluate_on_grid, smoothed_paths,
                              smoothed_survival_on_grid, standardize_path)
from ftcdf.kernels import (SMOOTH, TRAPEZOID, FlatTopSpec, GaussianKernel,
                           KernelTable, _KbarSpline, get_table,
                           integrated_kernel)
from ftcdf.simulate import builtin_scenario, run_scenario
from oracles import blockwise_product

TRAP = FlatTopSpec(TRAPEZOID, 0.75)


def trap_table():
    return get_table(TRAP, 1e-8)


def test_sample_validation():
    with pytest.raises(ValueError):
        CensoredSample(np.array([]), np.array([], dtype=bool))
    with pytest.raises(ValueError):
        CensoredSample(np.array([1.0, np.nan]), np.array([True, True]))
    with pytest.raises(ValueError):
        CensoredSample(np.array([1.0, 2.0]), np.array([True]))
    s = CensoredSample.uncensored([3.0, 1.0])
    assert s.n == 2 and np.all(s.event)


def test_sample_stores_frozen_copies():
    times = np.array([3.0, 1.0, 2.0])
    event = np.array([True, False, True])
    s = CensoredSample(times, event)
    times[0], event[1] = 99.0, True
    assert s.times[0] == 3.0 and not s.event[1]
    with pytest.raises(ValueError):
        s.times[0] = 0
    with pytest.raises(ValueError):
        s.event[0] = False
    # the cached measure is shared between fits, so it is frozen too
    assert s.jumps is s.jumps
    with pytest.raises(ValueError):
        s.jumps.heights[0] = 0.5
    locs, hts = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    step = StepEstimate(locs, hts)
    locs[0], hts[0] = 0.0, 0.25
    assert step.locations[0] == 1.0 and step.heights[0] == 0.5
    with pytest.raises(ValueError):
        step.locations[0] = 0.0


def test_cdf_rejects_censored_data():
    s = CensoredSample(np.array([1.0, 2.0, 3.0]),
                       np.array([True, False, True]))
    cfg = EstimatorConfig(GaussianKernel(), 0.5)
    with pytest.raises(ValueError, match="uncensored"):
        evaluate_on_grid(s, cfg, [0.0, 1.0])
    with pytest.raises(ValueError, match="uncensored"):
        smoothed_paths(s, cfg, [1.0])


def test_config_validation():
    for h in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            EstimatorConfig(GaussianKernel(), h)
    with pytest.raises(TypeError):
        EstimatorConfig(object(), 1.0)


def test_step_estimate_validation_and_eval():
    with pytest.raises(ValueError):
        StepEstimate(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        StepEstimate(np.array([1.0, 2.0]), np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        StepEstimate(np.array([1.0]), np.array([1.5]))
    step = StepEstimate(np.array([1.0, 3.0]), np.array([0.25, 0.5]))
    assert step.total_mass == 0.75
    assert step.cdf(0.0) == 0.0
    assert step.cdf(1.0) == 0.25
    np.testing.assert_allclose(step.cdf(np.array([2.0, 3.0, 9.0])),
                               [0.25, 0.75, 0.75])
    assert step.survival(3.0) == pytest.approx(0.25)


def test_edf_examples():
    s = CensoredSample.uncensored([1.0, 2.0, 3.0])
    e = edf(s)
    assert e.cdf(2.0) == pytest.approx(2.0 / 3.0, abs=0)
    tied = edf(CensoredSample.uncensored([1.0, 1.0, 2.0]))
    assert tied.cdf(1.0) == pytest.approx(2.0 / 3.0, abs=0)
    assert tied.heights[0] == 2.0 / 3.0
    assert e.cdf(0.5) == 0.0
    assert e.cdf(3.0) == 1.0
    with pytest.raises(ValueError):
        edf(CensoredSample(np.array([1.0, 2.0]), np.array([True, False])))


def test_standardize_path_examples():
    np.testing.assert_allclose(standardize_path([0.1, 0.05, 0.3]),
                               [0.1, 0.1, 0.3])
    np.testing.assert_allclose(standardize_path([-0.02, 0.5, 1.01]),
                               [0.0, 0.5, 1.0])
    valid = np.array([0.0, 0.2, 0.2, 0.9, 1.0])
    np.testing.assert_array_equal(standardize_path(valid), valid)
    assert standardize_path(np.array([])).size == 0
    np.testing.assert_array_equal(
        standardize_path([1.02, 0.9, 0.95, -0.01], decreasing=True),
        [1.0, 0.9, 0.9, 0.0])


@pytest.mark.parametrize("kern", [GaussianKernel(), None])
def test_single_point_sample_half(kern):
    kern = kern or trap_table()
    s = CensoredSample.uncensored([0.0])
    cfg = EstimatorConfig(kern, 1.0)
    assert evaluate_on_grid(s, cfg, [0.0])[0] == pytest.approx(0.5,
                                                                abs=1e-12)


def test_smoothed_cdf_limits():
    tab = trap_table()
    s = CensoredSample.uncensored([-1.0, 0.5, 2.0])
    cfg = EstimatorConfig(tab, 0.3)
    far = tab.tail_cutoff * 0.3 + 3.0
    np.testing.assert_array_equal(
        evaluate_on_grid(s, cfg, [-1.0 - far, 2.0 + far]), [0.0, 1.0])


def test_small_bandwidth_recovers_edf():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal(50)
    s = CensoredSample.uncensored(xs)
    cfg = EstimatorConfig(trap_table(), 1e-9)
    sorted_x = np.sort(xs)
    mids = 0.5 * (sorted_x[:-1] + sorted_x[1:])
    e = edf(s)
    np.testing.assert_allclose(evaluate_on_grid(s, cfg, mids), e.cdf(mids),
                               atol=1e-12)


def test_boundary_reflection():
    rng = np.random.default_rng(9)
    xs = rng.exponential(1.0, 40)
    s = CensoredSample.uncensored(xs)
    tab = trap_table()
    cfg = EstimatorConfig(tab, 0.4, boundary=0.0)
    np.testing.assert_array_equal(evaluate_on_grid(s, cfg, [-0.5, 0.0]),
                                  [0.0, 0.0])
    # independent reflection arithmetic at a few points
    for t in (0.3, 1.0, 2.5):
        plain = np.mean(tab.kbar((t - xs) / 0.4))
        refl = np.mean(tab.kbar((-t - xs) / 0.4))
        assert evaluate_on_grid(s, cfg, [t])[0] == pytest.approx(
            plain - refl, abs=1e-12)
    with pytest.raises(ValueError):
        evaluate_on_grid(s, EstimatorConfig(tab, 0.4, boundary=1.0),
                         np.array([1.0]))


def test_grid_matches_scalar_and_validates():
    rng = np.random.default_rng(2)
    s = CensoredSample.uncensored(rng.standard_normal(30))
    cfg = EstimatorConfig(trap_table(), 0.5)
    grid = np.linspace(-3, 3, 21)
    vals = evaluate_on_grid(s, cfg, grid)
    for i in (0, 10, 20):
        # equal up to BLAS summation order (one row versus many)
        assert vals[i] == pytest.approx(
            evaluate_on_grid(s, cfg, grid[i:i + 1])[0], abs=1e-14)
    assert evaluate_on_grid(s, cfg, np.array([])).size == 0
    with pytest.raises(ValueError):
        evaluate_on_grid(s, cfg, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        evaluate_on_grid(
            CensoredSample(np.array([1.0, 2.0]), np.array([True, False])),
            cfg, grid)


def test_standardized_path_shape():
    rng = np.random.default_rng(14)
    xs = np.abs(rng.standard_normal(25))
    s = CensoredSample.uncensored(xs)
    cfg = EstimatorConfig(trap_table(), 0.6, boundary=0.0)
    grid = np.linspace(0.0, 4.0, 301)
    vals = standardize_path(evaluate_on_grid(s, cfg, grid))
    assert np.all(np.diff(vals) >= 0.0)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert vals[0] == 0.0


def test_smoothed_cdf_is_continuous():
    rng = np.random.default_rng(8)
    s = CensoredSample.uncensored(rng.standard_normal(40))
    cfg = EstimatorConfig(trap_table(), 0.5)
    grid = np.linspace(-3, 3, 6001)
    vals = evaluate_on_grid(s, cfg, grid)
    # modulus of continuity bounded by max kernel density / h
    step = grid[1] - grid[0]
    assert np.max(np.abs(np.diff(vals))) <= 0.30 / 0.5 * step


@pytest.mark.parametrize("boundary", [None, 0.0])
def test_standardized_point_is_study_path_value(boundary):
    rng = np.random.default_rng(21)
    xs = np.abs(rng.standard_normal(30))
    s = CensoredSample.uncensored(xs)
    tab = trap_table()
    cfg = EstimatorConfig(tab, 0.4, boundary=boundary)
    # path start: the boundary, else min(tail_cutoff, 256) h below the data
    lo = boundary if boundary is not None else \
        xs.min() - min(tab.tail_cutoff, 256.0) * 0.4
    for t in (lo - 1.0, 0.2, 1.0, 2.5):
        raw, std = smoothed_paths(s, cfg, np.array([t]))
        # the standardized value is the running sup of the raw path from
        # its start up to t (1025 points joined with t), clipped to [0, 1]
        fine = np.union1d(np.linspace(min(lo, t), t, 1025), t)
        path = evaluate_on_grid(s, cfg, fine)
        assert std[0] == min(max(path.max(), 0.0), 1.0)
        assert raw[0] == path[-1]
    pts = np.array([0.2, 1.0, 2.5])
    raw, std = smoothed_paths(s, cfg, pts)
    for t, r in zip(pts, raw):
        # equal up to BLAS summation order (one row versus many)
        assert r == pytest.approx(evaluate_on_grid(s, cfg, [t])[0],
                                  abs=1e-14)
    assert np.all(np.diff(std) >= 0.0)


def _kernel_sum_case(kind, jumps=18_650, points=201):
    """A kernel, and points over 0..4 on the sorted jumps of a censored
    Weibull sample of 20 000; by default 201 points over 18 650 jumps,
    56 rows of points per block of the sum."""
    kern = GaussianKernel() if kind == "gaussian" else get_table(
        FlatTopSpec(kind))
    rng = np.random.default_rng(11)
    locations = np.sort(1.5 * rng.weibull(3.0, jumps))
    weights = np.full(locations.size, 1.0 / 20_000)
    return kern, locations, weights, np.linspace(0.0, 4.0, points)


@pytest.mark.parametrize("kind", [TRAPEZOID, SMOOTH, "gaussian"])
def test_kernel_sum_holds_one_block(kind):
    kern, locations, weights, points = _kernel_sum_case(kind)
    # scipy.special and the first ndtr and lookup calls allocate once
    load_special()
    estimators._kbar_sum(locations[:10], weights[:10], kern, 0.05, points)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimators._kbar_sum(locations, weights, kern, 0.05, points)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a chunk holds at most _CHUNK + 3 rows of values; a table lookup
    # adds about 1 MiB of temporaries, 8 arrays of one lookup block
    chunk = 8 * (estimators._CHUNK + 3 * locations.size)
    assert peak <= chunk + 2**20


@pytest.mark.parametrize("kind", [TRAPEZOID, "gaussian"])
@pytest.mark.parametrize("block", [1, 4000, 1 << 20])
def test_kernel_sum_is_the_blockwise_product(monkeypatch, kind, block):
    kern, locations, weights, points = _kernel_sum_case(kind)
    locations, weights = locations[::50], weights[::50]
    monkeypatch.setattr(estimators, "_BLOCK", block)
    want = blockwise_product(kern, locations, weights, points, 0.05)
    got = estimators._kbar_sum(locations, weights, kern, 0.05, points)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [TRAPEZOID, "gaussian"])
@pytest.mark.parametrize("jumps,points", [
    # rows per block (_BLOCK // jumps) and the last block's rows
    (19_500, 112),  # 53 = 1 mod 4, then 6
    (30_000, 71),   # 34 = 2 mod 4, then 3
    (18_900, 62),   # 55 = 3 mod 4, then 7
    (18_650, 745),  # 56 = 0 mod 4, then 17
])
def test_kernel_sum_chunks_keep_the_blockwise_bits(
        monkeypatch, blas_threads_at, kind, jumps, points):
    # in 4-row chunks, a block's 1-3 leftover rows must join its last
    # chunk: a gemv of the leftover rows alone sums them by another path
    blas_threads_at(1)
    kern, locations, weights, grid = _kernel_sum_case(kind, jumps, points)
    monkeypatch.setattr(estimators, "_CHUNK", 1)
    want = blockwise_product(kern, locations, weights, grid, 0.05)
    got = estimators._kbar_sum(locations, weights, kern, 0.05, grid)
    assert got.tobytes() == want.tobytes()


def test_survival_sized_fit_merges_every_row(spy):
    # the perfbench survival fit's shape: 20 000 censored Weibull rows
    # (about 18 650 jumps), the smooth kernel, a boundary at 0 and 201
    # points; every row of every chunk, each side of the reflection,
    # spans a few hundred knots
    rng = np.random.default_rng(11)
    life, cens = 1.5 * rng.weibull(3.0, 20_000), 3.0 * rng.weibull(4.0,
                                                                   20_000)
    sample = CensoredSample(np.minimum(life, cens), life <= cens)
    cfg = EstimatorConfig(get_table(FlatTopSpec(SMOOTH)), 0.1, boundary=0.0)
    merged, looked_up = spy(_KbarSpline, "merged"), spy(KernelTable,
                                                        "_lookup")
    smoothed_survival_on_grid(sample, cfg, np.linspace(0.0, 4.0, 201))
    assert sample.jumps.locations.size > 18_000
    assert len(merged) == 2 * 201 and looked_up == []


def test_study_fits_never_merge(spy):
    # a study's rows hold 15 or 30 jumps, far fewer than the knots
    # they span, and a row must hold more than _MERGE_ROW values
    merged, looked_up = spy(_KbarSpline, "merged"), spy(KernelTable,
                                                        "_lookup")
    for name in ("normal-iid", "weibull-censored"):
        run_scenario(builtin_scenario(name, seed=5, replications=3,
                                      sample_sizes=(15, 30)))
    assert merged == [] and len(looked_up) > 0
