"""Sampler and ground-truth CDF checks."""
from __future__ import annotations

import numpy as np
import pytest

from ftcdf.distributions import (
    DistSpec,
    dist_cdf,
    dist_survival,
    polya_cdf,
    polya_density,
    sample_distribution,
)
from ftcdf.quadrature import adaptive_quad


def test_spec_validation():
    with pytest.raises(ValueError):
        DistSpec("weibull")
    with pytest.raises(ValueError):
        DistSpec("weibull", shape=-1.0, scale=2.0)
    with pytest.raises(ValueError):
        DistSpec("normal", scale=2.0)
    with pytest.raises(ValueError):
        DistSpec("gamma", shape=1.0, scale=1.0)
    with pytest.raises(ValueError, match="shape"):
        DistSpec("weibull", np.inf, 1.0)
    with pytest.raises(ValueError, match="scale"):
        DistSpec("weibull", 3.0, np.nan)


def test_spec_roundtrip():
    for spec in (DistSpec("normal"), DistSpec("weibull", 3.0, 1.5),
                 DistSpec("polya")):
        assert DistSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 5.0, 17.3, -2.0, -8.1])
def test_polya_cdf_against_density_quadrature(t):
    # independent route: integrate the density from 0 with the adaptive rule
    if t >= 0:
        q = 0.5 + adaptive_quad(polya_density, 0.0, t, tol=1e-12)
    else:
        q = 0.5 - adaptive_quad(polya_density, t, 0.0, tol=1e-12)
    assert polya_cdf(t) == pytest.approx(q, abs=1e-12)


def test_polya_cdf_series_seam():
    # closed form and series agree across the small-argument switch
    lo, hi = polya_cdf(9.9e-5), polya_cdf(1.01e-4)
    assert 0.5 < lo < hi < 0.50002
    assert hi - lo < 1e-6


def test_polya_cdf_symmetry_and_range():
    t = np.linspace(-30.0, 30.0, 401)
    f = polya_cdf(t)
    assert np.all(np.diff(f) >= 0)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert polya_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert polya_cdf(3.0) + polya_cdf(-3.0) == pytest.approx(1.0, abs=1e-14)


def test_weibull_cdf_closed_form():
    spec = DistSpec("weibull", 3.0, 1.5)
    assert dist_cdf(spec, 0.0) == 0.0
    assert dist_cdf(spec, -1.0) == 0.0
    t = 1.5 * np.log(2.0) ** (1.0 / 3.0)
    assert dist_cdf(spec, t) == pytest.approx(0.5, rel=1e-14)
    assert dist_survival(spec, 1.75) == pytest.approx(
        np.exp(-((1.75 / 1.5) ** 3)), rel=1e-14)


def test_normal_truth_matches_reference():
    from scipy.special import ndtr
    t = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(dist_cdf(DistSpec("normal"), t), ndtr(t), atol=0)


def test_weibull_sample_median():
    rng = np.random.default_rng(11)
    x = sample_distribution(DistSpec("weibull", 3.0, 1.5), 100_000, rng)
    assert np.all(x >= 0)
    assert np.median(x) == pytest.approx(1.5 * np.log(2.0) ** (1.0 / 3.0),
                                         abs=0.01)


def test_normal_sample_mean():
    rng = np.random.default_rng(12)
    count = 50_000
    x = sample_distribution(DistSpec("normal"), count, rng)
    assert abs(x.mean()) < 3.0 / np.sqrt(count)


def test_polya_sample_band_limited():
    # characteristic function is (1-|t|)+; beyond t=1 only noise remains
    rng = np.random.default_rng(13)
    count = 100_000
    x = sample_distribution(DistSpec("polya"), count, rng)
    ecf = np.exp(1j * 1.5 * x).mean()
    assert abs(ecf) < 3.0 / np.sqrt(count)
    inside = abs(np.exp(1j * 0.5 * x).mean())
    assert inside == pytest.approx(0.5, abs=3.0 / np.sqrt(count))


def test_polya_envelope_holds_on_wide_grid():
    # the rejection bound: density ratio against Cauchy stays under 2.5
    x = np.linspace(-200.0, 200.0, 400_001)
    ratio = polya_density(x) * np.pi * (1.0 + x * x)
    assert ratio.max() < 2.5
    assert ratio.max() == pytest.approx(2.2111, abs=1e-3)


def test_sampler_determinism():
    a = sample_distribution(DistSpec("polya"), 1000, np.random.default_rng(5))
    b = sample_distribution(DistSpec("polya"), 1000, np.random.default_rng(5))
    assert np.array_equal(a, b)
