from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import ftcdf.kernels as kernels
from ftcdf.bandwidth import default_rule
from ftcdf.cli import main
from ftcdf.kernels import (
    SMOOTH,
    TRAPEZOID,
    FlatTopSpec,
    GaussianKernel,
    KernelTable,
    build_table,
    get_table,
    integrated_kernel,
    integrated_kernel_by_quad,
    kernel,
    kernel_cross_moment,
    window,
)
from ftcdf.quadrature import QuadratureError, adaptive_quad
from oracles import gaussian_cross_moment, spline_intervals

TRAP = FlatTopSpec(TRAPEZOID, 0.75)
SMOOTH_REF = FlatTopSpec(SMOOTH, 0.05, 1.0)

# frozen oracle values, computed with the adaptive-quadrature route
# (tol 1e-12) before the closed forms were trusted
TRAP_K0 = 0.2785211504108169          # (1+c)/(2*pi) at c=0.75
TRAP_K_PI = 0.0377850229272507
TRAP_KBAR_2 = 0.9691356900076225
TRAP_CROSS_MOMENT = 0.1919132193379   # two routes agreed to 1.8e-10
SMOOTH_CROSS_MOMENT = 0.2602787213288  # two routes agreed to 3.0e-10
# exact bits of kernel_cross_moment(SMOOTH_REF): its quadrature ends
# where the smooth tail search shared with build_table stops, t = 512
SMOOTH_CROSS_MOMENT_BITS = float.fromhex("0x1.0a86814e2cac2p-2")


def exported_k(spec: FlatTopSpec, tmp_path) -> np.ndarray:
    """The k column of `ftcdf kernel-table` for spec at tol 1e-8."""
    out = tmp_path / "table.csv"
    assert main(["kernel-table", "--kernel", spec.family, "--c",
                 repr(spec.c), "--output", str(out)]) == 0
    return np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)


def kernel_by_quad(spec: FlatTopSpec, x: float, tol: float) -> float:
    """Oracle: K(x) by adaptive quadrature of taper(s) cos(sx) / pi."""
    return adaptive_quad(lambda s: window(spec, s) * np.cos(s * x),
                         0.0, 1.0, tol) / np.pi


def test_window_flat_region_and_descent():
    assert window(TRAP, 0.9) == pytest.approx(0.4, abs=1e-12)
    for spec in (TRAP, SMOOTH_REF):
        assert window(spec, 0.0) == 1.0
        assert window(spec, spec.c) == 1.0
        assert window(spec, -spec.c / 2) == 1.0
        assert window(spec, 1.0) == 0.0
        assert window(spec, 1.2) == 0.0
        s = np.linspace(-2.0, 2.0, 401)
        vals = window(spec, s)
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
        assert np.allclose(vals, window(spec, -s))


def test_smooth_window_formula():
    # independent inline evaluation of the double exponential
    b, c = SMOOTH_REF.b, SMOOTH_REF.c
    for s in (0.1, 0.3, 0.5, 0.8, 0.95):
        expect = math.exp(-b * math.exp(-b / (s - c) ** 2) / (s - 1.0) ** 2)
        assert window(SMOOTH_REF, s) == pytest.approx(expect, rel=1e-13)


def test_spec_validation():
    with pytest.raises(ValueError):
        FlatTopSpec(TRAPEZOID, 1.0)
    with pytest.raises(ValueError):
        FlatTopSpec(TRAPEZOID, 0.0)
    with pytest.raises(ValueError):
        FlatTopSpec(SMOOTH, 0.05, b=-1.0)
    with pytest.raises(ValueError):
        FlatTopSpec("boxcar", 0.5)
    # away from the reference parameters there is no rule radius, and
    # only the bandwidth rule refuses its absence
    assert FlatTopSpec(SMOOTH, 0.2, b=2.0).effective_c is None
    assert FlatTopSpec(SMOOTH, 0.1).effective_c is None
    with pytest.raises(ValueError, match=re.escape(
            "effective_c has no default for smooth family away from "
            "(b=1, c=0.05); pass it explicitly")):
        default_rule(30, None)
    with pytest.raises(ValueError, match=r"effective_c must lie in \[c, 1\]"):
        FlatTopSpec(SMOOTH, 0.2, b=2.0, effective_c=0.1)
    assert FlatTopSpec(SMOOTH, 0.2, b=2.0, effective_c=0.4).effective_c == 0.4
    assert FlatTopSpec(TRAPEZOID, 0.3).effective_c == 0.3
    assert SMOOTH_REF.effective_c == 0.5


def test_reference_specs_are_the_family_defaults():
    assert FlatTopSpec(TRAPEZOID) == FlatTopSpec(TRAPEZOID, 0.75) == TRAP
    assert FlatTopSpec(SMOOTH) == FlatTopSpec(SMOOTH, 0.05, 1.0, 0.5)
    assert hash(FlatTopSpec(SMOOTH)) == hash(SMOOTH_REF)
    assert get_table(FlatTopSpec(SMOOTH)) is get_table(SMOOTH_REF)


def test_trap_kernel_frozen_values():
    assert kernel(TRAP, 0.0) == pytest.approx(TRAP_K0, abs=1e-12)
    assert kernel(TRAP, np.pi) == pytest.approx(TRAP_K_PI, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_forms_match_quadrature(seed):
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-50, 50, 12), rng.uniform(-2, 2, 6),
                         [1e-4, -5e-4, 2e-3]])
    for x in xs:
        assert kernel(TRAP, x) == pytest.approx(
            kernel_by_quad(TRAP, x, 1e-12), abs=1e-10)
        assert integrated_kernel(TRAP, x) == pytest.approx(
            integrated_kernel_by_quad(TRAP, x, 1e-12), abs=1e-8)


def test_kernel_even():
    xs = np.linspace(0.0, 30.0, 97)
    assert np.allclose(kernel(TRAP, xs), kernel(TRAP, -xs), atol=1e-14)
    assert np.allclose(kernel(SMOOTH_REF, xs), kernel(SMOOTH_REF, -xs),
                       atol=1e-14)


@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
@pytest.mark.parametrize("x", [
    np.array([[0.5, 1.0], [2.0, 3.0]]),
    np.random.default_rng(5).uniform(-40.0, 40.0, (3, 1, 4)),
])
def test_any_shape_is_elementwise(spec, x):
    # an argument of any shape gets the values of its flattened copy
    for func in (kernel, integrated_kernel):
        got = func(spec, x)
        assert got.shape == x.shape
        assert got.tobytes() == func(spec, x.ravel()).tobytes()


def test_series_switch_is_seamless():
    # closed form just outside the series region vs series just inside
    for x in (9.999e-4, 1.0001e-3):
        assert kernel(TRAP, x) == pytest.approx(
            kernel_by_quad(TRAP, x, 1e-13), abs=1e-11)
        assert integrated_kernel(TRAP, x) == pytest.approx(
            integrated_kernel_by_quad(TRAP, x, 1e-13), abs=1e-11)


def test_kbar_dual_routes_and_limits():
    assert integrated_kernel(TRAP, 0.0) == 0.5
    assert integrated_kernel(SMOOTH_REF, 0.0) == 0.5
    assert integrated_kernel(TRAP, 2.0) == pytest.approx(TRAP_KBAR_2, abs=1e-10)
    assert integrated_kernel(TRAP, 1e6) == pytest.approx(1.0, abs=1e-8)
    assert integrated_kernel(TRAP, -1e6) == pytest.approx(0.0, abs=1e-8)
    # complement symmetry
    ts = np.linspace(0.1, 40.0, 23)
    assert np.allclose(integrated_kernel(TRAP, ts)
                       + integrated_kernel(TRAP, -ts), 1.0, atol=1e-13)


def test_smooth_transforms_match_adaptive():
    rng = np.random.default_rng(3)
    ts = rng.uniform(-300, 300, 12)
    for t in ts:
        assert integrated_kernel(SMOOTH_REF, t) == pytest.approx(
            integrated_kernel_by_quad(SMOOTH_REF, t, 1e-12), abs=1e-9)
        assert kernel(SMOOTH_REF, t) == pytest.approx(
            kernel_by_quad(SMOOTH_REF, t, 1e-12), abs=1e-9)


@pytest.mark.parametrize("spec,npts", [(TRAP, 1000), (SMOOTH_REF, 500)])
def test_table_matches_direct_eval(spec, npts, tmp_path):
    tab = get_table(spec, 1e-8)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-tab.tail_cutoff, tab.tail_cutoff, npts)
    assert np.max(np.abs(tab.kbar(xs)
                         - integrated_kernel(spec, xs))) <= 1e-8
    # the exported K column holds direct evaluations
    assert np.max(np.abs(exported_k(spec, tmp_path)
                         - kernel(spec, tab.grid))) <= tab.tol


@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_table_shape_contracts(spec, tmp_path):
    tab = get_table(spec, 1e-8)
    assert np.all(np.diff(tab.grid) > 0)
    T = tab.tail_cutoff
    assert tab.kbar(-T) <= tab.tol
    assert tab.kbar(T) >= 1.0 - tab.tol
    assert tab.kbar(-T - 1.0) == 0.0 and tab.kbar(T + 1.0) == 1.0
    # evenness of the exported K column
    k_values = exported_k(spec, tmp_path)
    n = (tab.grid.size - 1) // 2
    assert np.allclose(k_values[:n][::-1], k_values[n + 1:], atol=tab.tol)
    # raw evaluations genuinely overshoot on both sides of [0,1]
    xs = np.linspace(-T - 2, T + 2, 4001)
    raw = tab.kbar(xs)
    assert raw.max() > 1.0 + 1e-3
    assert raw.min() < -1e-3


@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_kernel_total_mass(spec):
    # dense trapezoidal sum over the core plus closed-form tail mass
    t1 = min(60.0, get_table(spec, 1e-8).tail_cutoff)
    xs = np.linspace(-t1, t1, 300_001)
    mass = np.trapezoid(kernel(spec, xs), xs)
    mass += 1.0 - integrated_kernel(spec, t1) + integrated_kernel(spec, -t1)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_cross_moment_gaussian():
    assert gaussian_cross_moment() == pytest.approx(
        1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-8)


def test_cross_moment_flattop_frozen():
    cm_t = kernel_cross_moment(TRAP)
    cm_s = kernel_cross_moment(SMOOTH_REF)
    assert type(cm_t) is float and type(cm_s) is float
    assert cm_t > 0.0 and cm_s > 0.0
    assert cm_t == pytest.approx(TRAP_CROSS_MOMENT, abs=1e-8)
    assert cm_s == pytest.approx(SMOOTH_CROSS_MOMENT, abs=1e-8)
    assert cm_s == SMOOTH_CROSS_MOMENT_BITS


def test_cross_moment_symmetry_identity():
    # on a finite window the two routes differ by an exact boundary term:
    # 2 int_0^T u K (Kbar - 1/2) = int_0^T Kbar(1-Kbar) + T Kbar(T)(Kbar(T)-1)
    T = 500.0
    f = lambda u: u * kernel(TRAP, u) * (integrated_kernel(TRAP, u) - 0.5)
    route_u = 2.0 * adaptive_quad(f, 0.0, T, 1e-10)
    g = lambda u: integrated_kernel(TRAP, u) * (1.0 - integrated_kernel(TRAP, u))
    route_sq = adaptive_quad(g, 0.0, T, 1e-10)
    kb = integrated_kernel(TRAP, T)
    assert route_u - T * kb * (kb - 1.0) == pytest.approx(route_sq, abs=1e-9)


def test_over_budget_tol_fails_before_building_the_grid():
    # at tol 1e-16 the full grid would take about 1.5e8 loop steps
    for tol in (1e-12, 1e-16):
        with pytest.raises(QuadratureError, match="max_points=400000"):
            build_table(TRAP, tol)


def test_grid_budget_edge(monkeypatch):
    # the positive half of the tol 1e-8 trapezoid grid holds 14692 points
    monkeypatch.setattr(kernels, "_MAX_TABLE_POINTS", 29384)
    assert build_table(TRAP, 1e-8).grid.size == 29383
    monkeypatch.setattr(kernels, "_MAX_TABLE_POINTS", 29383)
    with pytest.raises(QuadratureError, match="max_points=29383"):
        build_table(TRAP, 1e-8)


def test_mass_refusal_prints_a_plain_float():
    # the reference trapezoid's panel mass is off unity by about 1.3e-14
    with pytest.raises(QuadratureError) as exc:
        kernels._certify_mass(TRAP, get_table(TRAP, 1e-8).tail_cutoff, 1e-16)
    message = str(exc.value)
    assert message.startswith(
        "trapezoid kernel at c=0.75: kernel mass 0.99999999999998")
    assert "np.float64" not in message


@pytest.mark.parametrize("spec", [
    FlatTopSpec(SMOOTH, 0.05), FlatTopSpec(SMOOTH, 0.3),
    FlatTopSpec(TRAPEZOID, 0.05), FlatTopSpec(TRAPEZOID, 0.3), TRAP])
def test_panel_mass_is_unity_to_rounding(spec):
    # refused beyond 10*tol, so this passes only if |mass - 1| <= 1e-13
    kernels._certify_mass(spec, get_table(spec, 1e-8).tail_cutoff, 1e-14)


def test_smooth_kernel_at_a_large_radius_is_refused_at_once():
    # the tail search stops where the transforms' order passes the cap
    with pytest.raises(QuadratureError, match=(
            r"^smooth kernel at c=0\.75: Gauss-Legendre order 5824 exceeds "
            r"the cap of 4096 nodes; --c is too large for the smooth "
            r"family$")):
        build_table(FlatTopSpec(SMOOTH, 0.75))


def _oracle_kbar(tab, args: np.ndarray) -> np.ndarray:
    """kbar through scipy's CubicSpline, clamped beyond the tail cutoff."""
    out = CubicSpline(tab.grid, tab.kbar_values)(args)
    out[args < -tab.tail_cutoff] = 0.0
    out[args > tab.tail_cutoff] = 1.0
    return out


def _spline_arguments(tab, seed: int) -> np.ndarray:
    """Every knot and midpoint, +-T and beyond, normal draws, and rows
    of descending arguments as the estimators' kernel sum makes them."""
    rng = np.random.default_rng(seed)
    T = tab.tail_cutoff
    points = np.linspace(-4.0, 4.0, 40)
    locations = np.sort(rng.normal(size=300))
    rows = (points[:, None] - locations[None, :]) / 0.05
    return np.concatenate([
        tab.grid, 0.5 * (tab.grid[:-1] + tab.grid[1:]),
        [-T, T, np.nextafter(-T, 0.0), np.nextafter(T, 0.0), -T - 1.0,
         T + 1.0, 0.0, -0.0],
        rng.normal(0.0, 3.0, 100_000), rng.normal(0.0, 30.0, 100_000),
        rows.ravel()])


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_spline_is_scipys_not_a_knot_bit_for_bit(spec, tol):
    tab = get_table(spec, tol)
    oracle = CubicSpline(tab.grid, tab.kbar_values)
    assert tab.coef.tobytes() == oracle.c.tobytes()
    args = _spline_arguments(tab, 5)
    assert tab.kbar(args).tobytes() == _oracle_kbar(tab, args).tobytes()
    # 2-d arguments keep their shape and their bits
    rows = args[:40 * 300].reshape(40, 300)
    assert tab.kbar(rows).tobytes() == _oracle_kbar(tab, rows).tobytes()


def _sorted_rows(tab, width: int = 4096) -> np.ndarray:
    """Rows of `width` descending arguments, as the estimators' kernel
    sums make them, that the merge takes: across T and across -T (40
    knots each, with each knot twice, the midpoints, +-T and their
    neighbours), wholly above T and wholly below -T, and around 0 (60
    knots each twice, 0.0 and -0.0)."""
    grid, T = tab.grid, tab.tail_cutoff
    top = grid[-40:]
    near_top = np.concatenate([
        top, top, 0.5 * (top[:-1] + top[1:]),
        [np.nextafter(T, 0.0), np.nextafter(T, np.inf), T + 1.0]])
    mid = grid.size // 2
    core = grid[mid - 30:mid + 30]
    near_zero = np.concatenate([core, core, 0.5 * (core[:-1] + core[1:]),
                                [0.0, -0.0, 0.0, -0.0]])

    def row(extras, hi, lo):
        fill = np.linspace(hi, lo, width - extras.size)
        return np.sort(np.concatenate([fill, extras]))[::-1]

    above = row(near_top, T + 3.0, grid[-41])
    return np.stack([
        above, -above[::-1],
        row(np.array([np.nextafter(T, np.inf)]), 1e6 * T, T),
        row(np.array([np.nextafter(-T, -np.inf)]), -T, -1e6 * T),
        row(near_zero, grid[mid + 31], grid[mid - 31])])


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_lookup_locates_intervals_by_binary_search(spec, tol):
    # the one interval rule of both routes, at every knot and knot
    # midpoint, at +-T and their inner neighbours, and at -0.0
    tab = get_table(spec, tol)
    grid, T = tab.grid, tab.tail_cutoff
    v = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]),
                        [-T, T, np.nextafter(-T, 0.0), np.nextafter(T, 0.0),
                         -0.0]])
    got = tab._locate(v)
    assert np.array_equal(got, spline_intervals(grid, v))
    # 2-d values keep their shape
    rows = v[:6 * (v.size // 6)].reshape(6, -1)
    assert np.array_equal(tab._locate(rows),
                          spline_intervals(grid, rows))


@pytest.mark.parametrize("piece", [1 << 15, 1000])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_merged_rows_are_scipys_bit_for_bit(spec, tol, piece, monkeypatch):
    # the merge takes pieces of twice the lookup's block; pieces of
    # about 1000 values split each row 5 ways, at ties, at knots and
    # across +-T
    monkeypatch.setattr(kernels, "_LOOKUP_BLOCK", piece // 2)
    tab = get_table(spec, tol)
    rows = _sorted_rows(tab)
    assert np.all(rows[:, 1:] <= rows[:, :-1])
    want = _oracle_kbar(tab, rows)
    out = np.empty_like(rows)
    assert tab._merge_dense_rows(rows, out).all()
    assert out.tobytes() == want.tobytes()
    assert tab.kbar(rows).tobytes() == want.tobytes()
    # into the arguments themselves, as the kernel sum calls it
    got = rows.copy()
    assert tab.kbar(got, out=got).tobytes() == want.tobytes()
    # an unsorted row, here one with a NaN, goes to the bucket lookup
    # beside the merged ones
    rows[1, 7] = np.nan
    want[1, 7] = np.nan
    assert tab._merge_dense_rows(rows, out).tolist() == [
        True, False, True, True, True]
    assert tab.kbar(rows).tobytes() == want.tobytes()


def test_merge_temporaries_do_not_grow_with_the_row():
    tab = get_table(SMOOTH_REF, 1e-8)
    T = tab.tail_cutoff
    rows = np.stack([np.linspace(1.5 * T, -1.5 * T, 400_000),
                     np.linspace(0.5 * T, -0.5 * T, 400_000)])
    want = _oracle_kbar(tab, rows)
    tab.kbar(rows[:, :5000].copy())  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tab.kbar(rows, out=rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rows.tobytes() == want.tobytes()
    # five values a value merged, in pieces of at most 2**15 values
    # (1.25 MiB), where a whole row of 400 000 would take 16 MB
    assert peak <= 2**21


@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_unsorted_rows_are_looked_up(spec):
    tab = get_table(spec, 1e-8)
    rows = _sorted_rows(tab)
    rng = np.random.default_rng(4)
    for r in rows:
        rng.shuffle(r)
    assert not tab._merge_dense_rows(rows, np.empty_like(rows)).any()
    assert tab.kbar(rows).tobytes() == _oracle_kbar(tab, rows).tobytes()
    # ascending rows too
    rows.sort(axis=1)
    assert not tab._merge_dense_rows(rows, np.empty_like(rows)).any()
    assert tab.kbar(rows).tobytes() == _oracle_kbar(tab, rows).tobytes()


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("h", [2.0, 0.05, 1e-3, 1e-4])
@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_kernel_sum_rows_merge_to_scipys_bits(spec, h, reflected,
                                              monkeypatch):
    tab = get_table(spec, 1e-8)
    rng = np.random.default_rng(9)
    locations = np.sort(rng.normal(size=2000))
    points = np.linspace(-4.0, 4.0, 41)
    if reflected:
        points = 2.0 * -4.5 - points  # descending, as a reflected grid
    rows = (points[:, None] - locations) / h
    want = _oracle_kbar(tab, rows)
    # every sorted row merges, however many knots it spans
    monkeypatch.setattr(kernels, "_MERGE_ROW", -10**9)
    out = np.empty_like(rows)
    assert tab._merge_dense_rows(rows, out).all()
    assert out.tobytes() == want.tobytes()


def _banded(dl, d, du, b) -> np.ndarray:
    """Oracle of the tridiagonal port: scipy.linalg.solve_banded((1, 1))."""
    band = np.zeros((3, d.size))
    band[0, 1:], band[1], band[2, :-1] = du, d, dl
    return solve_banded((1, 1), band, b)


def _ported(dl, d, du, b) -> np.ndarray:
    return np.array(kernels._solve_tridiagonal(
        dl.tolist(), d.tolist(), du.tolist(), b.tolist()))


@pytest.mark.parametrize("spec, tol", [
    *((spec, tol) for spec in (TRAP, SMOOTH_REF)
      for tol in (1e-6, 1e-8, 1e-10)),
    *((FlatTopSpec(TRAPEZOID, c), 1e-8) for c in (0.1, 0.3, 0.5, 0.9))])
def test_port_solves_the_table_systems_as_solve_banded(spec, tol,
                                                       monkeypatch):
    tab = get_table(spec, tol)
    systems = []
    real = kernels._solve_tridiagonal

    def recording(*lists):
        system = [np.array(v) for v in lists]  # before they are overwritten
        x = np.array(real(*lists))
        systems.append((system, x))
        return x.tolist()

    monkeypatch.setattr(kernels, "_solve_tridiagonal", recording)
    coef = kernels._not_a_knot_coefficients(tab.grid, tab.kbar_values)
    assert coef.tobytes() == tab.coef.tobytes()
    [(system, x)] = systems
    assert system[1].size == tab.grid.size
    assert x.tobytes() == _banded(*system).tobytes()


def test_port_solves_random_systems_as_solve_banded():
    rng = np.random.default_rng(11)
    swapped = 0
    for k in range(1200):
        n = int(rng.integers(2, 40))
        dl, du, b = (rng.normal(size=n - 1), rng.normal(size=n - 1),
                     rng.normal(size=n))
        # a small diagonal makes |d| < |dl| and forces row interchanges
        d = rng.normal(size=n) * (0.05 if k % 2 else 4.0)
        swapped += bool(np.any(np.abs(d[:-1]) < np.abs(dl)))
        assert _ported(dl, d, du, b).tobytes() == \
            _banded(dl, d, du, b).tobytes(), k
    assert swapped > 500


@pytest.mark.parametrize("dl, d, du", [
    ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]),  # first column zero
    ([1.0], [1.0, 1.0], [1.0]),                 # last pivot zero
    ([1.0, 0.0], [0.0, 2.0, 0.0], [1.0, 3.0])])  # zero after an interchange
def test_port_refuses_a_zero_pivot_as_solve_banded(dl, d, du):
    dl, d, du = map(np.array, (dl, d, du))
    b = np.ones(d.size)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _banded(dl, d, du, b)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _ported(dl, d, du, b)


@pytest.mark.parametrize("spec", [TRAP, SMOOTH_REF])
def test_coarse_buckets_step_up_to_the_same_bits(spec, monkeypatch):
    fine = get_table(spec, 1e-8)
    monkeypatch.setattr(kernels, "_BUCKET_SCALE", 64.0)
    coarse = KernelTable(fine.spec, fine.grid, fine.kbar_values, fine.tol)
    # buckets now hold dozens of knots, which the points step up past
    assert coarse._start.size * 16 < fine.grid.size
    args = _spline_arguments(fine, 6)
    mid = np.abs(args) <= fine.tail_cutoff
    oracle = CubicSpline(fine.grid, fine.kbar_values)
    assert coarse.kbar(args[mid]).tobytes() == oracle(args[mid]).tobytes()


def test_nan_argument_stays_nan():
    tab = get_table(TRAP, 1e-8)
    out = tab.kbar(np.array([0.5, np.nan, -0.5]))
    assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()


def test_tables_import_no_scipy_interpolate():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ftcdf.cli\n"
            "from ftcdf.kernels import FlatTopSpec, get_table\n"
            "get_table(FlatTopSpec('trapezoid')); get_table(FlatTopSpec('smooth'))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('scipy.interpolate')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cached_tables_are_read_only():
    # one cached table serves every fit in the process
    tab = get_table(TRAP, 1e-8)
    for values in (tab.grid, tab.kbar_values, tab.coef):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_get_table_caches():
    assert get_table(TRAP, 1e-8) is get_table(TRAP, 1e-8)


@pytest.mark.parametrize("kind", [TRAPEZOID, SMOOTH, "gaussian"])
def test_kbar_into_its_argument_keeps_the_bits(kind):
    kern = GaussianKernel() if kind == "gaussian" else get_table(
        FlatTopSpec(kind))
    T = kern.tail_cutoff
    rng = np.random.default_rng(3)
    # 2-d arguments across several lookup blocks, beyond +-T, and NaN
    x = rng.normal(0.0, T, (7, 5000))
    x[0, :6] = [-T - 1.0, T + 1.0, -T, T, np.nan, 0.0]
    want = kern.kbar(x)
    got = x.copy()
    assert kern.kbar(got, out=got) is got
    assert got.tobytes() == want.tobytes()
    out = np.empty_like(x)
    assert kern.kbar(x, out=out) is out
    assert out.tobytes() == want.tobytes()
