"""Flat-top smoothing kernels and their integrated (CDF-like) forms.

A flat-top taper is a symmetric frequency-domain window equal to 1 on
[-c, c] and falling to 0 at |s| = 1.  Fourier inversion of the taper
gives a reduced-bias smoothing kernel K; integrating K gives Kbar, the
kernel analogue of a CDF.  Two taper families are provided:

* "trapezoid": linear descent (1 - |s|) / (1 - c) outside the flat part,
  with closed forms for K and Kbar in terms of the sine integral.
* "smooth": infinitely differentiable double-exponential descent with a
  shape parameter b, evaluated by Gauss-Legendre quadrature.

FlatTopSpec(family) is the family's reference kernel: c and
effective_c default by family here and nowhere else.  The estimators
evaluate only Kbar, through a dense lookup table (KernelTable) that
only build_table makes, after certifying its interpolation error and
the kernel's mass.  Tables hold the raw, non-monotone Kbar: valid CDF
paths come from standardizing an estimate, not the kernel.  K itself
is evaluated directly, never interpolated.  The Gaussian kernel is
included as a comparator: like a table, it offers kbar and tail_cutoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, sici

from .quadrature import QuadratureError, adaptive_quad, unit_gl_rule

TRAPEZOID = "trapezoid"
SMOOTH = "smooth"
_DEFAULT_C = {TRAPEZOID: 0.75, SMOOTH: 0.05}

# closed forms switch to series below this to dodge 0/0 cancellation
_SMALL_ARG = 1e-3
_CHUNK = 1024
# most points a kernel table may hold
_MAX_TABLE_POINTS = 400_000
# largest Gauss-Legendre rule of the smooth family: leggauss solves a
# dense eigenproblem, cubic in the order (4096 nodes took about 4 s on a
# 2-vCPU machine)
_MAX_GL_ORDER = 4096
# points per block of a table's kbar lookup
_LOOKUP_BLOCK = 1 << 14
# width of a lookup bucket, in units of the least interior knot spacing
# in u = sign(x) sqrt|x|
_BUCKET_SCALE = 1.0
# Gauss-Legendre panels, and nodes per panel, of the kernel mass check
_MASS_PANELS = 60
_MASS_NODES = 16


@dataclass(frozen=True)
class FlatTopSpec:
    """Parameters of a flat-top taper.

    family: "trapezoid" or "smooth".
    c: flat radius, 0 < c < 1; the taper is exactly 1 on [-c, c].
        Defaults by family: 0.75 for the trapezoid, 0.05 for the smooth
        taper, so FlatTopSpec(family) is that family's reference kernel.
    b: descent-rate parameter, used by the smooth family only.
    effective_c: radius used by the bandwidth rule h = effective_c / t*.
        Defaults: c for the trapezoid family; 0.5 for the smooth family
        at its reference parameters (b=1, c=0.05).  Elsewhere it stays
        None, and only the rule (BandwidthRule) refuses it.
    """
    family: str
    c: float | None = None
    b: float = 1.0
    effective_c: float | None = None

    def __post_init__(self):
        if self.family not in (TRAPEZOID, SMOOTH):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.c is None:
            object.__setattr__(self, "c", _DEFAULT_C[self.family])
        if not 0.0 < self.c < 1.0:
            raise ValueError("flat radius c must lie in (0, 1)")
        if self.family == SMOOTH and not self.b > 0.0:
            raise ValueError("smooth family needs b > 0")
        eff = self.effective_c
        if eff is None and self.family == TRAPEZOID:
            eff = self.c
        elif eff is None and (self.b, self.c) == (1.0, _DEFAULT_C[SMOOTH]):
            eff = 0.5
        elif eff is None:
            return  # no default; only the bandwidth rule needs one
        if not self.c <= eff <= 1.0:
            raise ValueError("effective_c must lie in [c, 1]")
        object.__setattr__(self, "effective_c", float(eff))


def window(spec: FlatTopSpec, s):
    """Taper value at frequency s (even, 1 on the flat part, 0 beyond 1)."""
    arr = np.abs(np.asarray(s, dtype=float))
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.zeros_like(a)
    out[a <= spec.c] = 1.0
    mid = (a > spec.c) & (a < 1.0)
    if np.any(mid):
        sm = a[mid]
        if spec.family == TRAPEZOID:
            out[mid] = (1.0 - sm) / (1.0 - spec.c)
        else:
            # double-exponential descent; endpoint overflow collapses to 0
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                inner = np.exp(-spec.b / (sm - spec.c) ** 2)
                out[mid] = np.exp(-spec.b * inner / (sm - 1.0) ** 2)
    return float(out[0]) if scalar else out


def _trap_kernel(c: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = np.abs(x) < _SMALL_ARG
    if np.any(small):
        x2 = x[small] ** 2
        ser = (1 - c ** 2) / 2 - x2 * ((1 - c ** 4) / 24 - x2 * (
            (1 - c ** 6) / 720 - x2 * (1 - c ** 8) / 40320))
        out[small] = ser / (np.pi * (1 - c))
    big = ~small
    if np.any(big):
        xb = x[big]
        out[big] = (np.cos(c * xb) - np.cos(xb)) / (np.pi * (1 - c) * xb * xb)
    return out


def _trap_kbar(c: float, t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    small = np.abs(t) < _SMALL_ARG
    if np.any(small):
        ts = t[small]
        t2 = ts * ts
        ser = ts * ((1 - c ** 2) / 2 - t2 * ((1 - c ** 4) / 72 - t2 * (
            (1 - c ** 6) / 3600 - t2 * (1 - c ** 8) / 282240)))
        out[small] = 0.5 + ser / (np.pi * (1 - c))
    big = ~small
    if np.any(big):
        tb = t[big]
        si_t = sici(tb)[0]
        si_ct = sici(c * tb)[0]
        bracket = (np.cos(tb) - np.cos(c * tb)) / tb + si_t - c * si_ct
        out[big] = 0.5 + bracket / (np.pi * (1 - c))
    return out


def _gl_order(umax: float) -> int:
    # cos(s*u) on [0,1] needs roughly 0.7*u Legendre nodes before the
    # superexponential error regime kicks in; padded and capped
    n = int(np.ceil(0.7 * max(umax, 0.0))) + 64
    n = ((n + 31) // 32) * 32
    if n > _MAX_GL_ORDER:
        raise QuadratureError(f"Gauss-Legendre order {n} exceeds the cap "
                              f"of {_MAX_GL_ORDER} nodes")
    return n


def _smooth_transforms(spec, x, want_kernel: bool):
    """Vectorized cosine/sine transform of the smooth taper on 1-d x."""
    nodes, wts = unit_gl_rule(_gl_order(float(np.max(np.abs(x), initial=0.0))))
    kap = window(spec, nodes)
    trig, coef = ((np.cos, kap * wts) if want_kernel
                  else (np.sin, kap * wts / nodes))
    out = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        blk = x[i:i + _CHUNK, None]
        out[i:i + _CHUNK] = trig(blk * nodes) @ coef
    return out / np.pi if want_kernel else 0.5 + out / np.pi


def _dispatch(spec, x, want_kernel):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if spec.family == TRAPEZOID:
        out = _trap_kernel(spec.c, a) if want_kernel else _trap_kbar(spec.c, a)
    else:
        out = _smooth_transforms(spec, a, want_kernel)
    return float(out[0]) if scalar else out


def kernel(spec: FlatTopSpec, x):
    """Smoothing kernel K(x) = (1/pi) * int_0^1 taper(s) cos(sx) ds."""
    return _dispatch(spec, x, True)


def integrated_kernel(spec: FlatTopSpec, t):
    """Running integral Kbar(t) of the kernel; tends to 0/1 at -/+ infinity."""
    return _dispatch(spec, t, False)


def integrated_kernel_by_quad(spec: FlatTopSpec, t: float,
                              tol: float = 1e-10) -> float:
    """Integrated kernel by adaptive quadrature of taper(s) sin(st)/s."""
    t = float(t)

    def f(s):
        s = np.asarray(s, dtype=float)
        safe = np.where(s == 0.0, 1.0, s)
        ratio = np.where(s == 0.0, t, np.sin(s * t) / safe)
        return window(spec, s) * ratio

    return 0.5 + adaptive_quad(f, 0.0, 1.0, tol) / np.pi


# ---------------------------------------------------------------------------
# lookup tables


def _trap_tail_cutoff(c: float, tol: float) -> float:
    # |1 - Kbar(t)| <= (2/c + 2) / (pi (1-c) t^2), by parts twice
    c2 = (2.0 / c + 2.0) / (np.pi * (1.0 - c))
    return float(np.sqrt(c2 / tol))


def _smooth_tail_cutoff(spec, tol: float) -> float:
    t = 32.0
    while t <= 2.2e5:
        # a cutoff the smooth transforms cannot reach is refused here,
        # before any quadrature at t
        _gl_order(t)
        gap = abs(1.0 - integrated_kernel_by_quad(spec, t, tol=tol / 20))
        if gap < 0.5 * tol:
            gap2 = abs(1.0 - integrated_kernel_by_quad(spec, 2 * t, tol=tol / 20))
            if gap2 <= gap:
                return t
        t *= 2.0
    raise QuadratureError("smooth-family tail does not settle below tol")


def _positive_grid(t_end: float, tol: float, decay_const: float) -> np.ndarray:
    """Abscissae 0..t_end: uniform core, then spacing growing like sqrt(t).

    Spacing keeps the cubic-interpolation error (5/384) h^4 |f''''| under
    tol, using |f''''| <= 0.08 near 0 and <= decay_const / t^2 beyond.
    Raises QuadratureError, before the points are built, once the table
    (this grid mirrored about 0) would pass _MAX_TABLE_POINTS.
    """
    delta0 = min(0.05, (384.0 * tol / (5.0 * 0.08)) ** 0.25)
    t_core = min(16.0, t_end)
    n_core = math.ceil(t_core / delta0)  # the length of np.arange below
    cap = _MAX_TABLE_POINTS // 2
    beta = (76.8 * tol / decay_const) ** 0.25
    tail = []
    t = t_core
    while t < t_end and n_core + len(tail) < cap:
        tail.append(t)
        t += max(delta0, beta * np.sqrt(t))
    if n_core + len(tail) + 1 > cap:
        raise QuadratureError(f"tol {tol:.3g} needs a table of more than "
                              f"max_points={_MAX_TABLE_POINTS} points")
    return np.concatenate([np.arange(0.0, t_core, delta0), tail, [t_end]])


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients, shape (4, n-1), of the not-a-knot cubic
    spline through (x, y), highest power first.

    The arithmetic of scipy's CubicSpline for n > 3 knots: the same
    banded system for the knot slopes, with the same not-a-knot end rows
    and the same solve_banded call, then the cubic Hermite form.  Every
    coefficient carries CubicSpline's bits.
    """
    n = x.size
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least 4 knots")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    band = np.zeros((3, n))
    rhs = np.empty(n)
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-1]
    band[-1, :-2] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    band[1, 0] = dx[1]
    band[0, 1] = d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    band[1, -1] = dx[-2]
    band[-1, -2] = d
    rhs[-1] = (dx[-1] ** 2 * slope[-2]
               + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), band, rhs.reshape(n, 1), overwrite_ab=True,
                     overwrite_b=True, check_finite=False).reshape(n)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class _KbarSpline:
    """Not-a-knot cubic spline on a table grid, valued as scipy's PPoly.

    The interval of v is the i with x[i] <= v < x[i+1], the last knot
    belonging to the last interval, and the value is the power sum in
    ascending order.  The interval comes from a lookup in
    u = sign(v) sqrt|v|, where the grid's knots are spread about evenly
    (a uniform core, then spacing growing like sqrt(t)): a bucket starts
    at the last knot of the buckets below it, and points step up past
    the knots inside their own bucket.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.coef = _not_a_knot_coefficients(x, y)
        self.knots = x
        u = np.copysign(np.sqrt(np.abs(x)), x)
        self._u0 = u[0]
        self._inv_width = 1.0 / (_BUCKET_SCALE * np.min(np.diff(u)[1:-1]))
        buckets = int((u[-1] - u[0]) * self._inv_width) + 1
        self._top = float(buckets - 1)
        below = np.searchsorted(self._bucket(x), np.arange(buckets))
        self._start = np.maximum(below - 1, 0)
        # the knot that ends each interval; the last interval takes all
        self._end = np.append(x[1:-1], np.inf)

    def _bucket(self, v: np.ndarray) -> np.ndarray:
        # monotone in v, so a knot in a lower bucket lies below v; fmax
        # and fmin also send NaN to bucket 0, where it stays NaN
        q = (np.copysign(np.sqrt(np.abs(v)), v) - self._u0) * self._inv_width
        return np.fmin(np.fmax(q, 0.0), self._top).astype(np.intp)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Spline values at 1-d v, which lies within the knots (or is NaN)."""
        i = np.take(self._start, self._bucket(v))
        up = np.flatnonzero(v >= np.take(self._end, i))
        while up.size:
            i[up] += 1
            up = up[v[up] >= np.take(self._end, i[up])]
        c = self.coef
        s = v - np.take(self.knots, i)
        # c3 + c2 s + c1 (s s) + c0 ((s s) s), summed in that order
        out = np.take(c[2], i)
        out *= s
        out += np.take(c[3], i)
        term = np.take(c[1], i)
        s_pow = s * s
        term *= s_pow
        out += term
        s_pow *= s
        np.take(c[0], i, out=term)
        term *= s_pow
        out += term
        return out


@dataclass
class KernelTable:
    """Tabulated Kbar, made and certified only by build_table.

    kbar_values holds the raw integrated kernel, genuinely non-monotone
    because flat-top kernels take negative values.  Estimators consume
    the raw values: the bias cancellation that motivates these kernels
    lives in the oscillation, and flattening it would re-introduce a
    systematic error far above the table tolerance.  Path-level
    standardization (estimators.standardize_path) is the way to get a
    valid CDF out of an estimate.
    """
    spec: FlatTopSpec
    grid: np.ndarray
    kbar_values: np.ndarray
    tail_cutoff: float
    tol: float

    def __post_init__(self):
        self._kbar_spline = _KbarSpline(self.grid, self.kbar_values)

    def kbar(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        a = np.atleast_1d(arr)
        flat = a.ravel()
        out = np.empty(flat.shape)
        T = self.tail_cutoff
        # in blocks, so the lookup's temporaries stay small
        for i in range(0, flat.size, _LOOKUP_BLOCK):
            v = flat[i:i + _LOOKUP_BLOCK]
            values = self._kbar_spline(np.clip(v, -T, T))
            values[v < -T] = 0.0
            values[v > T] = 1.0
            out[i:i + _LOOKUP_BLOCK] = values
        return float(out[0]) if scalar else out.reshape(a.shape)


def _certify(table: KernelTable) -> None:
    """Compare the Kbar spline against direct evaluation at panel midpoints."""
    mids = 0.5 * (table.grid[:-1] + table.grid[1:])
    err = np.max(np.abs(table.kbar(mids) - integrated_kernel(table.spec, mids)))
    if err > table.tol:
        raise QuadratureError(
            f"table interpolation error {err:.3g} exceeds tol {table.tol:.3g}")


def _certify_mass(spec: FlatTopSpec, tail_cutoff: float, tol: float) -> None:
    """Total mass of K must be 1 within 10*tol.

    Gauss-Legendre panels of direct kernel values over the core, plus
    the closed-form tail mass 1 - Kbar(T1) + Kbar(-T1); the two routes
    share no code with the spline tables.  K is entire and band-limited
    (the taper vanishes beyond |s| = 1), so the panel rule converges
    geometrically.
    """
    t1 = min(60.0, tail_cutoff)
    width = 2.0 * t1 / _MASS_PANELS
    nodes, wts = unit_gl_rule(_MASS_NODES)
    starts = -t1 + width * np.arange(_MASS_PANELS)
    xs = (starts[:, None] + width * nodes).ravel()
    core = width * np.sum(kernel(spec, xs).reshape(_MASS_PANELS, -1) @ wts)
    tail = 1.0 - integrated_kernel(spec, t1) + integrated_kernel(spec, -t1)
    mass = core + tail
    if abs(mass - 1.0) > 10.0 * tol:
        raise QuadratureError(f"kernel mass {float(mass)!r} off unity "
                              "beyond 10*tol")


def build_table(spec: FlatTopSpec, tol: float = 1e-8) -> KernelTable:
    """Tabulate Kbar, densely enough for a spline error <= tol."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if spec.family == TRAPEZOID:
        t_end = _trap_tail_cutoff(spec.c, tol)
    else:
        t_end = _smooth_tail_cutoff(spec, tol)
    decay = 3.0 / (np.pi * (1.0 - spec.c))
    pos = _positive_grid(t_end, tol, decay)
    kbar_pos = integrated_kernel(spec, pos)
    grid = np.concatenate([-pos[:0:-1], pos])
    kbar_vals = np.concatenate([1.0 - kbar_pos[:0:-1], kbar_pos])
    table = KernelTable(spec=spec, grid=grid, kbar_values=kbar_vals,
                        tail_cutoff=float(t_end), tol=tol)
    _certify(table)
    _certify_mass(spec, float(t_end), tol)
    return table


_TABLE_CACHE: dict[tuple, KernelTable] = {}


def get_table(spec: FlatTopSpec, tol: float = 1e-8) -> KernelTable:
    """Process-level cache around build_table."""
    key = (spec, tol)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = build_table(spec, tol)
    return _TABLE_CACHE[key]


# ---------------------------------------------------------------------------
# comparator kernel and the variance cross moment


class GaussianKernel:
    """Standard normal kernel: kbar and tail_cutoff, as on a KernelTable."""

    tail_cutoff = 40.0

    def kbar(self, x):
        return ndtr(np.asarray(x, dtype=float))

    def __repr__(self):
        return "GaussianKernel()"


@lru_cache(maxsize=1)
def _gaussian_cross_moment() -> float:
    f = lambda u: ndtr(u) * (1.0 - ndtr(u))
    return adaptive_quad(f, 0.0, 40.0, 1e-12)


@lru_cache(maxsize=32)
def _flattop_cross_moment(spec: FlatTopSpec) -> float:
    # int u K Kbar du rewritten by parts as (1/2) int Kbar (1 - Kbar):
    # absolutely convergent and even, so integrate once over [0, T]
    f = lambda u: integrated_kernel(spec, u) * (1.0 - integrated_kernel(spec, u))
    if spec.family == TRAPEZOID:
        t_end = 3000.0
        value = adaptive_quad(f, 0.0, t_end, 1e-10)
        # analytic tail of int (1 - Kbar), from the Si asymptotics
        c = spec.c
        tail = (np.cos(t_end) / t_end ** 2
                - np.cos(c * t_end) / (c ** 2 * t_end ** 2)) / (np.pi * (1 - c))
        return float(value + tail)
    return adaptive_quad(f, 0.0, _smooth_tail_cutoff(spec, 2e-12), 1e-10)


def kernel_cross_moment(kern) -> float:
    """The constant int u K(u) Kbar(u) du in the second-order variance term."""
    if isinstance(kern, GaussianKernel):
        return _gaussian_cross_moment()
    if isinstance(kern, FlatTopSpec):
        return _flattop_cross_moment(kern)
    raise TypeError(f"no cross moment for {type(kern).__name__}")
