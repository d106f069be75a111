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
the kernel's mass.  A table finds spline intervals by one bucket
lookup, and values by two routes with the same bits: per value, or,
for a dense row of 2-d arguments (nonincreasing, as each row of the
estimators' kernel sums is, and holding more values than it spans
knots, with a margin for the per-row cost), a merge of the row against
the knots between its looked-up ends.  Tables hold the raw,
non-monotone Kbar: valid CDF paths come from standardizing an
estimate, not the kernel.  K itself is evaluated directly, never
interpolated.  The Gaussian kernel is included as a comparator: like a
table, it offers kbar and tail_cutoff.
Only the trapezoid's sine integral and the Gaussian's normal CDF load
scipy.special; the smooth family and the tables' spline need no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import ndtr, sici
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
# points per block of a table's kbar lookup.  The merge takes pieces of
# twice as many values: its temporaries hold five values per value
# merged, about as much as the lookup of one block
_LOOKUP_BLOCK = 1 << 14
# fixed cost of merging one row of 2-d arguments against the knots, in
# values of the bucket lookup (KernelTable._merge_dense_rows)
_MERGE_ROW = 2048
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
    # one chunk x nodes buffer holds the phases, then their trig values
    buf = np.empty((min(_CHUNK, x.size), nodes.size))
    for i in range(0, x.size, _CHUNK):
        blk = x[i:i + _CHUNK, None]
        phase = buf[:blk.shape[0]]
        np.multiply(blk, nodes, out=phase)
        out[i:i + _CHUNK] = trig(phase, out=phase) @ coef
    return out / np.pi if want_kernel else 0.5 + out / np.pi


def _dispatch(spec, x, want_kernel):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if spec.family == TRAPEZOID:
        out = _trap_kernel(spec.c, a) if want_kernel else _trap_kbar(spec.c, a)
    else:
        out = _smooth_transforms(spec, a.ravel(),
                                 want_kernel).reshape(a.shape)
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


def _kernel_name(spec: FlatTopSpec) -> str:
    """How a refusal names the kernel, e.g. 'smooth kernel at c=0.6'."""
    return f"{spec.family} kernel at c={float(spec.c)!r}"


def _trap_tail_cutoff(c: float, tol: float) -> float:
    # |1 - Kbar(t)| <= (2/c + 2) / (pi (1-c) t^2), by parts twice
    c2 = (2.0 / c + 2.0) / (np.pi * (1.0 - c))
    return float(np.sqrt(c2 / tol))


def _smooth_tail_cutoff(spec, tol: float) -> float:
    t = 32.0
    while True:
        # _gl_order refuses every t >= 8192, a cutoff the smooth
        # transforms cannot reach, before any quadrature at t
        try:
            _gl_order(t)
        except QuadratureError as exc:
            raise QuadratureError(
                f"{_kernel_name(spec)}: {exc}; --c is too large for the "
                "smooth family") from exc
        gap = abs(1.0 - integrated_kernel_by_quad(spec, t, tol=tol / 20))
        if gap < 0.5 * tol:
            gap2 = abs(1.0 - integrated_kernel_by_quad(spec, 2 * t, tol=tol / 20))
            if gap2 <= gap:
                return t
        t *= 2.0


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


def _solve_tridiagonal(dl: list, d: list, du: list, b: list) -> list:
    """x with A x = b, for the tridiagonal A of order n >= 2 with
    subdiagonal dl, diagonal d and superdiagonal du (lists of floats);
    overwrites all four.

    LAPACK dgtsv for one right-hand side, operation for operation, which
    is what scipy.linalg.solve_banded runs for (1, 1) bands, so x
    carries its bits: Gaussian elimination with partial pivoting, where
    a row interchange fills a second superdiagonal kept in dl (the last
    step has none to fill), then back substitution.  A zero pivot
    raises LinAlgError, as solve_banded does for a singular matrix.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients, shape (4, n-1), of the not-a-knot cubic
    spline through (x, y), highest power first.

    The arithmetic of scipy's CubicSpline for n > 3 knots: the same
    tridiagonal system for the knot slopes, with the same not-a-knot end
    rows, solved by _solve_tridiagonal, the LAPACK routine CubicSpline
    reaches through solve_banded, then the cubic Hermite form.  Every
    coefficient carries CubicSpline's bits.
    """
    n = x.size
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least 4 knots")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    diag = np.empty(n)
    rhs = np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0] = dx[1]
    upper = [float(d), *dx[:-1].tolist()]
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1] = dx[-2]
    lower = [*dx[1:].tolist(), float(d)]
    rhs[-1] = (dx[-1] ** 2 * slope[-2]
               + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.array(_solve_tridiagonal(lower, diag.tolist(), upper,
                                    rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _power_sum(v: np.ndarray, knot: np.ndarray, coef: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """c3 + c2 s + c1 (s s) + c0 ((s s) s) at v, with s = v - knot, summed
    in that order as PPoly sums it; into out when given (out may be v).
    knot and coef, whose rows are c0 to c3, hold each point's interval's
    values, and are overwritten."""
    c0, c1, c2, c3 = coef
    s = np.subtract(v, knot, out=knot)
    out = np.multiply(c2, s, out=out)
    out += c3
    s_pow = np.multiply(s, s, out=c3)
    c1 *= s_pow
    out += c1
    s_pow *= s
    c0 *= s_pow
    out += c0
    return out


@dataclass
class KernelTable:
    """Tabulated Kbar, made and certified only by build_table: the
    not-a-knot cubic spline through (grid, kbar_values), valued as
    scipy's PPoly, within the grid (see tail_cutoff beyond it).

    kbar_values holds the raw integrated kernel, genuinely non-monotone
    because flat-top kernels take negative values.  Estimators consume
    the raw values: the bias cancellation that motivates these kernels
    lives in the oscillation, and flattening it would re-introduce a
    systematic error far above the table tolerance.  Path-level
    standardization (estimators.standardize_path) is the way to get a
    valid CDF out of an estimate.

    The interval of v is the i with grid[i] <= v < grid[i+1], the last
    knot belonging to the last interval, and the value is the power sum
    in ascending order.  _locate, the one interval rule, is a bucket
    lookup in u = sign(v) sqrt|v|, where the knots are spread about
    evenly (a uniform core, then spacing growing like sqrt(t)): a bucket
    starts at the last knot of the buckets below it, and points step up
    past the knots inside their own bucket.  Values come by two routes:
    _lookup locates each point; _merge_row, for a sorted row between two
    located intervals, counts the points of each interval by one search
    of the knots into the row and lays out their knots and coefficients
    by np.repeat, which pays on rows denser than the knots.  The arrays
    are read-only, as get_table hands one table to every fit.
    """
    spec: FlatTopSpec
    grid: np.ndarray
    kbar_values: np.ndarray
    tol: float

    def __post_init__(self):
        x = self.grid
        self.coef = _not_a_knot_coefficients(x, self.kbar_values)
        u = np.copysign(np.sqrt(np.abs(x)), x)
        self._u0 = u[0]
        self._inv_width = 1.0 / (_BUCKET_SCALE * np.min(np.diff(u)[1:-1]))
        buckets = int((u[-1] - u[0]) * self._inv_width) + 1
        self._top = float(buckets - 1)
        below = np.searchsorted(self._bucket(x), np.arange(buckets))
        self._start = np.maximum(below - 1, 0)
        # the knots, the last nudged up: a search for it counts the
        # values at or below the last knot.  From 1 on, the knot that
        # ends each interval, as no value lies above the last knot
        self._cuts = np.append(x[:-1], np.nextafter(x[-1], np.inf))
        self._end = self._cuts[1:]
        for a in (x, self.kbar_values, self.coef, self._start, self._cuts,
                  self._end):
            a.flags.writeable = False

    @property
    def tail_cutoff(self) -> float:
        """T, the end of the grid: Kbar is 0 below -T and 1 above T."""
        return float(self.grid[-1])

    def kbar(self, x, out=None):
        """Kbar at x; into out, a C-contiguous float array of x's shape,
        when given (out may be x itself), and then returns out.

        The dense rows of 2-d x (_merge_dense_rows) are merged against
        the knots, each row alone; every other value goes through the
        bucket lookup, row by row in place when some rows were merged.
        Both routes give a value the same interval and the same bits.
        """
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0 and out is None
        a = np.atleast_1d(arr)
        if out is None:
            out = np.empty(a.shape)
        elif out.shape != arr.shape or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous array of x's shape")
        merged = self._merge_dense_rows(a, out)
        if merged.any():
            for r in np.flatnonzero(~merged).tolist():
                self._lookup(a[r], out[r])
        else:
            self._lookup(a.ravel(), out.reshape(-1))
        return float(out[0]) if scalar else out

    def _bucket(self, v: np.ndarray) -> np.ndarray:
        # monotone in v, so a knot in a lower bucket lies below v; fmax
        # and fmin also send NaN to bucket 0, where it stays NaN
        q = (np.copysign(np.sqrt(np.abs(v)), v) - self._u0) * self._inv_width
        return np.fmin(np.fmax(q, 0.0), self._top).astype(np.intp)

    def _locate(self, v: np.ndarray) -> np.ndarray:
        """The interval of each value of v, which lies within the knots
        (NaN gets interval 0), in v's shape."""
        flat = v.ravel()
        i = np.take(self._start, self._bucket(flat))
        up = np.flatnonzero(flat >= np.take(self._end, i))
        while up.size:
            i[up] += 1
            up = up[flat[up] >= np.take(self._end, i[up])]
        return i.reshape(v.shape)

    def _merge_dense_rows(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Kbar of the dense rows of a into out, by the merge; returns
        which rows of a it wrote (none unless a is 2-d).

        A row is dense when it is nonincreasing, as the estimators'
        kernel sums make each row, and holds more than _MERGE_ROW values
        plus twice the knots between its ends, clipped to +-T.  Then the
        merge's costs per row and per knot spanned are below the
        lookup's cost per value.  A row longer than 2 * _LOOKUP_BLOCK
        values is merged in about equal pieces, so that the merge's
        temporaries stay small.
        """
        n = a.shape[1] if a.ndim == 2 else 0
        if n <= _MERGE_ROW:
            return np.zeros(0, dtype=bool)
        step = math.ceil(n / math.ceil(n / (2 * _LOOKUP_BLOCK)))
        starts = np.arange(0, n, step)
        T = self.tail_cutoff
        # the intervals of each piece's first (largest) and last values
        ends = np.concatenate((starts, np.minimum(starts + step, n) - 1))
        where = self._locate(np.clip(a[:, ends], -T, T))
        top, bottom = where[:, :starts.size], where[:, starts.size:]
        dense = n > _MERGE_ROW + 2 * (top[:, 0] - bottom[:, -1])
        if dense.any():
            dense &= np.all(a[:, 1:] <= a[:, :-1], axis=1)
        for r in np.flatnonzero(dense).tolist():
            for j, first, last in zip(starts.tolist(), bottom[r].tolist(),
                                      top[r].tolist()):
                piece = slice(j, j + step)
                self._merge_row(a[r, piece], first, last, out[r, piece])
        return dense

    def _merge_row(self, row: np.ndarray, first: int, last: int,
                   out: np.ndarray) -> None:
        """Kbar, by the merge, of a nonincreasing row whose values within
        the knots lie in intervals first to last, into out (which may be
        row)."""
        # one search: the values below the first knot, below each knot
        # from first + 1 to last, and up to the last knot
        edges = np.searchsorted(row[::-1], self._cuts[first:last + 2])
        lo, hi = row.size - int(edges[-1]), row.size - int(edges[0])
        # the row descends: its intervals run from last down to first
        counts = (edges[1:] - edges[:-1])[::-1]
        knots = self.grid[first:last + 1][::-1]
        coef = self.coef[:, first:last + 1][:, ::-1]
        _power_sum(row[lo:hi], np.repeat(knots, counts),
                   np.repeat(coef, counts, axis=1), out[lo:hi])
        out[:lo] = 1.0
        out[hi:] = 0.0

    def _lookup(self, flat: np.ndarray, dest: np.ndarray) -> None:
        """Kbar of 1-d flat into dest (which may be flat) by the bucket
        lookup."""
        T = self.tail_cutoff
        # in blocks, so the lookup's temporaries stay small; a block is
        # read in full before it is written, so dest may alias flat
        for i in range(0, flat.size, _LOOKUP_BLOCK):
            v = flat[i:i + _LOOKUP_BLOCK]
            inside = np.clip(v, -T, T)
            at = self._locate(inside)
            values = _power_sum(inside, np.take(self.grid, at),
                                np.take(self.coef, at, axis=1))
            values[v < -T] = 0.0
            values[v > T] = 1.0
            dest[i:i + _LOOKUP_BLOCK] = values


def _certify(table: KernelTable) -> None:
    """Compare the Kbar spline against direct evaluation at panel midpoints."""
    mids = 0.5 * (table.grid[:-1] + table.grid[1:])
    err = np.max(np.abs(table.kbar(mids) - integrated_kernel(table.spec, mids)))
    if err > table.tol:
        raise QuadratureError(
            f"{_kernel_name(table.spec)}: table interpolation error "
            f"{err:.3g} exceeds tol {table.tol:.3g}")


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
        raise QuadratureError(f"{_kernel_name(spec)}: kernel mass "
                              f"{float(mass)!r} off unity beyond 10*tol")


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
    table = KernelTable(spec=spec, grid=grid, kbar_values=kbar_vals, tol=tol)
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

    def kbar(self, x, out=None):
        return ndtr(np.asarray(x, dtype=float), out=out)

    def __repr__(self):
        return "GaussianKernel()"


@lru_cache(maxsize=32)
def kernel_cross_moment(spec: FlatTopSpec) -> float:
    """The constant int u K(u) Kbar(u) du of a flat-top kernel's spec, in
    the second-order variance term."""
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
