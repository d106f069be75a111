"""Test-side oracles: values the tests check the library against that
no command computes."""
from __future__ import annotations

from scipy.special import ndtr

from ftcdf.quadrature import adaptive_quad


def gaussian_cross_moment() -> float:
    """int u phi(u) Phi(u) du of the standard normal kernel, by quadrature
    of its by-parts form int_0^40 Phi (1 - Phi); exactly 1/(2 sqrt(pi))."""
    f = lambda u: ndtr(u) * (1.0 - ndtr(u))
    return adaptive_quad(f, 0.0, 40.0, 1e-12)
