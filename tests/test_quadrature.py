from __future__ import annotations

import numpy as np
import pytest

import ftcdf.quadrature as quadrature
from ftcdf.quadrature import QuadratureError, adaptive_quad, unit_gl_rule


def test_polynomial_exact():
    assert adaptive_quad(lambda x: x ** 3, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-14)


def test_sine_lobe():
    assert adaptive_quad(np.sin, 0.0, np.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)


def test_oscillatory():
    val = adaptive_quad(np.cos, 0.0, 100.0 * np.pi, 1e-10)
    assert abs(val) < 1e-9
    val2 = adaptive_quad(lambda x: np.cos(50.0 * x), 0.0, 40.0, 1e-11)
    assert val2 == pytest.approx(np.sin(2000.0) / 50.0, abs=1e-10)


def test_zero_width_interval():
    assert adaptive_quad(np.exp, 2.0, 2.0) == 0.0


def test_nonfinite_limits_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(np.exp, 0.0, np.inf)


def test_escalates_instead_of_truncating(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)
    jump = np.sqrt(2.0) / 2.0
    f = lambda x: (np.asarray(x) > jump).astype(float)
    with pytest.raises(QuadratureError, match="at depth 12"):
        adaptive_quad(f, 0.0, 1.0, 1e-13)


def test_unit_gl_rule():
    nodes, wts = unit_gl_rule(8)
    assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.dot(nodes ** 4, wts) == pytest.approx(0.2, abs=1e-14)
    assert np.all((nodes > 0) & (nodes < 1))
    with pytest.raises(ValueError):
        unit_gl_rule(1)
