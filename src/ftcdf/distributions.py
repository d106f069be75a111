"""Sampling and ground-truth CDFs for the Monte Carlo studies.

Three lifetime laws: the standard normal, the Weibull, and a Polya-type
density (1 - cos x)/(pi x^2) whose characteristic function (1 - |t|)+
vanishes beyond |t| = 1, making it the band-limited test case; it is
the trapezoid kernel at c = 0, and is evaluated by the same code.  Normal
and Weibull draws use one uniform per observation through the inverse
CDF; Polya-type draws use rejection from a Cauchy envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .kernels import _trap_kbar, _trap_kernel

NORMAL = "normal"
WEIBULL = "weibull"
POLYA = "polya"

# sup over x of density ratio (1-cos x)(1+x^2)/x^2 against the Cauchy
# envelope is ~2.2111, attained just below x = pi; 2.5 leaves margin
_POLYA_ENVELOPE = 2.5


@dataclass(frozen=True)
class DistSpec:
    """Distribution descriptor; shape/scale only used by the Weibull."""
    kind: str
    shape: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind == WEIBULL:
            for field in ("shape", "scale"):
                value = getattr(self, field)
                if value is None or not 0.0 < value < math.inf:
                    raise ValueError(f"weibull needs a finite positive "
                                     f"{field}, got {value!r}")
        elif self.kind in (NORMAL, POLYA):
            if self.shape is not None or self.scale is not None:
                raise ValueError(f"{self.kind} takes no parameters")
        else:
            raise ValueError(f"unknown distribution {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == WEIBULL:
            out["shape"] = self.shape
            out["scale"] = self.scale
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "DistSpec":
        return cls(payload["kind"], payload.get("shape"),
                   payload.get("scale"))


def polya_density(x):
    """(1 - cos x)/(pi x^2): the trapezoid kernel at c = 0."""
    return _trap_kernel(0, np.asarray(x, dtype=float))


def polya_cdf(x):
    """CDF of the Polya-type density, 1/2 + [(cos x - 1)/x + Si(x)]/pi:
    the trapezoid Kbar at c = 0."""
    x = np.asarray(x, dtype=float)
    out = np.clip(_trap_kbar(0, np.atleast_1d(x)), 0.0, 1.0)
    return float(out[0]) if x.ndim == 0 else out


def _sample_polya(count: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(count)
    have = 0
    while have < count:
        todo = count - have
        m = max(64, int(todo * _POLYA_ENVELOPE * 1.25))
        x = np.tan(np.pi * (rng.random(m) - 0.5))
        ratio = polya_density(x) * np.pi * (1.0 + x * x)
        if np.any(ratio > _POLYA_ENVELOPE):
            raise RuntimeError("rejection envelope violated")  # unreachable
        keep = x[rng.random(m) * _POLYA_ENVELOPE < ratio]
        take = min(todo, keep.size)
        out[have:have + take] = keep[:take]
        have += take
    return out


def sample_distribution(spec: DistSpec, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw `count` values; one uniform per draw except the Polya kind."""
    if spec.kind == NORMAL:
        u = rng.random(count)
        u[u == 0.0] = 2.0 ** -53  # keep the quantile finite
        return ndtri(u)
    if spec.kind == WEIBULL:
        u = rng.random(count)
        return spec.scale * (-np.log1p(-u)) ** (1.0 / spec.shape)
    return _sample_polya(count, rng)


def dist_cdf(spec: DistSpec, t):
    t = np.asarray(t, dtype=float)
    if spec.kind == NORMAL:
        return ndtr(t)
    if spec.kind == WEIBULL:
        out = -np.expm1(-np.clip(t / spec.scale, 0.0, None) ** spec.shape)
        return out
    return polya_cdf(t)


def dist_survival(spec: DistSpec, t):
    if spec.kind == WEIBULL:
        # direct exp form avoids 1 - (1 - exp(...)) cancellation
        t = np.asarray(t, dtype=float)
        return np.exp(-np.clip(t / spec.scale, 0.0, None) ** spec.shape)
    return 1.0 - dist_cdf(spec, t)
