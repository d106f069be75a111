"""scipy.special's ndtr, ndtri and sici, with scipy loaded on first call.

Importing scipy.special takes about 0.3 s and maps scipy's own OpenBLAS
into the process, while most commands evaluate none of these functions:
a smooth-kernel fit, the threshold rule, a smooth kernel table and the
deficiency expansions.  The modules that call them import these
stand-ins instead, so scipy.special loads only when one is first
called; after that each call costs one more Python call.
"""
from __future__ import annotations

from functools import cache


@cache
def load():
    """The scipy.special module, imported on the first call."""
    import scipy.special
    return scipy.special


def ndtr(x, out=None):
    """Standard normal CDF: scipy.special.ndtr, into out when given."""
    return load().ndtr(x, out=out)


def ndtri(p):
    """Standard normal quantile: scipy.special.ndtri."""
    return load().ndtri(p)


def sici(x):
    """Sine and cosine integrals (Si, Ci): scipy.special.sici."""
    return load().sici(x)
