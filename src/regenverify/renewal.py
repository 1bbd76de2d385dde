"""Equilibrium (stationary) laws of a single-coordinate renewal process.

The equilibrium CDF ``F_e(x) = mean^{-1} * int_0^x P(T > u) du`` is computed
in closed form for exponential, deterministic, and gamma cycle laws and by
adaptive quadrature (absolute tolerance 1e-10) otherwise.
"""

from __future__ import annotations

import numpy as np

from .randomness import MarginalSpec


def equilibrium_cdf(spec: MarginalSpec, x):
    """Stationary age/residual CDF of a renewal process with cycles ``spec``.

    Accepts scalars or arrays of nonnegative points.
    """
    spec.validate()
    arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(arr)
    if np.any(xs < 0.0):
        raise ValueError("evaluation points must be nonnegative")
    k = spec.kind
    if k == "exponential":
        out = -np.expm1(-spec.rate * xs)
    elif k == "deterministic":
        out = np.clip(xs / spec.value, 0.0, 1.0)
    elif k == "gamma":
        # int_0^x tail(u) du = x * tail(x) + mean * F_{shape+1}(x)
        from scipy import special
        z = spec.rate * xs
        out = (special.gammainc(spec.shape + 1.0, z)
               + xs * special.gammaincc(spec.shape, z) / spec.mean())
    else:
        out = _equilibrium_cdf_quadrature(spec, xs)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _equilibrium_cdf_quadrature(spec: MarginalSpec, xs: np.ndarray
                                ) -> np.ndarray:
    from scipy import integrate
    mean = spec.mean()
    bps = spec.quad_breakpoints()
    upper = spec.support_upper()
    uniq = np.unique(xs)
    table = {}
    total = 0.0
    prev = 0.0
    for x in uniq:
        lo, hi = prev, min(float(x), upper)
        if hi > lo:
            pts = [b for b in bps if lo < b < hi] or None
            seg, _ = integrate.quad(lambda u: float(spec.tail(u)), lo, hi,
                                    points=pts, epsabs=1e-10, limit=200)
            total += seg
        table[float(x)] = total / mean
        prev = max(prev, hi)
    return np.array([table[float(x)] for x in xs])


def equilibrium_tail(spec: MarginalSpec, x):
    return 1.0 - equilibrium_cdf(spec, x)


def mean_excess(spec: MarginalSpec, x):
    """``E (T - x)^+``, the integrated tail beyond ``x``."""
    return spec.mean() * equilibrium_tail(spec, x)
