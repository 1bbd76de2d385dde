"""Equilibrium (stationary) laws of a single-coordinate renewal process.

The equilibrium CDF ``F_e(x) = mean^{-1} * int_0^x P(T > u) du
= E min(T, x) / mean`` is computed in closed form for every marginal kind:
through the incomplete gamma function for gamma cycles, and as a finite sum
or a polynomial in ``x`` for the arithmetic and uniform ones.
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
    elif k == "lattice":
        locs, probs = np.array(spec.atoms()).T
        out = np.minimum.outer(xs, locs) @ probs / spec.mean()
    else:
        # the tail is 1 below lo and falls linearly to 0 at hi
        y = np.minimum(xs, spec.hi)
        ramp = np.maximum(y - spec.lo, 0.0)
        out = (y - ramp * ramp / (2.0 * (spec.hi - spec.lo))) / spec.mean()
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def equilibrium_tail(spec: MarginalSpec, x):
    return 1.0 - equilibrium_cdf(spec, x)


def mean_excess(spec: MarginalSpec, x: float) -> float:
    """``E (T - x)^+``, the integrated tail beyond ``x``, at any real ``x``:
    cycles are nonnegative, so it is ``E T - x`` when ``x <= 0``."""
    if x <= 0.0:
        return spec.mean() - x
    return spec.mean() * float(equilibrium_tail(spec, x))
