"""Single-coordinate renewal mechanics and the equilibrium (stationary) laws.

The equilibrium CDF ``F_e(x) = mean^{-1} * int_0^x P(T > u) du`` is computed
in closed form for exponential, deterministic, and gamma cycle laws and by
adaptive quadrature (absolute tolerance 1e-10) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ConfigurationError
from .randomness import MarginalSpec, as_generator


def compensated_cumsum(values) -> np.ndarray:
    """Running sums with Kahan compensation, ~1 ulp of error per term.

    Plain float64 cumulative sums drift by O(sqrt(n)) ulps of the total,
    which misplaces renewal epochs relative to nearby observation times on
    long horizons.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(len(values))
    total = 0.0
    comp = 0.0
    for k in range(len(values)):
        y = float(values[k]) - comp
        s = total + y
        comp = (s - total) - y
        total = s
        out[k] = total
    return out


@dataclass(frozen=True, eq=False)
class RenewalPath:
    """Renewal epochs ``0 = S_0 < S_1 < ... `` covering ``[0, horizon]``.

    The last epoch always lies at or beyond the horizon so counts, ages, and
    residuals are well defined everywhere on the covered window.
    """

    epochs: np.ndarray
    horizon: float

    def __post_init__(self):
        eps = np.asarray(self.epochs, dtype=float)
        object.__setattr__(self, "epochs", eps)
        if len(eps) < 1 or eps[0] != 0.0:
            raise ValueError("epochs must start at S_0 = 0")
        if np.any(np.diff(eps) <= 0.0):
            raise ValueError("epochs must be strictly increasing")
        if not (self.horizon >= 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be finite and nonnegative")
        if eps[-1] < self.horizon:
            raise ValueError("epochs must reach the horizon")

    @classmethod
    def from_lengths(cls, lengths, horizon: float | None = None
                     ) -> "RenewalPath":
        lengths = np.asarray(lengths, dtype=float)
        if len(lengths) == 0 or np.any(lengths <= 0.0):
            raise ValueError("cycle lengths must be positive")
        epochs = np.concatenate([[0.0], compensated_cumsum(lengths)])
        if horizon is None:
            horizon = float(epochs[-1])
        return cls(epochs, float(horizon))

    @classmethod
    def generate(cls, spec: MarginalSpec, horizon: float, rng
                 ) -> "RenewalPath":
        """Simulate epochs until the partial sums pass strictly beyond
        ``horizon``, so the straddling cycle at the horizon exists."""
        spec.validate()
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise ConfigurationError("horizon must be positive and finite")
        gen = as_generator(rng)
        mean = spec.mean()
        chunks = []
        total = 0.0
        while total <= horizon:
            want = max(int((horizon - total) / mean * 1.1) + 16, 16)
            block = np.asarray(spec.sample(gen, want), dtype=float)
            chunks.append(block)
            total += float(block.sum())
        lengths = np.concatenate(chunks)
        epochs = np.concatenate([[0.0], compensated_cumsum(lengths)])
        cut = int(np.searchsorted(epochs, horizon, side="right"))
        return cls(epochs[:cut + 1], horizon)


def count_at(path: RenewalPath, t: float) -> int:
    """Number of completed renewals by time ``t``: max{n : S_n <= t}."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError(f"t={t} outside the covered window "
                         f"[0, {path.horizon}]")
    return int(np.searchsorted(path.epochs, t, side="right")) - 1


@dataclass(frozen=True)
class AgeResidual:
    """Backward and forward recurrence times at one instant."""

    age: float
    residual: float

    @property
    def spread(self) -> float:
        return self.age + self.residual


def age_residual_at(path: RenewalPath, t: float) -> AgeResidual:
    n = count_at(path, t)
    if n + 1 >= len(path.epochs):
        raise ValueError("path ends before the residual at t is known")
    return AgeResidual(age=t - float(path.epochs[n]),
                       residual=float(path.epochs[n + 1]) - t)


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


def spread_sampler(spec: MarginalSpec, rng, size=None):
    """Draws from the length-biased cycle law (the stationary spread),
    with density ``x P(T in dx) / mean``."""
    spec.validate()
    gen = as_generator(rng)
    k = spec.kind
    if k == "exponential":
        out = gen.gamma(2.0, 1.0 / spec.rate, size)
    elif k == "gamma":
        out = gen.gamma(spec.shape + 1.0, 1.0 / spec.rate, size)
    elif k == "deterministic":
        out = spec.value if size is None else np.full(size, spec.value)
    elif k == "lattice":
        locs = np.array([n * spec.span for n, _ in spec.weights])
        biased = np.array([n * w for n, w in spec.weights])
        cumw = np.cumsum(biased / biased.sum())
        idx = np.minimum(np.searchsorted(cumw, gen.random(size), side="left"),
                         len(locs) - 1)
        out = locs[idx]
    else:
        # size-biased uniform on [lo, hi]: CDF (x^2 - lo^2)/(hi^2 - lo^2)
        u = gen.random(size)
        out = np.sqrt(spec.lo ** 2 + u * (spec.hi ** 2 - spec.lo ** 2))
    return float(out) if size is None else out
