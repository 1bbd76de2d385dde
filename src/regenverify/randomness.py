"""Reproducible random streams, marginal laws, and dependent vector samplers.

Streams are keyed by ``(seed, *key)`` through ``SeedSequence`` spawn keys, so
any replication's stream is reachable in O(1) without generating the draws of
earlier replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy 2 imports numpy.random on first use; import it with the package so
# that a run's first draw does not pay for it. scipy is imported inside the
# gamma branches and the Gaussian copula, the only code here that needs it.
import numpy.random

from .errors import ConfigurationError

# each kind and the fields it reads
MARGINAL_KINDS = {"exponential": ("rate",), "gamma": ("shape", "rate"),
                  "deterministic": ("value",), "lattice": ("span", "weights"),
                  "shifted_uniform": ("lo", "hi")}
DEPENDENCE_KINDS = {"independent": (), "comonotone": (),
                    "common_shock": ("shock",),
                    "gaussian_copula": ("correlation",)}


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for a hierarchical stream key: distinct keys give
    statistically independent streams."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed),
                               spawn_key=tuple(int(k) for k in key)))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(
        f"expected a numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class MarginalSpec:
    """A law on the positive half line used for cycle lengths, jump sizes,
    update marks, and restart levels.

    Exactly one parameter set is meaningful per kind:

    - ``exponential``: rate
    - ``gamma``: shape, rate
    - ``deterministic``: value
    - ``lattice``: span and ``weights`` = ((multiplier, probability), ...)
      placing mass on ``multiplier * span``
    - ``shifted_uniform``: uniform on [lo, hi]
    """

    kind: str
    rate: float | None = None
    shape: float | None = None
    value: float | None = None
    span: float | None = None
    weights: tuple[tuple[int, float], ...] | None = None
    lo: float | None = None
    hi: float | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "MarginalSpec":
        return cls("exponential", rate=float(rate))

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "MarginalSpec":
        return cls("gamma", shape=float(shape), rate=float(rate))

    @classmethod
    def deterministic(cls, value: float) -> "MarginalSpec":
        return cls("deterministic", value=float(value))

    @classmethod
    def lattice(cls, span: float, weights) -> "MarginalSpec":
        if isinstance(weights, dict):
            items = sorted(weights.items())
        else:
            items = sorted((int(n), float(w)) for n, w in weights)
        return cls("lattice", span=float(span),
                   weights=tuple((int(n), float(w)) for n, w in items))

    @classmethod
    def shifted_uniform(cls, lo: float, hi: float) -> "MarginalSpec":
        return cls("shifted_uniform", lo=float(lo), hi=float(hi))

    # -- validation --------------------------------------------------------

    def validate(self) -> "MarginalSpec":
        k = self.kind
        if k not in MARGINAL_KINDS:
            raise ConfigurationError(f"unknown marginal kind {k!r}")
        if k == "exponential":
            _require_positive("rate", self.rate)
        elif k == "gamma":
            _require_positive("shape", self.shape)
            _require_positive("rate", self.rate)
        elif k == "deterministic":
            _require_positive("value", self.value)
        elif k == "lattice":
            _require_positive("span", self.span)
            _require_present("weights", self.weights)
            if not self.weights:
                raise ConfigurationError("lattice needs at least one atom")
            total = 0.0
            for n, w in self.weights:
                if n < 1:
                    raise ConfigurationError(
                        "lattice multipliers must be integers >= 1")
                if not (w > 0.0 and math.isfinite(w)):
                    raise ConfigurationError(
                        "lattice weights must be positive and finite")
                total += w
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"lattice weights sum to {total!r}, expected 1")
        else:
            _require_present("lo", self.lo)
            _require_present("hi", self.hi)
            if not (0.0 <= self.lo < self.hi and math.isfinite(self.hi)):
                raise ConfigurationError(
                    "shifted_uniform needs 0 <= lo < hi < inf")
        return self

    # -- moments -----------------------------------------------------------

    def mean(self) -> float:
        k = self.kind
        if k == "exponential":
            return 1.0 / self.rate
        if k == "gamma":
            return self.shape / self.rate
        if k == "deterministic":
            return self.value
        if k == "lattice":
            return self.span * sum(n * w for n, w in self.weights)
        return 0.5 * (self.lo + self.hi)

    @property
    def arithmetic(self) -> bool:
        """True when all mass sits on a lattice {0, d, 2d, ...}."""
        return self.kind in ("deterministic", "lattice")

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(location, probability) pairs for discrete kinds."""
        if self.kind == "deterministic":
            return ((self.value, 1.0),)
        if self.kind == "lattice":
            return tuple((n * self.span, w) for n, w in self.weights)
        raise ValueError(f"{self.kind} marginal has no atoms")

    def quad_breakpoints(self) -> tuple[float, ...]:
        """Points a quadrature routine should not integrate across blindly."""
        if self.kind == "deterministic":
            return (self.value,)
        if self.kind == "lattice":
            return tuple(n * self.span for n, w in self.weights)
        if self.kind == "shifted_uniform":
            return (self.lo, self.hi)
        return ()

    def support_upper(self) -> float:
        if self.kind == "deterministic":
            return self.value
        if self.kind == "lattice":
            return max(n for n, _ in self.weights) * self.span
        if self.kind == "shifted_uniform":
            return self.hi
        return math.inf

    # -- distribution functions --------------------------------------------

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        k = self.kind
        if k == "exponential":
            out = -np.expm1(-self.rate * np.maximum(xs, 0.0))
        elif k == "gamma":
            from scipy import special
            out = special.gammainc(self.shape, self.rate * np.maximum(xs, 0.0))
        elif k == "deterministic":
            out = (xs >= self.value).astype(float)
        elif k == "lattice":
            locs = np.array([n * self.span for n, _ in self.weights])
            cumw = np.cumsum([w for _, w in self.weights])
            idx = np.searchsorted(locs, xs, side="right")
            out = np.where(idx > 0, cumw[np.maximum(idx - 1, 0)], 0.0)
        else:
            out = np.clip((xs - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    def tail(self, x):
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        xs = np.asarray(x, dtype=float)
        k = self.kind
        if k == "exponential":
            out = np.where(xs >= 0.0, self.rate * np.exp(-self.rate * xs), 0.0)
        elif k == "gamma":
            from scipy import special
            with np.errstate(divide="ignore", invalid="ignore"):
                logpdf = (self.shape * math.log(self.rate)
                          + (self.shape - 1.0) * np.log(xs)
                          - self.rate * xs - special.gammaln(self.shape))
            out = np.where(xs > 0.0, np.exp(logpdf), 0.0)
        elif k == "shifted_uniform":
            out = np.where((xs >= self.lo) & (xs <= self.hi),
                           1.0 / (self.hi - self.lo), 0.0)
        else:
            raise ValueError(f"{k} marginal has no density")
        return out if np.ndim(x) else float(out)

    def ppf(self, u):
        us = np.asarray(u, dtype=float)
        if np.any((us < 0.0) | (us > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        k = self.kind
        if k == "exponential":
            out = -np.log1p(-us) / self.rate
        elif k == "gamma":
            from scipy import special
            out = special.gammaincinv(self.shape, us) / self.rate
        elif k == "deterministic":
            out = np.full_like(us, self.value)
        elif k == "lattice":
            locs = np.array([n * self.span for n, _ in self.weights])
            cumw = np.cumsum([w for _, w in self.weights])
            idx = np.minimum(np.searchsorted(cumw, us, side="left"),
                             len(locs) - 1)
            out = locs[idx]
        else:
            out = self.lo + us * (self.hi - self.lo)
        return out if np.ndim(u) else float(out)

    def sample(self, rng, size=None):
        gen = as_generator(rng)
        k = self.kind
        if k == "exponential":
            out = gen.exponential(1.0 / self.rate, size)
        elif k == "gamma":
            out = gen.gamma(self.shape, 1.0 / self.rate, size)
        elif k == "deterministic":
            out = self.value if size is None else np.full(size, self.value)
        elif k == "lattice":
            out = self.ppf(gen.random(size))
        else:
            out = gen.uniform(self.lo, self.hi, size)
        return float(out) if size is None else out


def _require_present(name: str, value) -> None:
    if value is None:
        raise ConfigurationError("missing required field", name)


def _require_positive(name: str, value) -> None:
    _require_present(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be positive and finite, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class DependenceSpec:
    """How the coordinates of one cycle vector hang together.

    - ``independent``: product law.
    - ``comonotone``: a single uniform pushed through every marginal's
      inverse CDF (maximal positive dependence, marginals preserved).
    - ``common_shock``: output ``i`` is ``Z + R_i`` with one shared shock
      ``Z ~ shock`` and independent residuals ``R_i`` from ``marginals[i]``;
      the effective marginal of coordinate ``i`` is the convolution.
    - ``gaussian_copula``: correlated normals mapped through Phi and then
      each marginal's inverse CDF; marginals preserved.
    """

    kind: str
    shock: MarginalSpec | None = None
    correlation: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def independent(cls) -> "DependenceSpec":
        return cls("independent")

    @classmethod
    def comonotone(cls) -> "DependenceSpec":
        return cls("comonotone")

    @classmethod
    def common_shock(cls, shock: MarginalSpec) -> "DependenceSpec":
        return cls("common_shock", shock=shock)

    @classmethod
    def gaussian_copula(cls, correlation) -> "DependenceSpec":
        rows = tuple(tuple(float(v) for v in row) for row in correlation)
        return cls("gaussian_copula", correlation=rows)

    def validate(self, dimension: int | None = None) -> "DependenceSpec":
        if self.kind not in DEPENDENCE_KINDS:
            raise ConfigurationError(f"unknown dependence kind {self.kind!r}")
        if self.kind == "common_shock":
            _require_present("shock", self.shock)
            self.shock.validate()
        if self.kind == "gaussian_copula":
            _require_present("correlation", self.correlation)
            rows = self.correlation
            if not len(rows) or any(len(row) != len(rows) for row in rows):
                raise ConfigurationError("correlation matrix must be square")
            mat = np.asarray(rows, dtype=float)
            if dimension is not None and mat.shape[0] != dimension:
                raise ConfigurationError(
                    f"correlation matrix is {mat.shape[0]}x{mat.shape[0]} "
                    f"but the cycle vector has {dimension} coordinates")
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ConfigurationError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(mat), 1.0, atol=1e-12):
                raise ConfigurationError(
                    "correlation matrix must have unit diagonal")
            if np.linalg.eigvalsh(mat).min() < -1e-10:
                raise ConfigurationError(
                    "correlation matrix must be positive semidefinite")
        return self

    def _copula_factor(self) -> np.ndarray:
        mat = np.asarray(self.correlation, dtype=float)
        w, v = np.linalg.eigh(mat)
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_cycle_vectors(dep: DependenceSpec, marginals, rng,
                         size: int) -> np.ndarray:
    """``size`` i.i.d. cycle vectors as a (size, m) array."""
    gen = as_generator(rng)
    marginals = tuple(marginals)
    m = len(marginals)
    if m < 1:
        raise ConfigurationError("need at least one marginal")
    dep.validate(m)
    for sp in marginals:
        sp.validate()
    if dep.kind == "independent":
        return np.column_stack([sp.sample(gen, size) for sp in marginals])
    if dep.kind == "comonotone":
        if all(sp == marginals[0] for sp in marginals):
            # identical marginals: one shared draw per row realises the
            # same coupling as the inverse-CDF route without quantile cost
            base = np.asarray(marginals[0].sample(gen, size), dtype=float)
            return np.repeat(base[:, None], m, axis=1)
        u = gen.random(size)
        return np.column_stack([sp.ppf(u) for sp in marginals])
    if dep.kind == "common_shock":
        z = np.asarray(dep.shock.sample(gen, size), dtype=float)
        return np.column_stack([z + sp.sample(gen, size) for sp in marginals])
    from scipy import special
    factor = dep._copula_factor()
    z = gen.standard_normal((size, m)) @ factor.T
    u = special.ndtr(z)
    return np.column_stack([marginals[i].ppf(u[:, i]) for i in range(m)])


def effective_cycle_mean(dep: DependenceSpec, marginal: MarginalSpec) -> float:
    """Mean of one coordinate after the dependence transform."""
    if dep.kind == "common_shock":
        return dep.shock.mean() + marginal.mean()
    return marginal.mean()


def effective_arithmetic(dep: DependenceSpec, marginal: MarginalSpec) -> bool:
    if dep.kind == "common_shock":
        return dep.shock.arithmetic and marginal.arithmetic
    return marginal.arithmetic
