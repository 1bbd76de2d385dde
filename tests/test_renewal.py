"""Equilibrium laws of a renewal process and the stationary age/residual
states that should follow them."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import breakpoints, tail
from regenverify import MarginalSpec
from regenverify.engine import sample_states
from regenverify.models import AgeResidualSpec, build_age_residual
from regenverify.randomness import substream
from regenverify.renewal import equilibrium_cdf, equilibrium_tail


def fe_quadrature(spec: MarginalSpec, x: float) -> float:
    """Independent route to F_e(x) = mean^{-1} int_0^x P(T > u) du."""
    if x <= 0.0:
        return 0.0
    pts = [p for p in breakpoints(spec) if 0.0 < p < x]
    val, _ = integrate.quad(tail(spec), 0.0, x, points=pts or None,
                            limit=200, epsabs=1e-12)
    return min(val / spec.mean(), 1.0)


# ---------------------------------------------------------------------------
# stationary age and residual


def test_stationary_age_matches_equilibrium_law():
    # exponential cycles at a distant observation time: the age ECDF must
    # match the equilibrium law, which for exponential(1) is itself
    model = build_age_residual(AgeResidualSpec(MarginalSpec.exponential(1.0),
                                               copies=1))
    states = sample_states(model, [1000.0], 100_000, seed=29)
    ages = states[0][:, 0]
    ks = stats.kstest(ages, lambda q: equilibrium_cdf(
        MarginalSpec.exponential(1.0), q)).statistic
    assert ks < 0.01


def test_joint_age_residual_tail_identity():
    # stationary P(age > x, residual > y) = P(residual > x + y)
    spec = MarginalSpec.gamma(2.0, 1.0)
    model = build_age_residual(AgeResidualSpec(spec, copies=1))
    states = sample_states(model, [1000.0], 100_000, seed=31)
    age = states[0][:, 0]
    resid = states[0][:, 1]
    worst = 0.0
    for x in (0.25, 0.5, 1.0, 2.0):
        for y in (0.25, 0.5, 1.0, 2.0):
            joint = np.mean((age > x) & (resid > y))
            ref = equilibrium_tail(spec, x + y)
            worst = max(worst, abs(joint - ref))
    assert worst < 0.02


# ---------------------------------------------------------------------------
# equilibrium distribution


def test_equilibrium_cdf_exponential_closed_form():
    lam = 1.3
    spec = MarginalSpec.exponential(lam)
    for x in (0.1, 0.5, 1.0, 2.5, 7.0):
        want = -math.expm1(-lam * x)
        assert equilibrium_cdf(spec, x) == pytest.approx(want, abs=1e-12)
        assert equilibrium_cdf(spec, x) == pytest.approx(
            fe_quadrature(spec, x), abs=1e-9)


def test_equilibrium_cdf_deterministic_is_uniform():
    spec = MarginalSpec.deterministic(2.0)
    for x in (0.0, 0.5, 1.0, 2.0, 3.0):
        want = min(x / 2.0, 1.0)
        assert equilibrium_cdf(spec, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec", [
    MarginalSpec.gamma(2.0, 1.0),
    MarginalSpec.gamma(0.7, 2.0),
    MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5}),
    MarginalSpec.shifted_uniform(1.0, 3.0),
    MarginalSpec.exponential(1.3),
    MarginalSpec.deterministic(2.0),
])
def test_equilibrium_cdf_matches_quadrature(spec, monkeypatch):
    # every kind's law is in closed form: quadrature is the reference only
    xs = (0.2, 0.7, 1.3, 2.1, 4.0)
    want = [fe_quadrature(spec, x) for x in xs]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("equilibrium_cdf ran a quadrature")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    for x, ref in zip(xs, want):
        assert equilibrium_cdf(spec, x) == pytest.approx(ref, abs=1e-10)


def test_equilibrium_cdf_zero_at_origin():
    for spec in (MarginalSpec.exponential(2.0), MarginalSpec.gamma(2.0, 1.0),
                 MarginalSpec.deterministic(1.0),
                 MarginalSpec.shifted_uniform(0.5, 1.5)):
        assert equilibrium_cdf(spec, 0.0) == 0.0


def test_equilibrium_cdf_monotone_and_saturates():
    spec = MarginalSpec.gamma(2.0, 1.0)
    grid = np.linspace(0.0, 40.0, 200)
    vals = np.array([equilibrium_cdf(spec, x) for x in grid])
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] > 1.0 - 1e-6


@pytest.mark.parametrize("spec", [
    MarginalSpec.exponential(1.0),
    MarginalSpec.gamma(2.0, 1.0),
    MarginalSpec.deterministic(1.0),
    MarginalSpec.shifted_uniform(0.5, 2.0),
])
def test_equilibrium_tail_midpoint_convex(spec):
    grid = np.linspace(0.0, 3.0, 31)
    tail = np.array([equilibrium_tail(spec, x) for x in grid])
    mid = 0.5 * (tail[:-2] + tail[2:])
    assert np.all(tail[1:-1] <= mid + 1e-12)


# ---------------------------------------------------------------------------
# spread sampling and the uniform split


def spread_sampler(spec: MarginalSpec, rng, size=None):
    """Draws from the length-biased cycle law (the stationary spread),
    with density ``x P(T in dx) / mean``."""
    spec.validate()
    k = spec.kind
    if k == "exponential":
        out = rng.gamma(2.0, 1.0 / spec.rate, size)
    elif k == "gamma":
        out = rng.gamma(spec.shape + 1.0, 1.0 / spec.rate, size)
    elif k == "deterministic":
        out = spec.value if size is None else np.full(size, spec.value)
    elif k == "lattice":
        locs = np.array([n * spec.span for n, _ in spec.weights])
        biased = np.array([n * w for n, w in spec.weights])
        cumw = np.cumsum(biased / biased.sum())
        idx = np.minimum(np.searchsorted(cumw, rng.random(size), side="left"),
                         len(locs) - 1)
        out = locs[idx]
    else:
        # size-biased uniform on [lo, hi]: CDF (x^2 - lo^2)/(hi^2 - lo^2)
        u = rng.random(size)
        out = np.sqrt(spec.lo ** 2 + u * (spec.hi ** 2 - spec.lo ** 2))
    return float(out) if size is None else out


def test_spread_of_exponential_is_gamma21():
    spec = MarginalSpec.exponential(1.0)
    draws = spread_sampler(spec, substream(41, 0), 100_000)
    assert abs(draws.mean() - 2.0) < 0.01
    ks = stats.kstest(draws, stats.gamma(2.0).cdf).statistic
    assert ks < 0.01


def test_spread_of_deterministic_is_constant():
    spec = MarginalSpec.deterministic(1.5)
    draws = spread_sampler(spec, substream(43, 0), 1000)
    assert np.all(draws == 1.5)


def test_spread_of_gamma_mean():
    spec = MarginalSpec.gamma(2.0, 1.0)
    draws = spread_sampler(spec, substream(47, 0), 100_000)
    # E T^2 / E T = 6 / 2
    assert abs(draws.mean() - 3.0) < 0.02


def test_spread_of_lattice_is_size_biased():
    spec = MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5})
    draws = spread_sampler(spec, substream(53, 0), 100_000)
    # size-biased weights: (1*0.5, 2*0.5) / 1.5 -> P(2) = 2/3
    assert abs(np.mean(draws == 2.0) - 2.0 / 3.0) < 0.01


def uniform_split_check(spec: MarginalSpec, rng, n: int
                        ) -> tuple[float, float]:
    """Split spread draws at an independent uniform and KS-test both halves
    against the equilibrium CDF.

    Returns the two KS statistics; under the stationary construction both
    pieces follow the equilibrium law.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples for a stable statistic")
    alpha = np.asarray(spread_sampler(spec, rng, n), dtype=float)
    u = rng.random(n)
    cdf = lambda q: equilibrium_cdf(spec, q)
    ks_lo = stats.kstest(u * alpha, cdf).statistic
    ks_hi = stats.kstest((1.0 - u) * alpha, cdf).statistic
    return float(ks_lo), float(ks_hi)


def test_uniform_split_exponential():
    ks_lo, ks_hi = uniform_split_check(MarginalSpec.exponential(1.0),
                                       substream(59, 0), 100_000)
    assert ks_lo < 0.01
    assert ks_hi < 0.01


def test_uniform_split_deterministic():
    ks_lo, ks_hi = uniform_split_check(MarginalSpec.deterministic(1.0),
                                       substream(61, 0), 100_000)
    assert ks_lo < 0.01
    assert ks_hi < 0.01


def test_uniform_split_rejects_tiny_n():
    with pytest.raises(ValueError):
        uniform_split_check(MarginalSpec.exponential(1.0),
                            substream(1, 0), 0)
