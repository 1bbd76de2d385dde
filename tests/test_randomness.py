"""Marginal laws, joint cycle-vector dependence structures, and RNG streams."""

import math

import numpy as np
import pytest
from scipy import integrate

from oracles import breakpoints, cdf, row_major_cycle_vectors, tail
from regenverify import ConfigurationError, DependenceSpec, MarginalSpec
from regenverify.randomness import sample_cycle_vectors, substream


def ks_distance(draws: np.ndarray, cdf) -> float:
    """sup |ECDF - CDF|, valid for discrete laws too: both functions are
    right-continuous steps, so the sup is attained at a jump point or just
    below one."""
    xs = np.sort(np.asarray(draws, dtype=float))
    points = np.unique(xs)
    eval_pts = np.concatenate([points, np.nextafter(points, -np.inf)])
    ecdf = np.searchsorted(xs, eval_pts, side="right") / len(xs)
    return float(np.abs(ecdf - np.asarray(cdf(eval_pts))).max())


def quadrature_mean(spec: MarginalSpec, upper: float) -> float:
    """Independent route to E[T] = int_0^inf P(T > u) du."""
    val, _ = integrate.quad(tail(spec), 0.0, upper,
                            points=list(breakpoints(spec)) or None,
                            limit=200)
    return val


# ---------------------------------------------------------------------------
# marginal sampling


def test_deterministic_marginal_is_point_mass():
    spec = MarginalSpec.deterministic(2.0)
    gen = substream(7, 0)
    assert all(spec.validate().sample(gen) == 2.0 for _ in range(50))


def test_exponential_sample_mean():
    spec = MarginalSpec.exponential(1.0)
    draws = spec.sample(substream(11, 0), 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.003


def test_gamma_sample_variance():
    spec = MarginalSpec.gamma(2.0, 1.0)
    draws = spec.sample(substream(13, 0), 1_000_000)
    assert abs(draws.var(ddof=1) - 2.0) < 0.02


@pytest.mark.parametrize("spec, expected", [
    (MarginalSpec.exponential(2.0), 0.5),
    (MarginalSpec.gamma(3.0, 2.0), 1.5),
    (MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5}), 1.5),
])
def test_marginal_mean_closed_forms(spec, expected):
    assert spec.validate().mean() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("spec", [
    MarginalSpec.exponential(1.3),
    MarginalSpec.gamma(2.0, 1.0),
    MarginalSpec.deterministic(2.0),
    MarginalSpec.lattice(0.5, {1: 0.25, 2: 0.5, 4: 0.25}),
    MarginalSpec.shifted_uniform(1.0, 3.0),
])
def test_marginal_mean_matches_tail_quadrature(spec):
    if spec.arithmetic:
        upper = max(y for y, _ in spec.atoms())
    else:
        upper = spec.support_upper()
    if not math.isfinite(upper):
        upper = 60.0 / (spec.rate or 1.0)
    assert spec.validate().mean() == pytest.approx(
        quadrature_mean(spec, upper), abs=1e-8)


@pytest.mark.parametrize("spec", [
    MarginalSpec.exponential(1.0),
    MarginalSpec.gamma(2.0, 1.0),
    MarginalSpec.deterministic(2.0),
    MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5}),
    MarginalSpec.shifted_uniform(1.0, 3.0),
])
def test_every_kind_ecdf_within_ks_bound(spec):
    draws = spec.sample(substream(17, 0), 100_000)
    assert ks_distance(draws, cdf(spec)) < 0.01


@pytest.mark.parametrize("bad", [
    MarginalSpec.exponential(0.0),
    MarginalSpec.exponential(-1.0),
    MarginalSpec.gamma(0.0, 1.0),
    MarginalSpec.deterministic(-2.0),
    MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.6}),
    MarginalSpec.lattice(1.0, {0: 1.0}),
    MarginalSpec.shifted_uniform(2.0, 1.0),
])
def test_invalid_marginals_rejected(bad):
    with pytest.raises(ConfigurationError):
        bad.validate()


# ---------------------------------------------------------------------------
# joint cycle vectors


def test_independent_deterministic_vector():
    dep = DependenceSpec.independent()
    margs = [MarginalSpec.deterministic(1.0), MarginalSpec.deterministic(1.0)]
    vec = sample_cycle_vectors(dep, margs, substream(0, 0), 1)[0]
    assert vec.tolist() == [1.0, 1.0]


def test_comonotone_rank_correlation_is_one():
    dep = DependenceSpec.comonotone()
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.exponential(1.0)]
    draws = sample_cycle_vectors(dep, margs, substream(3, 0),
                                 100_000)
    r0 = np.argsort(np.argsort(draws[:, 0]))
    r1 = np.argsort(np.argsort(draws[:, 1]))
    corr = np.corrcoef(r0, r1)[0, 1]
    assert abs(corr - 1.0) <= 1e-9
    assert np.array_equal(r0, r1)


def test_comonotone_different_rates_scale_exactly():
    dep = DependenceSpec.comonotone()
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.exponential(0.5)]
    draws = sample_cycle_vectors(dep, margs, substream(5, 0),
                                 10_000)
    # exponential quantile functions are proportional, so the coupling is a
    # deterministic scaling
    assert np.allclose(draws[:, 1], 2.0 * draws[:, 0], rtol=1e-12)


def test_comonotone_exponential_and_gamma_1_share_one_quantile():
    dep = DependenceSpec.comonotone()
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.gamma(1.0, 0.5)]
    draws = sample_cycle_vectors(dep, margs, substream(5, 1), 10_000)
    # one unit shape, one unit-rate quantile divided by each rate
    assert draws[:, 1].tobytes() == (draws[:, 0] / 0.5).tobytes()


def test_unit_shapes_of_every_kind():
    laws = [MarginalSpec.exponential(2.0), MarginalSpec.gamma(2.5, 2.0),
            MarginalSpec.deterministic(1.0),
            MarginalSpec.lattice(1.0, {1: 1.0}),
            MarginalSpec.shifted_uniform(0.5, 1.5)]
    assert [sp.unit_shape for sp in laws] == [1.0, 2.5, None, None, None]


@pytest.mark.parametrize("rate", [1.0, 0.5, 3.0])
def test_gamma_1_draws_the_exponential_stream(rate):
    gamma, expo = MarginalSpec.gamma(1.0, rate), MarginalSpec.exponential(rate)
    assert gamma.sample(substream(41, 0)) == expo.sample(substream(41, 0))
    assert (gamma.sample(substream(41, 1), 4097).tobytes()
            == expo.sample(substream(41, 1), 4097).tobytes())


def test_common_shock_correlation():
    shock = MarginalSpec.exponential(1.0)
    dep = DependenceSpec.common_shock(shock)
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.exponential(1.0)]
    draws = sample_cycle_vectors(dep, margs, substream(9, 0),
                                 100_000)
    # coordinates are Z + E_i with Var Z = Var E_i = 1, so corr = 1/2
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr - 0.5) < 0.01


def test_gaussian_copula_identity_behaves_independent():
    dep = DependenceSpec.gaussian_copula(np.eye(2))
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.gamma(2.0, 1.0)]
    draws = sample_cycle_vectors(dep, margs, substream(21, 0),
                                 100_000)
    u = cdf(margs[0])(draws[:, 0])
    v = cdf(margs[1])(draws[:, 1])
    grid = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    for a in grid:
        for b in grid:
            emp = np.mean((u <= a) & (v <= b))
            worst = max(worst, abs(emp - a * b))
    assert worst < 0.02


def test_gaussian_copula_marginals_preserved():
    corr = np.array([[1.0, 0.7], [0.7, 1.0]])
    dep = DependenceSpec.gaussian_copula(corr)
    margs = [MarginalSpec.exponential(2.0), MarginalSpec.gamma(3.0, 2.0)]
    draws = sample_cycle_vectors(dep, margs, substream(23, 0),
                                 100_000)
    assert ks_distance(draws[:, 0], cdf(margs[0])) < 0.01
    assert ks_distance(draws[:, 1], cdf(margs[1])) < 0.01


def test_common_shock_shifts_marginals_by_shock():
    shock = MarginalSpec.deterministic(1.0)
    dep = DependenceSpec.common_shock(shock)
    margs = [MarginalSpec.exponential(1.0)]
    draws = sample_cycle_vectors(dep, margs, substream(25, 0),
                                 100_000)
    assert draws.min() >= 1.0
    assert ks_distance(draws[:, 0] - 1.0, cdf(margs[0])) < 0.01


EXP1, EXP_HALF = MarginalSpec.exponential(1.0), MarginalSpec.exponential(0.5)
ORACLE_CASES = {
    "independent": (DependenceSpec.independent(),
                    [EXP1, MarginalSpec.gamma(2.0, 1.0),
                     MarginalSpec.lattice(0.5, {1: 0.3, 3: 0.7})]),
    "comonotone_identical": (DependenceSpec.comonotone(), [EXP_HALF] * 3),
    "comonotone_rates": (DependenceSpec.comonotone(),
                         [EXP1, EXP_HALF, MarginalSpec.exponential(3.0)]),
    "comonotone_mixed": (DependenceSpec.comonotone(),
                         [MarginalSpec.gamma(2.0, 1.5), EXP1,
                          MarginalSpec.lattice(0.5, {1: 0.3, 3: 0.7}),
                          MarginalSpec.gamma(3.0, 0.7),
                          MarginalSpec.shifted_uniform(0.2, 1.9),
                          MarginalSpec.gamma(2.0, 4.0),
                          MarginalSpec.deterministic(1.3), EXP_HALF]),
    # exponential and gamma(1) laws share one unit quantile
    "comonotone_gamma_1": (DependenceSpec.comonotone(),
                           [MarginalSpec.gamma(1.0, 0.7), EXP1,
                            MarginalSpec.gamma(2.0, 1.5),
                            MarginalSpec.gamma(1.0, 3.0)]),
    "common_shock": (DependenceSpec.common_shock(EXP_HALF),
                     [EXP1, MarginalSpec.gamma(2.0, 1.0),
                      MarginalSpec.deterministic(0.5)]),
    "gaussian_copula": (DependenceSpec.gaussian_copula(
        [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
        [EXP1, MarginalSpec.gamma(2.0, 1.0),
         MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5})]),
}


@pytest.mark.parametrize("size", [1, 4097])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cycle_vectors_match_row_major_oracle(case, size):
    dep, margs = ORACLE_CASES[case]
    draws = sample_cycle_vectors(dep, margs, substream(31, size), size)
    ref = row_major_cycle_vectors(dep, margs, substream(31, size), size)
    assert draws.shape == ref.shape == (size, len(margs))
    assert draws.tobytes() == ref.tobytes()
    # stored coordinate-major: each coordinate's column is contiguous
    assert all(draws[:, i].flags.c_contiguous for i in range(len(margs)))


def test_dimension_mismatch_rejected():
    dep = DependenceSpec.gaussian_copula(np.eye(3))
    margs = [MarginalSpec.exponential(1.0), MarginalSpec.exponential(1.0)]
    with pytest.raises(ConfigurationError):
        sample_cycle_vectors(dep, margs, substream(1, 0), 10)


def test_invalid_copula_matrices_rejected():
    with pytest.raises(ConfigurationError):
        DependenceSpec.gaussian_copula([[1.0, 0.5]]).validate()
    with pytest.raises(ConfigurationError):
        DependenceSpec.gaussian_copula([[1.0, 0.9], [0.1, 1.0]]).validate()
    with pytest.raises(ConfigurationError):
        DependenceSpec.gaussian_copula([[2.0, 0.0], [0.0, 1.0]]).validate()
    with pytest.raises(ConfigurationError):
        # eigenvalues (2, 0, -1): symmetric, unit diagonal, not PSD
        DependenceSpec.gaussian_copula([[1.0, 1.0, -1.0],
                                        [1.0, 1.0, 1.0],
                                        [-1.0, 1.0, 1.0]]).validate()


# ---------------------------------------------------------------------------
# streams


def test_same_stream_is_reproducible():
    a = substream(42, 0).random(100)
    b = substream(42, 0).random(100)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = substream(42, 0).random(100)
    b = substream(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = substream(42, 0).random(100)
    b = substream(43, 0).random(100)
    assert not np.array_equal(a, b)


def test_samplers_reject_anything_but_a_generator():
    with pytest.raises(TypeError):
        MarginalSpec.exponential(1.0).sample(42, 10)
    with pytest.raises(TypeError):
        sample_cycle_vectors(DependenceSpec.independent(),
                             [MarginalSpec.exponential(1.0)],
                             np.random.SeedSequence(42), 10)


def test_substream_keys_are_distinct():
    a = substream(42, 1, 2).random(50)
    b = substream(42, 1, 3).random(50)
    c = substream(42, 1, 2).random(50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
