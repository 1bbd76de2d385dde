"""Schedule hypothesis checks, product-form gap statistics, and the
independence diagnostics built on them."""

import math

import numpy as np
import pytest

from regenverify import (ClearingCoordinate, ClearingSpec, ConfigurationError,
                         DependenceSpec, HypothesisError, MarginalSpec,
                         ScheduleSpec, build_clearing, check_hypotheses,
                         convergence_sweep, final_gap_verdict,
                         quantile_indicator_tuples)
from regenverify.engine import indicator_le
from regenverify.randomness import substream
from regenverify.asymptotics import (GapEstimate, ScheduleCoordinate,
                                     SweepResult, _quantile, floored_trend,
                                     product_form_gap)

EXP1 = MarginalSpec.exponential(1.0)


def affine(pairs):
    return ScheduleSpec.affine(pairs)


def power(triples):
    return ScheduleSpec(tuple(ScheduleCoordinate("power", a, p=p)
                              for a, p in triples))


def drift_clearing(rates, dependence=None):
    coords = tuple(ClearingCoordinate(cycle_length=MarginalSpec.exponential(r))
                   for r in rates)
    dep = dependence or DependenceSpec.independent()
    return build_clearing(ClearingSpec(coordinates=coords, dependence=dep))


# ---------------------------------------------------------------------------
# schedule coordinates


def test_schedule_values():
    c = ScheduleCoordinate("affine", 2.0, b=5.0)
    assert c.value(10.0) == 25.0
    p = ScheduleCoordinate("power", 3.0, p=0.5)
    assert p.value(4.0) == pytest.approx(6.0, abs=1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        ScheduleCoordinate("affine", 0.0).validate()
    with pytest.raises(ConfigurationError):
        ScheduleCoordinate("cubic", 1.0).validate()
    with pytest.raises(ConfigurationError):
        ScheduleCoordinate("power", 1.0, p=-1.0).validate()
    with pytest.raises(ConfigurationError):
        ScheduleSpec(()).validate()


# ---------------------------------------------------------------------------
# hypothesis check


def test_equal_slopes_distinct_means_pass():
    v = check_hypotheses(affine([(1, 0), (1, 0)]), (1.0, 2.0))
    assert v.passed
    assert v.ratios == (1.0,)
    assert v.bounds == (0.5,)
    assert v.witness is None


def test_boundary_ratio_fails_with_witness():
    # liminf ratio 1/2 does not strictly exceed mu ratio 1
    v = check_hypotheses(affine([(1, 0), (2, 0)]), (1.0, 1.0))
    assert not v.passed
    assert v.witness == (0, 1)


def test_three_coordinates_descending_slopes_pass():
    v = check_hypotheses(affine([(3, 0), (2, 0), (1, 0)]), (1.0, 1.0, 1.0))
    assert v.passed
    assert v.ratios == (1.5, 2.0)


def test_power_families():
    # strictly larger exponent on the slower coordinate: ratio is infinite
    v = check_hypotheses(power([(1.0, 2.0), (5.0, 1.0)]), (1.0, 2.0))
    assert v.passed and v.ratios == (math.inf,)
    # equal exponents reduce to the slope ratio
    v = check_hypotheses(power([(1.0, 2.0), (1.5, 2.0)]), (1.0, 2.0))
    assert v.passed and v.ratios == pytest.approx((1.0 / 1.5,))
    # smaller exponent first: liminf is zero, never strict
    v = check_hypotheses(power([(1.0, 1.0), (1.0, 2.0)]), (1.0, 2.0))
    assert not v.passed and v.ratios == (0.0,)


def test_schedule_must_diverge():
    v = check_hypotheses(power([(5.0, 0.0)]), (1.0,))
    assert not v.passed and not v.diverges
    assert check_hypotheses(affine([(1, 0)]), (1.0,)).passed


def test_relabel_invariance_with_distinct_means():
    gen = substream(300, 0)
    for _ in range(50):
        m = int(gen.integers(2, 5))
        slopes = gen.uniform(0.2, 3.0, m)
        means = np.cumsum(gen.uniform(0.1, 1.0, m))  # distinct, ascending
        perm = gen.permutation(m)
        base = check_hypotheses(
            affine([(a, 0.0) for a in slopes]), means)
        shuffled = check_hypotheses(
            affine([(slopes[i], 0.0) for i in perm]), means[perm])
        assert base.passed == shuffled.passed


def test_affine_ratio_matches_numeric_evaluation():
    t = 1e6
    sched = affine([(2.0, 0.0), (1.0, 0.0), (0.5, 0.0)])
    v = check_hypotheses(sched, (1.0, 2.0, 3.0))
    for k in range(2):
        i, j = v.order[k], v.order[k + 1]
        numeric = (sched.coordinates[i].value(t)
                   / sched.coordinates[j].value(t))
        assert abs(v.ratios[k] - numeric) <= 1e-6 * abs(numeric)

    # nonzero shifts perturb the numeric ratio by O(b / (a t))
    sched = affine([(2.0, 7.0), (1.0, -3.0), (0.5, 100.0)])
    v = check_hypotheses(sched, (1.0, 2.0, 3.0))
    for k in range(2):
        i, j = v.order[k], v.order[k + 1]
        ci, cj = sched.coordinates[i], sched.coordinates[j]
        numeric = ci.value(t) / cj.value(t)
        slack = (abs(ci.b) / (ci.a * t) + abs(cj.b) / (cj.a * t)) + 1e-6
        assert abs(v.ratios[k] - numeric) <= slack * abs(numeric)


def test_check_hypotheses_input_errors():
    with pytest.raises(ConfigurationError):
        check_hypotheses(affine([(1, 0)]), (1.0, 2.0))
    with pytest.raises(ConfigurationError):
        check_hypotheses(affine([(1, 0)]), (0.0,))
    with pytest.raises(ConfigurationError):
        check_hypotheses(affine([(1, 0)]), (math.inf,))


# ---------------------------------------------------------------------------
# product-form gap


def test_gap_on_independent_columns_is_noise():
    gen = substream(305, 0)
    mat = (gen.random((20_000, 2)) < 0.5).astype(float)
    est = product_form_gap(mat)
    assert est.gap <= 3.0 * est.se
    assert not est.degenerate


def test_gap_on_identical_columns_is_quarter():
    gen = substream(306, 0)
    col = (gen.random(20_000) < 0.5).astype(float)
    est = product_form_gap(np.column_stack([col, col]))
    assert abs(est.gap - 0.25) < 0.01
    assert est.gap > 10.0 * est.se


def test_gap_on_constant_columns_is_degenerate_zero():
    mat = np.ones((2000, 3))
    est = product_form_gap(mat)
    assert est.gap == 0.0
    assert est.se == 0.0
    assert est.degenerate


def test_gap_flags_any_constant_column():
    # one constant column makes the tuple vacuous, and float rounding can
    # leave its SE a hair above zero
    gen = substream(309, 0)
    bern = (gen.random(10_000) < 0.37).astype(float)
    est = product_form_gap(np.column_stack([np.ones(10_000), bern]))
    assert est.gap == 0.0
    assert est.degenerate


def test_gap_invariant_under_permuting_replications():
    gen = substream(308, 0)
    mat = gen.random((5000, 2))
    a = product_form_gap(mat)
    b = product_form_gap(mat[gen.permutation(5000)])
    # invariant up to summation order
    assert a.gap == pytest.approx(b.gap, abs=1e-13)
    assert a.mean_of_products == pytest.approx(b.mean_of_products, abs=1e-13)


def test_gap_se_matches_spread_of_signed_gap_under_null():
    # independent Bernoulli(1/2) columns: the reported SE must be the
    # sampling spread of the signed gap, not of its absolute value
    signed, ses = [], []
    for rep in range(200):
        gen = substream(317, rep)
        est = product_form_gap((gen.random((5000, 2)) < 0.5).astype(float))
        signed.append(est.mean_of_products - math.prod(est.marginal_means))
        ses.append(est.se)
    ratio = np.mean(ses) / np.std(signed, ddof=1)
    assert abs(ratio - 1.0) <= 0.10


def test_gap_input_validation():
    with pytest.raises(ValueError):
        product_form_gap(np.ones((999, 2)))
    with pytest.raises(ValueError):
        product_form_gap(np.ones(2000))


# ---------------------------------------------------------------------------
# convergence sweep and verdict rule


@pytest.mark.parametrize("n", [1, 2, 3, 10_000])
def test_quantile_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    samples = (rng.exponential(size=n), rng.standard_normal(n),
               rng.integers(0, 3, n).astype(float), np.full(n, 0.7))
    for sample in samples:
        kept = sample.copy()
        for q in (0.25, 0.5, 0.75):
            ours = np.float64(_quantile(sample, q))
            assert ours.tobytes() == np.quantile(sample, q).tobytes()
        assert sample.tobytes() == kept.tobytes()


def test_sweep_positive_control_passes_final_gap_rule():
    model = drift_clearing([1.0, 0.5], DependenceSpec.comonotone())
    fs = quantile_indicator_tuples(model, 200.0, seed=310, prepass=4000)
    sweep = convergence_sweep(model, affine([(1, 0), (1, 0)]),
                              (10.0, 50.0, 200.0), fs, 5000, seed=310)
    passed, per_tuple = final_gap_verdict(sweep)
    assert passed
    assert len(per_tuple) == 3
    assert {row["f_id"] for row in per_tuple} == {"q25", "q50", "q75"}


def test_sweep_negative_control_gap_large_at_every_time():
    model = drift_clearing([1.0, 1.0], DependenceSpec.comonotone())
    sched = affine([(1, 0), (1, 0)])
    fs = quantile_indicator_tuples(model, 200.0, seed=311, prepass=4000)
    with pytest.raises(HypothesisError):
        convergence_sweep(model, sched, (10.0, 50.0, 200.0), fs, 5000,
                          seed=311)
    sweep = convergence_sweep(model, sched, (10.0, 50.0, 200.0), fs, 5000,
                              seed=311, allow_hypothesis_fail=True)
    worst = [max(g.gap for g in sweep.gaps if g.t == t) for t in sweep.t_grid]
    assert np.all(np.array(worst) >= 0.1)


def test_sweep_validation():
    model = drift_clearing([1.0, 0.5], DependenceSpec.comonotone())
    sched = affine([(1, 0), (1, 0)])
    one = indicator_le(math.inf)
    fs = [("c", (one, one))]
    with pytest.raises(ValueError):
        convergence_sweep(model, sched, (10.0, 50.0), fs, 5000, seed=312)
    with pytest.raises(ValueError):
        convergence_sweep(model, sched, (10.0, 50.0, 50.0), fs, 5000,
                          seed=312)
    with pytest.raises(ValueError):
        convergence_sweep(model, sched, (10.0, 50.0, 200.0), fs, 500,
                          seed=312)


def test_floored_trend():
    from scipy import stats

    grid = (10.0, 100.0, 1000.0)
    assert floored_trend(grid, (0.004, 0.019, 0.011), 0.02) == 0.0
    assert floored_trend(grid, (0.3, 0.1, 0.05), 0.02) < 0.0
    # clamping ties the last two points; ranks average like scipy's
    tied = (0.08, 0.01, 0.015)
    assert floored_trend(grid, tied, 0.02) == pytest.approx(
        stats.spearmanr(grid, np.maximum(tied, 0.02)).statistic)
    long_grid = (1.0, 2.0, 4.0, 8.0, 16.0)
    untied = (0.05, 0.09, 0.03, 0.07, 0.04)
    assert floored_trend(long_grid, untied, 0.02) == pytest.approx(
        stats.spearmanr(long_grid, untied).statistic)


def test_final_gap_verdict_thresholds():
    def gap(f_id, g, se, degenerate=False, t=100.0):
        return GapEstimate(t=t, f_id=f_id, n=5000, gap=g, se=se,
                           mean_of_products=0.0, marginal_means=(0.0,),
                           marginal_ses=(0.0,), degenerate=degenerate)

    sweep = SweepResult(
        t_grid=(10.0, 100.0),
        gaps=(gap("early", 0.9, 0.001, t=10.0),  # not at final t: ignored
              gap("small", 0.019, 0.001),        # under the floor
              gap("wide_se", 0.05, 0.02),        # under 3*SE
              gap("flagged", 0.0, 0.0, True)),   # degenerate but zero gap
        trend=0.0)
    passed, rows = final_gap_verdict(sweep, gap_floor=0.02)
    assert passed
    assert [r["f_id"] for r in rows] == ["small", "wide_se", "flagged"]
    assert rows[1]["threshold"] == pytest.approx(0.06)
    assert rows[2]["degenerate"]
    assert [r["threshold_by"] for r in rows] == ["floor", "se", "floor"]

    sweep_bad = SweepResult(t_grid=(10.0, 100.0),
                            gaps=(gap("big", 0.5, 0.001),), trend=0.0)
    passed, rows = final_gap_verdict(sweep_bad)
    assert not passed and not rows[0]["ok"]
    assert rows[0]["threshold"] == 0.02 and rows[0]["threshold_by"] == "floor"


# ---------------------------------------------------------------------------
# default test-function bank


def test_quantile_indicator_bank_matches_stationary_quantiles():
    # pure-drift clearing on exp(1) cycles: the stationary state is the age,
    # whose equilibrium law is again exp(1)
    model = drift_clearing([1.0])
    bank = quantile_indicator_tuples(model, 1000.0, seed=316)
    assert [f_id for f_id, _ in bank] == ["q25", "q50", "q75"]
    want = [-math.log(0.75), math.log(2.0), -math.log(0.25)]
    for (f_id, fs), q in zip(bank, want):
        assert len(fs) == 1
        assert fs[0].kind == "indicator"
        assert abs(fs[0].threshold - q) < 0.06
