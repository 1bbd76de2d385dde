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
from regenverify import asymptotics
from regenverify.engine import Moments, exp_neg, indicator_le, sample_states
from regenverify.randomness import substream
from regenverify.asymptotics import (GapEstimate, ScheduleCoordinate,
                                     SweepResult, _quantile, check,
                                     product_form_gap)

from oracles import gap_totals, product_form_gap_rows

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
    est = product_form_gap(gap_totals(mat))
    assert est.gap <= 3.0 * est.se
    assert not est.degenerate


def test_gap_on_identical_columns_is_quarter():
    gen = substream(306, 0)
    col = (gen.random(20_000) < 0.5).astype(float)
    est = product_form_gap(gap_totals(np.column_stack([col, col])))
    assert abs(est.gap - 0.25) < 0.01
    assert est.gap > 10.0 * est.se


def test_gap_on_constant_columns_is_degenerate_zero():
    mat = np.ones((2000, 3))
    est = product_form_gap(gap_totals(mat))
    assert est.gap == 0.0
    assert est.se == 0.0
    assert est.degenerate


def test_gap_flags_any_constant_column():
    # one constant column makes the tuple vacuous, and float rounding can
    # leave its SE a hair above zero
    gen = substream(309, 0)
    bern = (gen.random(10_000) < 0.37).astype(float)
    est = product_form_gap(gap_totals(np.column_stack([np.ones(10_000),
                                                       bern])))
    assert est.gap == 0.0
    assert est.degenerate


def test_gap_invariant_under_permuting_replications():
    gen = substream(308, 0)
    mat = gen.random((5000, 2))
    a = product_form_gap(gap_totals(mat))
    b = product_form_gap(gap_totals(mat[gen.permutation(5000)]))
    # invariant up to summation order
    assert a.gap == pytest.approx(b.gap, abs=1e-13)
    assert a.mean_of_products == pytest.approx(b.mean_of_products, abs=1e-13)


def test_gap_se_matches_spread_of_signed_gap_under_null():
    # independent Bernoulli(1/2) columns: the reported SE must be the
    # sampling spread of the signed gap, not of its absolute value
    signed, ses = [], []
    for rep in range(200):
        gen = substream(317, rep)
        est = product_form_gap(gap_totals(
            (gen.random((5000, 2)) < 0.5).astype(float)))
        signed.append(est.mean_of_products - math.prod(est.marginal_means))
        ses.append(est.se)
    ratio = np.mean(ses) / np.std(signed, ddof=1)
    assert abs(ratio - 1.0) <= 0.10


def test_gap_input_validation():
    with pytest.raises(ValueError):
        product_form_gap(gap_totals(np.ones((999, 2))))
    # the product row alone, with no coordinate
    with pytest.raises(ValueError):
        product_form_gap(Moments.of(np.ones((1, 2000))))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_gap_matches_row_major_reference(m):
    gen = substream(318, m)
    n = 10_000
    # dependent 0/1 columns through a shared uniform, so the gap is not 0
    shared = gen.random((n, 1))
    ind = (0.5 * shared + 0.5 * gen.random((n, m))
           < gen.uniform(0.3, 0.7, m)).astype(float)
    ours = product_form_gap(gap_totals(ind), t=1.0)
    ref = product_form_gap_rows(ind, t=1.0)
    assert ours.gap == ref.gap
    # the SE is a quadratic form in co-moments, the reference's the spread
    # of the influence values; they agree to rounding
    assert ours.se == pytest.approx(ref.se, rel=1e-12, abs=0.0)
    assert ours.degenerate == ref.degenerate
    assert ours.marginal_means == ref.marginal_means
    # continuous columns: the totals' sums are pairwise, the reference's
    # down a column sequential, so they agree to rounding; the gap is a
    # difference of two terms of the size of the mean of products, and
    # agrees on their scale
    cont = gen.exponential(size=(n, m))
    ours = product_form_gap(gap_totals(cont), t=1.0)
    ref = product_form_gap_rows(cont, t=1.0)
    assert ours.gap == pytest.approx(ref.gap, rel=1e-12,
                                     abs=1e-12 * ref.mean_of_products)
    assert ours.mean_of_products == pytest.approx(ref.mean_of_products,
                                                  rel=1e-12)
    assert ours.se == pytest.approx(ref.se, rel=1e-12)
    assert ours.marginal_means == pytest.approx(ref.marginal_means, rel=1e-12)
    assert ours.marginal_ses == pytest.approx(ref.marginal_ses, rel=1e-12)
    assert ours.degenerate == ref.degenerate
    # totals folded in chunks: 0/1 gaps and means exact, the rest to
    # rounding
    for mat in (ind, cont):
        whole = product_form_gap(gap_totals(mat), t=1.0)
        parts = product_form_gap(gap_totals(mat, chunk=999), t=1.0)
        if mat is ind:
            assert parts.gap == whole.gap
            assert parts.marginal_means == whole.marginal_means
        assert parts.gap == pytest.approx(
            whole.gap, rel=1e-12, abs=1e-12 * whole.mean_of_products)
        assert parts.se == pytest.approx(whole.se, rel=1e-12)
        assert parts.marginal_ses == pytest.approx(whole.marginal_ses,
                                                   rel=1e-12)
        assert parts.degenerate == whole.degenerate


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_folds_every_chunk_into_the_row_major_gap(monkeypatch,
                                                        threads):
    monkeypatch.setenv("REGEN_VERIFY_THREADS", threads)
    seen = []

    def spy(totals, **kwargs):
        seen.append(totals.count)
        return product_form_gap(totals, **kwargs)

    monkeypatch.setattr(asymptotics, "product_form_gap", spy)
    model = drift_clearing([1.0, 0.5], DependenceSpec.comonotone())
    sched = affine([(1, 0), (1, 0)])
    fs = [("q50", (indicator_le(1.0), indicator_le(2.0))),
          ("q25", (indicator_le(0.3), indicator_le(0.6))),
          ("exp", (exp_neg(), exp_neg()))]
    grid = (10.0, 50.0, 200.0)
    chunk = model.window_chunk
    # one full chunk, two, and several with a short last one
    for n in (chunk, 2 * chunk, 5 * chunk + 123):
        seen.clear()
        sweep = convergence_sweep(model, sched, grid, fs, n, seed=319)
        assert seen == [n] * 9
        for k, t in enumerate(grid):
            states = sample_states(model, sched.values(t), n, 319,
                                   base_key=(101, k))
            for f_id, pair in fs:
                [est] = [g for g in sweep.gaps
                         if g.t == t and g.f_id == f_id]
                mat = np.column_stack([f(x) for f, x in zip(pair, states)])
                ref = product_form_gap_rows(mat, t=t, f_id=f_id)
                if f_id.startswith("q"):
                    assert est.gap == ref.gap
                    assert est.marginal_means == ref.marginal_means
                else:
                    assert est.gap == pytest.approx(
                        ref.gap, rel=1e-12, abs=1e-12 * ref.mean_of_products)
                    assert est.marginal_means == pytest.approx(
                        ref.marginal_means, rel=1e-12)
                assert est.se == pytest.approx(ref.se, rel=1e-12, abs=0.0)
                assert est.marginal_ses == pytest.approx(ref.marginal_ses,
                                                         rel=1e-12)
                assert est.degenerate == ref.degenerate


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
              gap("flagged", 0.0, 0.0, True)))   # degenerate but zero gap
    passed, rows = final_gap_verdict(sweep, gap_floor=0.02)
    assert passed
    assert [r["f_id"] for r in rows] == ["small", "wide_se", "flagged"]
    assert rows[1]["threshold"] == pytest.approx(0.06)
    assert rows[2]["degenerate"]
    assert [r["threshold_by"] for r in rows] == ["floor", "se", "floor"]

    sweep_bad = SweepResult(t_grid=(10.0, 100.0),
                            gaps=(gap("big", 0.5, 0.001),))
    passed, rows = final_gap_verdict(sweep_bad)
    assert not passed and not rows[0]["ok"]
    assert rows[0]["threshold"] == 0.02 and rows[0]["threshold_by"] == "floor"

    # the rule's edges: a gap equal to its threshold passes, a tie between
    # Z_LIMIT * SE and the floor is the floor's (the comparison is strict),
    # and a NaN gap fails
    sweep_edges = SweepResult(
        t_grid=(10.0, 100.0),
        gaps=(gap("at_se", 1.5, 0.5), gap("tie", 0.75, 0.25),
              gap("nan", math.nan, 0.001)))
    passed, rows = final_gap_verdict(sweep_edges, gap_floor=0.75)
    assert not passed
    assert [(r["threshold"], r["threshold_by"], r["ok"]) for r in rows] == [
        (1.5, "se", True), (0.75, "floor", True), (0.75, "floor", False)]
    # with no floor, as status-pi and stationary use it, 0 against SE 0
    # passes
    assert check(0.0, 0.0) == {"threshold": 0.0, "threshold_by": "floor",
                               "ok": True}


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
