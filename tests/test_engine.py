"""Cycle paths, exact test-function integrals, and the two estimation routes."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from oracles import Realization, cycle_arrays, from_paths, ratio_estimate
from regenverify import (BudgetExceededError, ClearingCoordinate, ClearingSpec,
                         DependenceSpec, MarginalSpec, build_clearing)
from regenverify.config import load_scenario, parse_scenario, scenario_to_json
from regenverify.engine import (CycleBatch, CyclePath, StateFunction,
                                cycle_functionals, exp_neg, identity,
                                indicator_le, path_integral,
                                renewal_reward_estimate, run_chunked,
                                sample_states, time_average_estimate)
from regenverify.models import (AgeResidualSpec, JacksonSpec,
                                LevyQueueCoordinate, LevyQueueSpec,
                                build_age_residual, build_jackson,
                                build_levy_queue, build_model)
from regenverify.randomness import substream
from regenverify import engine

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def segment_quadrature(g: StateFunction, value0, slope, length) -> float:
    """Independent numeric route to int_0^L g(v0 + u*s) du."""
    v0 = np.atleast_1d(np.asarray(value0, dtype=float))
    sl = np.atleast_1d(np.asarray(slope, dtype=float))
    val, _ = integrate.quad(lambda u: g(v0 + u * sl), 0.0, length,
                            limit=400, epsabs=1e-11)
    return val


def segment_integral(g: StateFunction, value0, slope, length) -> float:
    """Exact int_0^L g(v0 + u*s) du: the one-row case of
    ``StateFunction.segment_integrals``."""
    row = lambda x: np.asarray(x, dtype=float).reshape(1, -1)
    return float(g.segment_integrals(row(value0), row(slope),
                                     np.array([float(length)]))[0])


def pure_drift_clearing(marginal: MarginalSpec):
    return build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(cycle_length=marginal),),
        dependence=DependenceSpec.independent()))


# ---------------------------------------------------------------------------
# cycle paths


def test_cycle_path_piecewise_evaluation():
    path = CyclePath(breaks=np.array([0.0, 1.0, 3.0]),
                     values=np.array([[0.0], [5.0]]),
                     slopes=np.array([[1.0], [-2.0]]))
    assert path.at(0.0) == pytest.approx(0.0)
    assert path.at(0.5) == pytest.approx(0.5)
    assert path.at(1.0) == pytest.approx(5.0)  # right continuous at the jump
    assert path.at(2.0) == pytest.approx(3.0)
    assert path.length == 3.0
    with pytest.raises(ValueError):
        path.at(3.0)
    with pytest.raises(ValueError):
        path.at(-0.1)


def test_cycle_path_validation():
    with pytest.raises(ValueError):
        CyclePath(np.array([0.5, 1.0]), np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        CyclePath(np.array([0.0, 1.0, 1.0]), np.array([[1.0], [1.0]]),
                  np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# state functions: exact segment integrals against quadrature


# an indicator that always holds integrates to the segment length exactly
ONE = indicator_le(math.inf)


@pytest.mark.parametrize("g", [
    ONE,
    identity(),
    identity(1),
    indicator_le(1.2),
    indicator_le(-0.5),
    indicator_le(0.4, 1),
    exp_neg(),
    exp_neg(1),
])
@pytest.mark.parametrize("value0, slope, length", [
    ((0.0, 0.0), (1.0, 0.0), 2.0),
    ((2.0, 1.0), (-1.0, 0.5), 1.5),
    ((0.7, 0.2), (0.0, 0.0), 0.8),
    ((1.5, 0.1), (-0.9, 1.3), 3.0),
])
def test_segment_integral_matches_quadrature(g, value0, slope, length):
    v0 = np.array(value0)
    sl = np.array(slope)
    exact = segment_integral(g, v0, sl, length)
    assert exact == pytest.approx(segment_quadrature(g, v0, sl, length),
                                  abs=1e-8)


SEGMENT_CASES = [
    # (value0, slope, length)
    ((0.7, 0.2), (0.0, 0.0), 0.8),      # slope 0
    ((0.2, 0.1), (1.0, 0.5), 2.0),      # positive slope
    ((2.0, 1.0), (-1.0, 0.5), 1.5),     # negative slope
    ((0.5, 0.0), (1.0, 0.0), 1.0),      # crosses the threshold 1.2 upwards
    ((1.6, 0.0), (-1.0, 0.0), 1.0),     # crosses it downwards
    ((1.0, 0.3), (2.0, -1.0), 0.0),     # zero length
]


@pytest.mark.parametrize("g", [
    ONE,
    identity(),
    identity(1),
    indicator_le(1.2),
    indicator_le(0.5, 1),
    exp_neg(1),
])
def test_segment_integrals_array_form_matches_scalar(g):
    values = np.array([c[0] for c in SEGMENT_CASES])
    slopes = np.array([c[1] for c in SEGMENT_CASES])
    lengths = np.array([c[2] for c in SEGMENT_CASES])
    rows = g.segment_integrals(values, slopes, lengths)
    assert rows.shape == (len(SEGMENT_CASES),)
    for j, (v0, sl, length) in enumerate(SEGMENT_CASES):
        scalar = segment_integral(g, np.array(v0), np.array(sl), length)
        assert rows[j] == scalar
        want = (0.0 if length == 0.0
                else segment_quadrature(g, v0, sl, length))
        assert rows[j] == pytest.approx(want, abs=1e-8)
    assert rows[-1] == 0.0


def test_path_integral_over_segments():
    path = CyclePath(breaks=np.array([0.0, 1.0, 3.0]),
                     values=np.array([[0.0], [5.0]]),
                     slopes=np.array([[1.0], [-2.0]]))
    g = identity()
    # int_0^1 u du + int_0^2 (5 - 2u) du = 0.5 + (10 - 4) = 6.5
    assert path_integral(path, g) == pytest.approx(6.5, abs=1e-12)
    assert path_integral(path, g, lo=0.5, hi=1.0) == pytest.approx(
        0.375, abs=1e-12)


@pytest.mark.parametrize("g, label0, label1", [
    (identity(), "1*x0", "1*x1"),
    (indicator_le(0.5), "1{1*x0 <= 0.5}", "1{1*x1 <= 0.5}"),
    (exp_neg(), "exp(-(1*x0))", "exp(-(1*x1))"),
])
def test_state_function_labels(g, label0, label1):
    assert g.label() == label0
    assert dataclasses.replace(g, component=1).label() == label1


@pytest.mark.parametrize("g, echo", [
    ({"kind": "identity"}, {"kind": "identity", "component": 0}),
    ({"kind": "indicator", "threshold": 0.5},
     {"kind": "indicator", "threshold": 0.5, "component": 0}),
    ({"kind": "exponential", "component": 1},
     {"kind": "exponential", "component": 1}),
])
def test_state_function_is_the_run_g_section(g, echo):
    obj = {"model": {"kind": "age_residual",
                     "cycle_length": {"kind": "exponential", "rate": 1.0}},
           "run": {"seed": 1, "g": g}}
    cfg = parse_scenario(obj)
    assert isinstance(cfg.run.g, StateFunction)
    out = scenario_to_json(cfg)
    assert out["run"]["g"] == echo
    assert parse_scenario(out) == cfg


def test_state_function_rejects_a_component_past_the_state():
    for make in (identity, exp_neg, lambda c: indicator_le(0.5, c)):
        with pytest.raises(ValueError, match="component must be >= 0"):
            make(-1)
    g = identity(2)
    with pytest.raises(IndexError):
        g(np.array([1.0, 2.0]))
    with pytest.raises(IndexError):
        g.segment_integrals(np.zeros((3, 2)), np.ones((3, 2)), np.ones(3))
    # never a constant 0 read from a missing component
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    with pytest.raises(IndexError):
        renewal_reward_estimate(model, 0, identity(7), 100, substream(7, 1))
    with pytest.raises(IndexError):
        time_average_estimate(model, 0, exp_neg(7), 500.0, substream(7, 2))


# ---------------------------------------------------------------------------
# the reference realization


def test_evaluate_clearing_pure_drift():
    model = pure_drift_clearing(MarginalSpec.deterministic(1.0))
    real = Realization(model, substream(1, 0))
    assert real.state_at(0, 2.5) == pytest.approx(0.5, abs=1e-12)


def test_evaluate_at_epoch_is_fresh_cycle():
    spec = LevyQueueSpec(
        coordinates=(LevyQueueCoordinate(
            restart_level=MarginalSpec.deterministic(1.0)),),
        dependence=DependenceSpec.independent())
    model = build_levy_queue(spec)
    real = Realization(model, substream(2, 0))
    # pure drift from level 1: cycles are exactly unit length
    assert real.state_at(0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert real.state_at(0, 0.75) == pytest.approx(0.25, abs=1e-12)


def test_evaluate_at_is_deterministic_on_a_realization():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    real = Realization(model, substream(3, 0))
    a = real.state_at(0, 17.3)
    b = real.state_at(0, 17.3)
    assert np.array_equal(a, b)


def test_evaluate_at_epoch_matches_next_cycle_origin():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    real = Realization(model, substream(4, 0))
    real.ensure_covers(0, 50.0)
    for n in (1, 2, 7):
        t = real.epoch(0, n)
        want = real.cycle(0, n).at(0.0)
        assert np.array_equal(real.state_at(0, t), want)


def test_realization_budget_enforced():
    model = pure_drift_clearing(MarginalSpec.deterministic(1.0))
    real = Realization(model, substream(5, 0), max_cycles=10)
    with pytest.raises(BudgetExceededError):
        real.state_at(0, 50.0)


# ---------------------------------------------------------------------------
# renewal-reward estimates


def test_renewal_reward_identity_on_clearing():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    est = renewal_reward_estimate(model, 0, identity(), 100_000,
                                  substream(6, 0))
    # stationary mean age = E T^2 / (2 E T) = 1
    assert abs(est.value - 1.0) <= 3.0 * est.se
    assert est.se < 0.02


def test_renewal_reward_constant_is_exact():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    est = renewal_reward_estimate(model, 0, ONE, 500,
                                  substream(7, 0))
    assert est.value == 1.0
    assert est.se == 0.0


def test_renewal_reward_age_indicator():
    model = build_age_residual(AgeResidualSpec(MarginalSpec.exponential(1.0),
                                               copies=1))
    q = math.log(2.0)
    est = renewal_reward_estimate(model, 0, indicator_le(q), 100_000,
                                  substream(8, 0))
    # equilibrium CDF of exponential(1) at ln 2
    assert abs(est.value - 0.5) <= 3.0 * est.se


def test_renewal_reward_needs_enough_cycles():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    with pytest.raises(ValueError):
        renewal_reward_estimate(model, 0, identity(), 99, substream(9, 0))


def test_ratio_estimate_exact_for_proportional_rewards():
    lengths = np.array([1.0, 2.0, 0.5, 3.0, 1.5] * 30)
    est = ratio_estimate(0.75 * lengths, lengths)
    assert est.value == pytest.approx(0.75, abs=1e-15)
    # the delta-method variance cancels to rounding noise
    assert est.se < 1e-6
    # the streamed route on the same cycles: a state held at 0.75
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))

    def flat(i, gen, count):
        assert count == len(lengths)
        return CycleBatch(np.zeros(count), np.full((count, 1), 0.75),
                          np.zeros((count, 1)), np.arange(count), lengths)

    [est] = cycle_functionals(dataclasses.replace(model, cycle_batch=flat),
                              0, [identity()], len(lengths), substream(9, 1))
    assert est.value == pytest.approx(0.75, abs=1e-15)
    assert est.se < 1e-6


def levy_stationary_model():
    cfg = load_scenario(CONFIG_DIR / "levy_stationary.json")
    return build_model(cfg.model), cfg.run.g


def test_cycle_route_agrees_with_two_pass_reference():
    # 10 001 cycles leave a last block of one cycle
    model, g = levy_stationary_model()
    gs = [g, identity(), indicator_le(1.0)]
    streamed = cycle_functionals(model, 0, gs, 10_001, substream(18, 0))
    rewards, lengths = cycle_arrays(model, 0, gs, 10_001, substream(18, 0))
    assert len(lengths) == 10_001
    for j, est in enumerate(streamed):
        want = ratio_estimate(rewards[:, j], lengths)
        assert est.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        assert est.se == pytest.approx(want.se, rel=1e-12, abs=0.0)
    assert renewal_reward_estimate(model, 0, g, 10_001,
                                   substream(18, 0)) == streamed[0]


def test_cycle_route_memory_does_not_grow_with_cycles():
    model, g = levy_stationary_model()
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            renewal_reward_estimate(model, 0, g, n, substream(19, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


# ---------------------------------------------------------------------------
# time averages


@pytest.mark.parametrize("horizon", [500.0, 777.3, 10_000.0])
def test_time_average_of_one_is_exact(horizon):
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    est = time_average_estimate(model, 0, ONE, horizon,
                                substream(10, 0))
    assert est.value == 1.0


def test_time_average_sawtooth_is_exact():
    model = pure_drift_clearing(MarginalSpec.deterministic(1.0))
    est = time_average_estimate(model, 0, identity(), 128.0, substream(11, 0))
    assert est.value == 0.5


def test_time_average_identity_long_run():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    est = time_average_estimate(model, 0, identity(), 100_000.0,
                                substream(12, 0))
    assert abs(est.value - 1.0) < 0.02


def test_time_average_budget_enforced(monkeypatch):
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        time_average_estimate(model, 0, identity(), 1000.0, substream(13, 1))


def test_batched_routes_match_per_cycle_integrals():
    # the batched routes agree with the per-cycle path_integral route on
    # the same draws: the model's batches are the generator's paths stacked
    model = build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=MarginalSpec.exponential(1.0), drift=0.5,
            jump_rate=1.0, jump_size=MarginalSpec.exponential(2.0)),),
        dependence=DependenceSpec.independent()))

    def stacked(i, gen, count):
        return from_paths([model.cycle_generator(gen)[i]
                           for _ in range(count)])

    gs = [identity(), indicator_le(0.7), exp_neg()]
    rewards, lengths = cycle_arrays(
        dataclasses.replace(model, cycle_batch=stacked), 0, gs, 5000,
        substream(16, 0))
    gen = substream(16, 0)
    paths = [model.cycle_generator(gen)[0] for _ in range(5000)]
    assert np.array_equal(lengths, [p.length for p in paths])
    for j, g in enumerate(gs):
        want = [path_integral(p, g) for p in paths]
        assert np.allclose(rewards[:, j], want, rtol=1e-12, atol=1e-12)


def test_time_average_rejects_short_horizon():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    with pytest.raises(ValueError):
        time_average_estimate(model, 0, identity(), 99.0, substream(13, 0))


# ---------------------------------------------------------------------------
# stationary draws


def test_stationary_draw_at_epoch_of_deterministic_cycles():
    model = pure_drift_clearing(MarginalSpec.deterministic(1.0))
    state = Realization(model, substream(14, 0)).state_at(0, 200.0)
    assert state[0] == pytest.approx(0.0, abs=1e-9)


def test_comonotone_equal_marginals_give_identical_draws():
    model = build_age_residual(AgeResidualSpec(MarginalSpec.exponential(1.0),
                                               copies=2))
    states = sample_states(model, [500.0, 500.0], 2000, seed=15)
    assert np.array_equal(states[0], states[1])


def test_sample_states_rejects_bad_times():
    model = pure_drift_clearing(MarginalSpec.exponential(1.0))
    with pytest.raises(ValueError):
        sample_states(model, [100.0, 100.0], 10, seed=1)
    with pytest.raises(ValueError):
        sample_states(model, [-1.0], 10, seed=1)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("make_model", [
    lambda: pure_drift_clearing(MarginalSpec.exponential(1.0)),
    lambda: pure_drift_clearing(MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5})),
    lambda: build_jackson(JacksonSpec(arrival_rates=(0.5,),
                                      service_rates=(1.0,),
                                      routing=((0.0,),))),
], ids=["bridge", "round", "jackson"])
def test_sample_states_rejects_no_replications(make_model, n):
    with pytest.raises(ValueError, match="at least 1 replication"):
        sample_states(make_model(), [10.0], n, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make_model", [
    lambda: pure_drift_clearing(MarginalSpec.exponential(1.0)),
    lambda: build_jackson(JacksonSpec(arrival_rates=(0.5,),
                                      service_rates=(1.0,),
                                      routing=((0.0,),))),
], ids=["renewal", "jackson"])
def test_sample_states_rejects_non_finite_times(make_model, bad,
                                                monkeypatch):
    model = make_model()
    opened = []
    stream = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda *key: opened.append(key) or stream(*key))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sample_states(model, [bad], 10, seed=1)
    # rejected before any sampler opens a stream
    assert opened == []


# ---------------------------------------------------------------------------
# chunked execution


def test_run_chunked_is_thread_count_invariant():
    def work(count, k):
        return np.arange(count) * (k + 1)

    one = list(run_chunked(1000, 128, work, threads=1))
    four = list(run_chunked(1000, 128, work, threads=4))
    assert len(one) == len(four) == 8
    for a, b in zip(one, four):
        assert np.array_equal(a, b)
