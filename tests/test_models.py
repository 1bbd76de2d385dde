"""The model families: cycle structure, closed forms, and agreement of the
native cycle batches and vectorised state samplers with the per-cycle
generator."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import (Realization, full_cumsum_states, jackson_batch,
                     jackson_chunk_states, levy_busy_period_window,
                     realization_states, row_major_cycle_vectors, tail)
from regenverify import (ArithmeticCyclesWarning, BudgetExceededError,
                         ClearingCoordinate, ClearingSpec, ConfigurationError,
                         DependenceSpec, MarginalSpec, build_clearing)
from regenverify.engine import (exp_neg, identity, path_integral,
                                renewal_reward_estimate, sample_states,
                                time_average_estimate)
from regenverify.models import (AgeResidualSpec, JacksonSpec,
                                LevyQueueCoordinate, LevyQueueSpec,
                                StatusSource, StatusSpec, build_age_residual,
                                build_jackson, build_levy_queue, build_status,
                                jackson_cycle_mean, jackson_utilizations,
                                pi_closed_form, traffic_solve)
from regenverify.randomness import effective_cycle_mean, substream
from regenverify import engine, models

EXP1 = MarginalSpec.exponential(1.0)
GAMMA_2_1 = MarginalSpec.gamma(2.0, 1.0)


def quadrature_pi_factor(rate: float, y_over_c: float) -> float:
    """Independent route to E[tail_e(Y/c)] for an exponential inter-update
    law and a deterministic mark: numerator integral of the raw tail."""
    spec = MarginalSpec.exponential(rate)
    num, _ = integrate.quad(tail(spec), 0.0, y_over_c, limit=200,
                            epsabs=1e-12)
    return 1.0 - num / spec.mean()


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    return float(stats.ks_2samp(a, b).statistic)


# ---------------------------------------------------------------------------
# Levy queues


def test_levy_pure_drift_unit_cycles():
    spec = LevyQueueSpec(
        coordinates=(LevyQueueCoordinate(
            restart_level=MarginalSpec.deterministic(1.0)),),
        dependence=DependenceSpec.independent())
    model = build_levy_queue(spec)
    gen = substream(100, 0)
    for _ in range(20):
        path = model.cycle_generator(gen)[0]
        assert path.length == 1.0
        assert path.at(0.0)[0] == 1.0
        assert path.at(0.25)[0] == pytest.approx(0.75, abs=1e-12)


def test_levy_cycle_mean_first_passage_identity():
    spec = LevyQueueSpec(
        coordinates=(LevyQueueCoordinate(
            restart_level=EXP1, jump_rate=0.5, jump_size=EXP1),),
        dependence=DependenceSpec.independent())
    model = build_levy_queue(spec)
    assert model.cycle_means[0] == pytest.approx(2.0, abs=1e-12)
    gen = substream(101, 0)
    lengths = np.array([model.cycle_generator(gen)[0].length
                        for _ in range(20_000)])
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    assert abs(lengths.mean() - 2.0) <= 3.0 * se


def test_levy_workload_path_shape():
    spec = LevyQueueSpec(
        coordinates=(LevyQueueCoordinate(
            restart_level=EXP1, jump_rate=0.6, jump_size=EXP1),),
        dependence=DependenceSpec.independent())
    model = build_levy_queue(spec)
    gen = substream(102, 0)
    for _ in range(200):
        path = model.cycle_generator(gen)[0]
        starts = path.values[:, 0]
        ends = starts + path.slopes[:, 0] * np.diff(path.breaks)
        # unit down drift everywhere, jumps only upward, zero exactly at the
        # cycle end and nowhere inside
        assert np.all(path.slopes[:, 0] == -1.0)
        assert np.all(starts[1:] >= ends[:-1] - 1e-12)
        assert np.all(ends[:-1] > 1e-12)
        assert ends[-1] == pytest.approx(0.0, abs=1e-9)


def test_levy_comonotone_restarts_couple_cycle_lengths():
    coord = LevyQueueCoordinate(restart_level=EXP1)
    spec = LevyQueueSpec(coordinates=(coord, coord),
                         dependence=DependenceSpec.comonotone())
    model = build_levy_queue(spec)
    gen = substream(103, 0)
    for _ in range(50):
        paths = model.cycle_generator(gen)
        assert paths[0].length == paths[1].length


def levy_model(*coords, dependence=None):
    return build_levy_queue(LevyQueueSpec(
        coordinates=coords,
        dependence=dependence or DependenceSpec.independent()))


M_G_1_VACATION = LevyQueueCoordinate(restart_level=EXP1, jump_rate=0.5,
                                     jump_size=EXP1)


TANDEM = JacksonSpec(arrival_rates=(0.5, 0.0), service_rates=(1.0, 1.0),
                     routing=((0.0, 1.0), (0.0, 0.0)))

BATCH_MODELS = {
    "levy_queue": lambda: levy_model(M_G_1_VACATION),
    "clearing_jumps": lambda: build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=EXP1, drift=0.5, jump_rate=1.0,
            jump_size=MarginalSpec.exponential(2.0)),),
        dependence=DependenceSpec.independent())),
    "status": lambda: build_status(StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.gamma(2.0, 2.0),
                              update_size=EXP1, capacity=2.0),),
        dependence=DependenceSpec.independent())),
    "age_residual": lambda: build_age_residual(
        AgeResidualSpec(MarginalSpec.gamma(2.0, 1.0), copies=2)),
    "jackson_tandem": lambda: build_jackson(TANDEM),
}


@pytest.mark.parametrize("family", sorted(BATCH_MODELS))
def test_cycle_batch_matches_cycle_generator(family):
    model = BATCH_MODELS[family]()
    n = 10_000
    gen = substream(105, 0)
    cycles = [model.cycle_generator(gen) for _ in range(n)]
    for i in range(model.dimension):
        batch = model.cycle_batch(i, substream(104, i), n)
        counts = np.diff(batch.offsets, append=len(batch.starts))
        seg = batch.segment_lengths()
        assert batch.count == n and np.all(counts >= 1)
        assert batch.values.shape == (len(batch.starts),
                                      model.state_dims[i])
        assert np.all(batch.starts[batch.offsets] == 0.0)
        assert np.all(seg >= 0.0) and np.all(batch.lengths > 0.0)
        [rewards] = batch.integrals([exp_neg()])

        paths = [c[i] for c in cycles]
        oracle_lengths = np.array([p.length for p in paths])
        oracle_rewards = np.array([path_integral(p, exp_neg())
                                   for p in paths])
        oracle_counts = np.array([len(p.values) for p in paths])
        # two-sample KS 1% critical value at n=10000 per side is ~0.023
        assert two_sample_ks(batch.lengths, oracle_lengths) < 0.023
        assert two_sample_ks(rewards, oracle_rewards) < 0.023
        # the exact KS distribution does not handle ties; counts are discrete
        ties = stats.ks_2samp(counts, oracle_counts, method="asymp")
        assert ties.statistic < 0.023


def test_levy_cycle_batch_structure():
    model = levy_model(M_G_1_VACATION)
    batch = model.cycle_batch(0, substream(104, 0), 10_000)
    counts = np.diff(batch.offsets, append=len(batch.starts))
    seg = batch.segment_lengths()
    assert np.all(batch.slopes == -1.0)
    assert np.all(seg > 0.0)
    # every busy period ends exactly when its level reaches zero
    ends = batch.values[:, 0] - seg
    last = batch.offsets + counts - 1
    assert np.allclose(ends[last], 0.0, atol=1e-9)


def test_cycle_batches_keep_the_cycle_coupling():
    # the tandem's stations share one cycle: every station's batch from one
    # substream has the same lengths and segment starts
    model = build_jackson(TANDEM)
    first, second = (model.cycle_batch(i, substream(109, 0), 500)
                     for i in range(2))
    assert np.array_equal(first.lengths, second.lengths)
    assert np.array_equal(first.starts, second.starts)


# the two comonotone coordinates of bench/scenarios/levy_sweep.json
LEVY_SWEEP = (M_G_1_VACATION,
              LevyQueueCoordinate(restart_level=MarginalSpec.exponential(0.5),
                                  jump_rate=0.25, jump_size=EXP1))


def test_cycle_batch_builds_only_the_coordinate_it_returns(monkeypatch):
    model = levy_model(*LEVY_SWEEP, dependence=DependenceSpec.comonotone())
    built = []
    levy_batch = models._levy_batch

    def spy(coord, levels, gen):
        built.append(coord)
        return levy_batch(coord, levels, gen)

    monkeypatch.setattr(models, "_levy_batch", spy)
    batch = model.cycle_batch(1, substream(107, 0), 1000)
    assert built == [LEVY_SWEEP[1]]
    assert batch.count == 1000


def test_levy_second_coordinate_matches_fuhrmann_cooper():
    # Fuhrmann-Cooper: W = the Pollaczek-Khinchine workload plus the
    # equilibrium restart level, independent. Restarts exp(1/2) give
    # E exp(-U_e) = 1/3; load 1/4 with exp(1) jumps gives 3/4 / (1 - 1/8)
    # = 6/7, so E exp(-W) = 2/7 on coordinate 1 whatever the coupling
    model = levy_model(*LEVY_SWEEP, dependence=DependenceSpec.comonotone())
    want = 2.0 / 7.0
    for est in (renewal_reward_estimate(model, 1, exp_neg(), 100_000,
                                        substream(108, 0)),
                time_average_estimate(model, 1, exp_neg(), 200_000.0,
                                      substream(108, 1))):
        assert abs(est.value - want) <= 4.0 * est.se


def test_levy_batch_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 2)
    model = levy_model(LevyQueueCoordinate(restart_level=EXP1, jump_rate=0.9,
                                           jump_size=EXP1))
    with pytest.raises(BudgetExceededError):
        model.cycle_batch(0, substream(106, 0), 1000)


def test_jackson_batch_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        build_jackson(TANDEM).cycle_batch(0, substream(106, 0), 1000)


def test_levy_instability_rejected():
    with pytest.raises(ConfigurationError):
        LevyQueueSpec(
            coordinates=(LevyQueueCoordinate(
                restart_level=EXP1, jump_rate=1.2, jump_size=EXP1),),
            dependence=DependenceSpec.independent()).validate()


# ---------------------------------------------------------------------------
# clearing processes


def test_clearing_sawtooth():
    model = build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=MarginalSpec.deterministic(1.0)),),
        dependence=DependenceSpec.independent()))
    real = Realization(model, substream(104, 0))
    for t in (0.25, 1.5, 2.75, 7.0):
        assert real.state_at(0, t)[0] == pytest.approx(t % 1.0, abs=1e-9)


def test_clearing_jump_only_stationary_mean():
    # d=0, unit-rate unit-size jumps: E X(inf) = lambda E B E age = E age = 1
    model = build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=EXP1, drift=0.0, jump_rate=1.0,
            jump_size=MarginalSpec.deterministic(1.0)),),
        dependence=DependenceSpec.independent()))
    est = renewal_reward_estimate(model, 0, identity(), 100_000,
                                  substream(105, 0))
    assert abs(est.value - 1.0) <= 3.0 * est.se


def test_clearing_paths_nondecreasing_and_reset():
    model = build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=EXP1, drift=0.5, jump_rate=1.0, jump_size=EXP1),),
        dependence=DependenceSpec.independent()))
    gen = substream(106, 0)
    for _ in range(100):
        path = model.cycle_generator(gen)[0]
        assert path.at(0.0)[0] == 0.0
        starts = path.values[:, 0]
        ends = starts + path.slopes[:, 0] * np.diff(path.breaks)
        assert np.all(np.diff(starts) >= -1e-12)
        assert np.all(starts[1:] >= ends[:-1] - 1e-12)


def test_clearing_degenerate_rejected():
    with pytest.raises(ConfigurationError):
        ClearingSpec(
            coordinates=(ClearingCoordinate(
                cycle_length=EXP1, drift=0.0, jump_rate=0.0),),
            dependence=DependenceSpec.independent()).validate()


# ---------------------------------------------------------------------------
# status updating


def test_status_stationary_updated_probability():
    model = build_status(StatusSpec(
        sources=(StatusSource(inter_update=EXP1,
                              update_size=MarginalSpec.deterministic(0.5)),),
        dependence=DependenceSpec.independent()))
    states = sample_states(model, [500.0], 20_000, seed=107)
    p_hat = float(np.mean(states[0][:, 0] > states[0][:, 1]))
    want = math.exp(-0.5)
    se = math.sqrt(want * (1.0 - want) / 20_000)
    assert abs(p_hat - want) <= 3.0 * se


def test_status_huge_capacity_updates_instantly():
    spec = StatusSpec(
        sources=(StatusSource(inter_update=EXP1,
                              update_size=MarginalSpec.deterministic(1.0),
                              capacity=1e9),),
        dependence=DependenceSpec.independent())
    assert pi_closed_form(spec) > 1.0 - 1e-8
    model = build_status(spec)
    states = sample_states(model, [200.0], 2000, seed=108)
    assert np.mean(states[0][:, 0] > states[0][:, 1]) > 0.999


def test_status_infeasible_transfer_never_updates():
    spec = StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.deterministic(1.0),
                              update_size=MarginalSpec.deterministic(2.0)),),
        dependence=DependenceSpec.independent())
    assert pi_closed_form(spec) == 0.0
    model = build_status(spec)
    states = sample_states(model, [200.0], 500, seed=109)
    assert np.all(states[0][:, 0] <= states[0][:, 1])


def test_status_updated_set_monotone_in_capacity():
    def updated(capacity):
        model = build_status(StatusSpec(
            sources=(StatusSource(inter_update=EXP1, update_size=EXP1,
                                  capacity=capacity),),
            dependence=DependenceSpec.independent()))
        states = sample_states(model, [300.0], 5000, seed=110)
        return states[0][:, 0] > states[0][:, 1]

    slow, fast = updated(1.0), updated(2.0)
    assert np.all(fast >= slow)
    assert fast.sum() > slow.sum()


def test_pi_closed_form_two_exponential_sources():
    spec = StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.exponential(1.0),
                              update_size=MarginalSpec.deterministic(0.5)),
                 StatusSource(inter_update=MarginalSpec.exponential(0.7),
                              update_size=MarginalSpec.deterministic(1.0))),
        dependence=DependenceSpec.independent())
    got = pi_closed_form(spec)
    oracle = quadrature_pi_factor(1.0, 0.5) * quadrature_pi_factor(0.7, 1.0)
    assert got == pytest.approx(oracle, abs=1e-8)
    assert got == pytest.approx(math.exp(-1.2), abs=1e-9)
    assert got == pytest.approx(0.301194, abs=1e-6)


def test_pi_closed_form_deterministic_cycle():
    spec = StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.deterministic(1.0),
                              update_size=MarginalSpec.deterministic(0.25)),),
        dependence=DependenceSpec.independent())
    assert pi_closed_form(spec) == pytest.approx(0.75, abs=1e-12)
    # a uniform shock makes T ~ U[1.1, 1.3]; marks below its support see
    # F_e(y) = y / E T, so pi = 1 - E Y / E T = 1 - 0.4 / 1.2
    shocked = StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.deterministic(1.0),
                              update_size=MarginalSpec.shifted_uniform(
                                  0.2, 0.6)),),
        dependence=DependenceSpec.common_shock(
            MarginalSpec.shifted_uniform(0.1, 0.3)))
    assert pi_closed_form(shocked) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_pi_closed_form_random_marks():
    # exponential marks over an exponential cycle: E e^{-Y} by quadrature
    spec = StatusSpec(
        sources=(StatusSource(inter_update=EXP1, update_size=EXP1),),
        dependence=DependenceSpec.independent())
    oracle, _ = integrate.quad(lambda y: math.exp(-y) * math.exp(-y),
                               0.0, np.inf)
    assert pi_closed_form(spec) == pytest.approx(oracle, abs=1e-8)


def test_pi_closed_form_common_shock_matches_simulation():
    # two exponential sources with deterministic marks, and one source with
    # a uniform residual and exponential marks, whose limit nests the
    # residual's F_e in the shock's and the marks' expectations; the nested
    # value is also held to the one a triple quadrature gave for it
    shock = DependenceSpec.common_shock(MarginalSpec.exponential(2.0))
    plain = StatusSource(inter_update=EXP1,
                         update_size=MarginalSpec.deterministic(0.5))
    nested = StatusSource(inter_update=MarginalSpec.shifted_uniform(0.5, 1.5),
                          update_size=MarginalSpec.exponential(2.0))
    n = 40_000
    for sources, reference in [((plain, plain), None),
                               ((nested,), 0.6931743638096326)]:
        spec = StatusSpec(sources=sources, dependence=shock)
        pi = pi_closed_form(spec)
        if reference is not None:
            assert pi == pytest.approx(reference, abs=1e-9)
        model = build_status(spec)
        m = model.dimension
        states = sample_states(model, [500.0] * m, n, seed=111)
        joint = np.ones(n, dtype=bool)
        for i in range(m):
            joint &= states[i][:, 0] > states[i][:, 1]
        se = math.sqrt(pi * (1.0 - pi) / n)
        assert abs(joint.mean() - pi) <= 3.0 * se


# ---------------------------------------------------------------------------
# Jackson networks


def test_traffic_solve_tandem():
    spec = JacksonSpec(arrival_rates=(0.5, 0.0), service_rates=(1.0, 1.0),
                       routing=((0.0, 1.0), (0.0, 0.0)))
    assert traffic_solve(spec) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_traffic_solve_feedback():
    spec = JacksonSpec(arrival_rates=(0.25,), service_rates=(1.0,),
                       routing=((0.5,),))
    assert traffic_solve(spec) == pytest.approx([0.5], abs=1e-12)


def test_traffic_solve_zero_routing():
    spec = JacksonSpec(arrival_rates=(0.3, 0.6), service_rates=(1.0, 1.0),
                       routing=((0.0, 0.0), (0.0, 0.0)))
    assert traffic_solve(spec) == pytest.approx([0.3, 0.6], abs=1e-12)


def test_jackson_zero_arrivals_rejected():
    with pytest.raises(ConfigurationError):
        JacksonSpec(arrival_rates=(0.0,), service_rates=(1.0,),
                    routing=((0.0,),)).validate()


def test_jackson_unstable_rejected():
    with pytest.raises(ConfigurationError):
        JacksonSpec(arrival_rates=(1.5,), service_rates=(1.0,),
                    routing=((0.0,),)).validate()
    with pytest.raises(ConfigurationError):
        JacksonSpec(arrival_rates=(0.5, 0.0), service_rates=(1.0, 0.4),
                    routing=((0.0, 1.0), (0.0, 0.0))).validate()


def test_jackson_mm1_geometric_marginal():
    spec = JacksonSpec(arrival_rates=(0.5,), service_rates=(1.0,),
                       routing=((0.0,),))
    assert jackson_utilizations(spec) == pytest.approx([0.5], abs=1e-12)
    assert jackson_cycle_mean(spec) == pytest.approx(4.0, abs=1e-12)
    model = build_jackson(spec)
    states = sample_states(model, [1000.0], 100_000, seed=112)
    counts = states[0][:, 0].astype(int)
    kmax = 40
    pmf = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1) / len(counts)
    geo = 0.5 ** np.arange(kmax + 1) * 0.5
    geo[kmax] = 0.5 ** kmax  # lump the tail into the last cell
    tv = 0.5 * np.abs(pmf - geo).sum()
    assert tv < 0.02


def test_jackson_cycle_starts_and_ends_empty():
    model = build_jackson(TANDEM)
    assert model.cycle_means == pytest.approx((8.0, 8.0), abs=1e-12)
    gen = substream(113, 0)
    for _ in range(50):
        paths = model.cycle_generator(gen)
        joint0 = np.array([p.at(0.0)[0] for p in paths])
        assert np.all(joint0 == 0.0)
        for p in paths:
            assert np.all(p.slopes == 0.0)
            assert np.all(p.values == np.round(p.values))
            assert np.all(p.values >= 0.0)


def test_jackson_cycles_are_stationary_in_index():
    spec = JacksonSpec(arrival_rates=(0.5,), service_rates=(1.0,),
                       routing=((0.0,),))
    model = build_jackson(spec)
    gen = substream(114, 0)
    lengths = np.array([model.cycle_generator(gen)[0].length
                        for _ in range(10_000)])
    stat = two_sample_ks(lengths[:5000], lengths[5000:])
    assert stat < 0.02


# ---------------------------------------------------------------------------
# vectorised samplers agree with the generic engine


@pytest.mark.parametrize("make_model, comp", [
    (lambda: build_age_residual(AgeResidualSpec(MarginalSpec.gamma(2.0, 1.0),
                                                copies=1)), 0),
    (lambda: build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=EXP1, drift=1.0, jump_rate=0.7, jump_size=EXP1),),
        dependence=DependenceSpec.independent())), 0),
    (lambda: build_status(StatusSpec(
        sources=(StatusSource(inter_update=MarginalSpec.gamma(2.0, 2.0),
                              update_size=EXP1),),
        dependence=DependenceSpec.independent())), 0),
    (lambda: levy_model(M_G_1_VACATION,
                        LevyQueueCoordinate(
                            restart_level=MarginalSpec.exponential(0.5),
                            jump_rate=0.25, jump_size=EXP1),
                        dependence=DependenceSpec.comonotone()), 0),
])
def test_fast_sampler_matches_generic_engine(make_model, comp):
    model = make_model()
    assert model.window is not None
    times = [60.0] * model.dimension
    n = 4000
    fast = sample_states(model, times, n, seed=115)
    slow = realization_states(model, times, n, seed=116)
    stat = two_sample_ks(fast[0][:, comp], slow[0][:, comp])
    # two-sample KS 1% critical value at n=4000 per side is ~0.036
    assert stat < 0.036


def test_status_fast_sampler_matches_generic_on_marks():
    model = build_status(StatusSpec(
        sources=(StatusSource(inter_update=EXP1, update_size=EXP1),),
        dependence=DependenceSpec.independent()))
    times = [60.0]
    fast = sample_states(model, times, 4000, seed=117)
    slow = realization_states(model, times, 4000, seed=118)
    assert two_sample_ks(fast[0][:, 1], slow[0][:, 1]) < 0.036


def jackson_pmf(column: np.ndarray, kmax: int = 12) -> np.ndarray:
    counts = np.minimum(column.astype(int), kmax)
    return np.bincount(counts, minlength=kmax + 1) / len(column)


def test_jackson_sampler_matches_generic_engine():
    spec = JacksonSpec(arrival_rates=(0.5,), service_rates=(1.0,),
                       routing=((0.0,),))
    model = build_jackson(spec)
    assert model.window is not None
    n = 3000
    fast = sample_states(model, [30.0], n, seed=119)
    slow = realization_states(model, [30.0], n, seed=120)
    pmf_fast = jackson_pmf(fast[0][:, 0])
    pmf_slow = jackson_pmf(slow[0][:, 0])
    assert 0.5 * np.abs(pmf_fast - pmf_slow).sum() < 0.05

    # move events couple the stations: the tandem and a feedback network,
    # each station read at its own time
    feedback = JacksonSpec(arrival_rates=(0.3, 0.2), service_rates=(1.0, 1.0),
                           routing=((0.0, 0.5), (0.3, 0.0)))
    for spec, seeds in ((TANDEM, (123, 124)), (feedback, (125, 126))):
        model = build_jackson(spec)
        fast = sample_states(model, [20.0, 30.0], n, seed=seeds[0])
        slow = realization_states(model, [20.0, 30.0], n, seed=seeds[1])
        for a, b in zip(fast, slow):
            tv = 0.5 * np.abs(jackson_pmf(a[:, 0]) - jackson_pmf(b[:, 0]))
            assert tv.sum() < 0.05
        low_fast = np.mean((fast[0][:, 0] <= 1) & (fast[1][:, 0] <= 1))
        low_slow = np.mean((slow[0][:, 0] <= 1) & (slow[1][:, 0] <= 1))
        se = math.sqrt((low_fast * (1.0 - low_fast)
                        + low_slow * (1.0 - low_slow)) / n)
        assert abs(low_fast - low_slow) <= 4.0 * se


def test_jackson_sampler_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 1000)
    model = build_jackson(TANDEM)
    # the tandem steps at total rate 2.5: 2500 expected steps by t=1000
    with pytest.raises(BudgetExceededError, match="1000 or more events"):
        sample_states(model, [1000.0, 10.0], 100, seed=127)
    states = sample_states(model, [300.0, 10.0], 100, seed=127)
    assert states[0].shape == (100, 1)


def test_jackson_sampler_work_budget_bounds_one_chunk(monkeypatch):
    # the tandem steps at total rate 2.5: 100 rows to t=400 take 100 000
    # expected row-events, which the budget still admits
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 100_000)
    model = build_jackson(TANDEM)
    states = sample_states(model, [400.0, 10.0], 100, seed=127)
    assert states[0].shape == (100, 1)
    for threads in ("1", "2"):
        monkeypatch.setenv("REGEN_VERIFY_THREADS", threads)
        with pytest.raises(BudgetExceededError, match="100000 row-events"):
            sample_states(model, [400.4, 10.0], 100, seed=127)
    # the bound is per chunk: rows past the first chunk add no work to it
    rows = models.JACKSON_CHUNK
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", rows * 10)
    states = sample_states(model, [4.0, 1.0], 2 * rows + 1, seed=127)
    assert states[0].shape == (2 * rows + 1, 1)
    with pytest.raises(BudgetExceededError, match=f"chunk of {rows} "):
        sample_states(model, [4.1, 1.0], 2 * rows + 1, seed=127)


def step_oracle_states(spec: JacksonSpec, taus, n: int, seed: int):
    """States of the network's model with the one-step reference
    ``jackson_chunk_states`` as its window, on the model's chunks."""
    model = dataclasses.replace(build_jackson(spec),
                                window=jackson_chunk_states(spec))
    return sample_states(model, taus, n, seed)


# external arrivals at stations 0 and 2, a three-way split out of station
# 0, feedback into station 0 and a self-loop at station 1
FEEDBACK_3 = JacksonSpec(arrival_rates=(0.3, 0.0, 0.2),
                         service_rates=(1.0, 1.2, 1.0),
                         routing=((0.0, 0.6, 0.3), (0.2, 0.1, 0.4),
                                  (0.1, 0.0, 0.0)))


@pytest.mark.parametrize("taus", [(20.0, 30.0, 25.0), (60.0, 5.0, 60.0)],
                         ids=["tau_20_30", "tau_60_5"])
@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3],
                         ids=["tandem", "feedback_3"])
def test_jackson_sampler_matches_step_oracle_bit_for_bit(spec, taus):
    m = len(spec.arrival_rates)
    taus = np.asarray(taus[:m])
    n = 3000
    fast = sample_states(build_jackson(spec), taus, n, 131)
    slow = step_oracle_states(spec, taus, n, 131)
    for a, b in zip(fast, slow):
        assert a.shape == b.shape == (n, 1)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3],
                         ids=["tandem", "feedback_3"])
def test_jackson_batch_matches_step_oracle_bit_for_bit(spec):
    model = build_jackson(spec)
    slow = jackson_batch(spec, substream(132, 0), 2000)
    for i, b in enumerate(slow):
        a = model.cycle_batch(i, substream(132, 0), 2000)
        for name in ("starts", "values", "slopes", "offsets", "lengths"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("chunk", [None, 1],
                         ids=["one_chunk", "one_row_chunks"])
@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3],
                         ids=["tandem", "feedback_3"])
def test_jackson_sampler_states_do_not_depend_on_block_edges(spec, chunk,
                                                              monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(models, "JACKSON_CHUNK", chunk)
    n = 600 if chunk is None else 40
    taus = np.array([20.0, 30.0, 25.0][:len(spec.arrival_rates)])
    whole = sample_states(build_jackson(spec), taus, n, 133)
    # blocks of 5 steps each, where the default holds 100 or more
    rows = min(n, models.JACKSON_CHUNK)
    monkeypatch.setattr(models, "JACKSON_BLOCK", 5 * rows)
    fives = sample_states(build_jackson(spec), taus, n, 133)
    for a, b in zip(whole, fives):
        assert a.shape == (n, 1)
        assert a.tobytes() == b.tobytes()


# stations near saturation, where a few rows of a few thousand pass 127
# customers, the largest count of the sampler's narrowest type
SATURATED = {
    "single": (JacksonSpec(arrival_rates=(0.97,), service_rates=(1.0,),
                           routing=((0.0,),)), (3000.0,)),
    "tandem": (JacksonSpec(arrival_rates=(0.96, 0.0),
                           service_rates=(1.0, 1.0),
                           routing=((0.0, 1.0), (0.0, 0.0))),
               (3000.0, 2500.0)),
}


@pytest.mark.parametrize("name", sorted(SATURATED))
def test_jackson_sampler_widens_its_counts_bit_for_bit(name, monkeypatch):
    spec, taus = SATURATED[name]
    taus = np.asarray(taus)
    n = 3000
    slow = step_oracle_states(spec, taus, n, 137)
    assert max(b.max() for b in slow) > 127
    fast = sample_states(build_jackson(spec), taus, n, 137)
    # blocks of 5 steps, so the widening falls on another block edge
    monkeypatch.setattr(models, "JACKSON_BLOCK", 5 * n)
    fives = sample_states(build_jackson(spec), taus, n, 137)
    for a, b, c in zip(fast, fives, slow):
        assert a.shape == (n, 1)
        assert a.tobytes() == b.tobytes() == c.tobytes()


def jackson_rates(spec: JacksonSpec) -> np.ndarray:
    """The nonzero event rates in the order of the sampler's table:
    arrivals, then each station's service rate split by its routing row."""
    services = np.asarray(spec.service_rates)
    routing = np.asarray(spec.routing)
    targets = np.column_stack([routing, 1.0 - routing.sum(axis=1)])
    rate = np.concatenate([spec.arrival_rates,
                           (services[:, None] * targets).ravel()])
    return rate[rate > 0.0]


@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3],
                         ids=["tandem", "feedback_3"])
def test_jackson_event_codes_follow_the_rates(spec):
    total, _, classify, _ = models._jackson_events(spec)
    gen = substream(134, 0)
    refine = gen.spawn(1)[0]
    p = jackson_rates(spec) / total
    counts = np.zeros(len(p), dtype=np.int64)
    for _ in range(16):
        code, _ = classify(models._jackson_words(gen, 64, 1024), refine,
                           np.int32)
        counts += np.bincount(code.ravel(), minlength=len(p))
    n = 16 * 64 * 1024
    assert np.all(np.abs(counts - n * p) <= 4.0 * np.sqrt(n * p * (1 - p)))


def test_jackson_cut_on_the_word_grid_draws_no_refinement():
    # rates 1 and 3 put the one cut point at 1/4, exactly 16384 / 2^16
    spec = JacksonSpec(arrival_rates=(1.0,), service_rates=(3.0,),
                       routing=((0.0,),))
    _, _, classify, _ = models._jackson_events(spec)
    gen = substream(135, 0)
    refine = substream(135, 1)
    before = refine.bit_generator.state
    words = models._jackson_words(gen, 16, 1 << 16)
    code, _ = classify(words, refine, np.int32)
    assert refine.bit_generator.state == before
    assert np.array_equal(code, words >= 16384)


def test_jackson_straddling_word_splits_by_the_cut_fraction():
    # rates 1 and 2 put the cut point at 2^16 / 3 = 21845.33..., so the
    # word 21845 fires the second event with probability 2/3
    spec = JacksonSpec(arrival_rates=(1.0,), service_rates=(2.0,),
                       routing=((0.0,),))
    _, _, classify, _ = models._jackson_events(spec)
    refine = substream(136, 0)
    words = np.full((4, 25_000), 21845, dtype=np.uint16)
    code, masks = classify(words, refine, np.int32)
    n, want = words.size, 2.0 / 3.0
    assert abs(code.mean() - want) <= 4.0 * math.sqrt(want * (1 - want) / n)
    assert np.array_equal(masks[:, 1], code)
    # its neighbours sit wholly on either side of the cut
    for word, event in ((21844, 0), (21846, 1)):
        code, _ = classify(np.full((1, 8), word, dtype=np.uint16), refine,
                           np.int32)
        assert np.all(code == event)


def test_jackson_count_types_widen_to_their_own_maxima():
    types = [t for t, _ in models.JACKSON_COUNTS]
    assert types == [np.int8, np.int16, np.int32]
    assert [top for _, top in models.JACKSON_COUNTS] == [
        np.iinfo(t).max for t in types]


# rates 1 and 2: the one cut point, 2^16 / 3, falls inside the word 21845
STRADDLE = JacksonSpec(arrival_rates=(1.0,), service_rates=(2.0,),
                       routing=((0.0,),))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3, STRADDLE],
                         ids=["tandem", "feedback_3", "straddle"])
def test_jackson_masks_are_one_hot_on_the_event_code(spec, dtype):
    _, src, classify, _ = models._jackson_events(spec)
    words = models._jackson_words(substream(138, 0), 16, 4096)
    # every other step's words straddle the rate-1/rate-2 cut
    words[::2] = 21845
    code, masks = classify(words, substream(138, 1), dtype)
    assert masks.dtype == dtype
    assert masks.shape == (16, len(src), 4096)
    assert np.all(masks.sum(axis=1) == 1)
    assert np.array_equal(masks.argmax(axis=1), code)
    # the same words and refinement stream give the same codes in any type
    wide, _ = classify(words, substream(138, 1), np.int32)
    assert np.array_equal(code, wide)
    if spec is STRADDLE:
        assert set(np.unique(code[::2])) == {0, 1}


def test_dependent_cycles_flow_through_fast_sampler():
    # comonotone ages with equal marginals coincide at equal times
    model = build_age_residual(AgeResidualSpec(EXP1, copies=2))
    states = sample_states(model, [250.0, 250.0], 3000, seed=121)
    assert np.array_equal(states[0], states[1])


def test_dependent_levy_cycles_flow_through_fast_sampler():
    # pure drift from comonotone equal restart levels: both coordinates
    # run the same busy periods, so their states coincide at equal times
    coord = LevyQueueCoordinate(restart_level=MarginalSpec.gamma(2.0, 1.0))
    model = levy_model(coord, coord, dependence=DependenceSpec.comonotone())
    states = sample_states(model, [250.0, 250.0], 3000, seed=122)
    assert np.array_equal(states[0], states[1])
    assert np.all(states[0] > 0.0)


# ---------------------------------------------------------------------------
# the shared stationary-window sampler


WINDOW_MODELS = {
    "levy_queue": lambda: levy_model(
        M_G_1_VACATION,
        LevyQueueCoordinate(restart_level=MarginalSpec.exponential(0.5),
                            jump_rate=0.25, jump_size=EXP1),
        dependence=DependenceSpec.comonotone()),
    "clearing_jumps": lambda: build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(cycle_length=EXP1, drift=1.0,
                                        jump_rate=0.7, jump_size=EXP1),
                     ClearingCoordinate(
                         cycle_length=MarginalSpec.exponential(0.5))),
        dependence=DependenceSpec.comonotone())),
    "status": lambda: build_status(StatusSpec(
        sources=(StatusSource(inter_update=EXP1, update_size=EXP1),
                 StatusSource(inter_update=MarginalSpec.gamma(2.0, 2.0),
                              update_size=EXP1)),
        dependence=DependenceSpec.independent())),
    "age_residual": lambda: build_age_residual(
        AgeResidualSpec(MarginalSpec.gamma(2.0, 1.0), copies=2)),
}


def spy_on_draws(monkeypatch) -> list[tuple[int, int]]:
    """Record (rows, coordinates) of every draw the window sampler makes."""
    calls = []
    draw = engine.sample_cycle_vectors

    def spy(dep, marginals, rng, size):
        calls.append((int(size), len(marginals)))
        return draw(dep, marginals, rng, size)

    monkeypatch.setattr(engine, "sample_cycle_vectors", spy)
    return calls


@pytest.fixture
def round_sampler(monkeypatch):
    """Window samplers built and run while this is active read every
    straddling cycle from the round kernel of ``engine.straddling_cycles``,
    as copulas, common shocks and laws outside the rate families always
    do."""
    monkeypatch.setattr(engine, "bridge_processes", lambda dep, laws: None)


RHO_09 = DependenceSpec.gaussian_copula(((1.0, 0.9), (0.9, 1.0)))

# a Levy queue off the bridge: its restart levels take the round kernel
THREAD_MODELS = {**WINDOW_MODELS, "levy_copula": lambda: levy_model(
    *LEVY_SWEEP, dependence=RHO_09)}


@pytest.mark.parametrize("family", sorted(THREAD_MODELS))
def test_window_sampler_is_thread_count_invariant(family, monkeypatch):
    model = THREAD_MODELS[family]()
    n = engine.WINDOW_CHUNK + 904
    monkeypatch.setenv("REGEN_VERIFY_THREADS", "1")
    one = sample_states(model, [20.0, 30.0], n, seed=107)
    for threads in (2, 4):
        monkeypatch.setenv("REGEN_VERIFY_THREADS", str(threads))
        other = sample_states(model, [20.0, 30.0], n, seed=107)
        for a, b, d in zip(one, other, model.state_dims):
            assert a.shape == (n, d)
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", sorted(WINDOW_MODELS))
def test_window_sampler_reads_draws_in_either_memory_order(family,
                                                          monkeypatch,
                                                          round_sampler):
    model = WINDOW_MODELS[family]()
    times = [20.0, 30.0]
    stored = sample_states(model, times, 1500, seed=125)
    rows = []

    def row_major(dep, marginals, rng, size):
        rows.append(size)
        return row_major_cycle_vectors(dep, marginals, rng, size)

    monkeypatch.setattr(engine, "sample_cycle_vectors", row_major)
    read = sample_states(model, times, 1500, seed=125)
    # later rounds draw only for the replications still pending
    assert len(rows) > 1 and min(rows) < rows[0]
    for a, b in zip(stored, read):
        assert a.tobytes() == b.tobytes()


# the restart levels or cycle lengths each window family draws, with levels
# that differ by row where the family reads them so (Levy queues, at the
# depths of their free paths), and one copula on a law outside the rate
# families
ROUND_KERNEL_CASES = {
    "levy_queue": (DependenceSpec.comonotone(),
                   (EXP1, MarginalSpec.exponential(0.5)), (5.0, 40.0)),
    "clearing_jumps": (DependenceSpec.comonotone(),
                       (EXP1, MarginalSpec.exponential(0.5)), None),
    "status": (DependenceSpec.independent(),
               (EXP1, MarginalSpec.gamma(2.0, 2.0)), None),
    "age_residual": (DependenceSpec.comonotone(), (GAMMA_2_1, GAMMA_2_1),
                     None),
    "per_row_levels": (RHO_09, (MarginalSpec.shifted_uniform(0.5, 1.5),
                                MarginalSpec.exponential(0.5)), (5.0, 40.0)),
}


@pytest.mark.parametrize("family", sorted(ROUND_KERNEL_CASES))
def test_window_sampler_matches_full_cumsum_oracle(family, monkeypatch,
                                                    round_sampler):
    dep, laws, spread = ROUND_KERNEL_CASES[family]
    n = 1500
    levels = np.array([[20.0], [30.0]])
    if spread is not None:
        levels = substream(127, 0).uniform(*spread, (2, n))
    # the first round holds at most 2 cycles per replication
    monkeypatch.setattr(engine, "WINDOW_ELEMENTS", n * 2 * 2)
    calls = spy_on_draws(monkeypatch)
    # (age, length) read from the kernel as models._renewal_window reads it
    fast = [None, None]
    for i, lo, hi in engine.straddling_cycles(substream(126, 0), n, dep,
                                              laws, levels):
        length = hi - lo
        fast[i] = np.column_stack(
            [np.minimum(levels[i] - lo, np.nextafter(length, 0.0)), length])
    rounds = len(calls)
    assert rounds >= 5

    def expand(i, lengths, gen):
        return lengths, lambda k, s: np.column_stack([s, lengths[k]])

    means = [effective_cycle_mean(dep, sp) for sp in laws]
    slow = full_cumsum_states(substream(126, 0), n, levels, dep, laws, expand,
                              means, (2, 2))
    # the same rounds draw the same number of cycle vectors
    assert calls[rounds:] == calls[:rounds]
    for a, b in zip(fast, slow):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def test_window_ages_at_exact_epochs(monkeypatch):
    n = 64
    # unit cycles put every epoch on an integer, summed exactly over at
    # most 20 cycles per replication and round
    monkeypatch.setattr(engine, "WINDOW_ELEMENTS", n * 2 * 20)
    calls = spy_on_draws(monkeypatch)
    unit = ClearingCoordinate(cycle_length=MarginalSpec.deterministic(1.0))
    with pytest.warns(ArithmeticCyclesWarning):
        model = build_clearing(ClearingSpec(
            coordinates=(unit, unit),
            dependence=DependenceSpec.independent()))
    on, off = sample_states(model, [500.0, 500.25], n, seed=134)
    assert len(calls) >= 20
    # the cycle that ends exactly at tau is not the straddling one
    assert np.all(on == 0.0)
    assert np.all(off == 0.25)
    # a Levy queue without jumps is its restart residual at the level tau:
    # 501 - 500 and 501 - 500.25
    unit = LevyQueueCoordinate(restart_level=MarginalSpec.deterministic(1.0))
    with pytest.warns(ArithmeticCyclesWarning):
        model = levy_model(unit, unit)
    del calls[:]
    on, off = sample_states(model, [500.0, 500.25], n, seed=134)
    assert len(calls) >= 20
    assert np.all(on == 1.0)
    assert np.all(off == 0.75)


def test_jackson_sampler_is_thread_count_invariant(monkeypatch):
    model = build_jackson(TANDEM)
    # the Jackson sampler runs chunks of 16384 replications
    n = 16384 + 904
    monkeypatch.setenv("REGEN_VERIFY_THREADS", "1")
    one = sample_states(model, [20.0, 30.0], n, seed=128)
    monkeypatch.setenv("REGEN_VERIFY_THREADS", "2")
    two = sample_states(model, [20.0, 30.0], n, seed=128)
    for a, b in zip(one, two):
        assert a.shape == (n, 1)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make_model", [
    lambda: build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(
            cycle_length=EXP1, drift=1.0, jump_rate=0.7, jump_size=EXP1),),
        dependence=DependenceSpec.independent())),
    WINDOW_MODELS["levy_queue"],
], ids=["clearing_jumps", "levy_queue"])
def test_multi_round_window_matches_generic_engine(make_model, monkeypatch,
                                                    round_sampler):
    model = make_model()
    # a round holds at most 8 cycles per replication, so every chunk walks
    # to t=60 in many rounds
    monkeypatch.setattr(engine, "WINDOW_ELEMENTS", 4000 * model.dimension * 8)
    calls = spy_on_draws(monkeypatch)
    times = [60.0] * model.dimension
    fast = sample_states(model, times, 4000, seed=115)
    assert len(calls) >= 5
    slow = realization_states(model, times, 4000, seed=116)
    # two-sample KS 1% critical value at n=4000 per side is ~0.036
    assert two_sample_ks(fast[0][:, 0], slow[0][:, 0]) < 0.036


def test_window_draws_stay_within_the_element_bound(monkeypatch,
                                                     round_sampler):
    calls = spy_on_draws(monkeypatch)
    model = build_clearing(ClearingSpec(
        coordinates=(ClearingCoordinate(cycle_length=EXP1),),
        dependence=DependenceSpec.independent()))
    n = 256
    ages = sample_states(model, [1e5], n, seed=123)[0][:, 0]
    assert calls and all(size * m <= engine.WINDOW_ELEMENTS
                         for size, m in calls)
    # the age at a large time is exp(1), the equilibrium law of exp(1)
    assert abs(ages.mean() - 1.0) <= 4.0 / math.sqrt(n)


def test_window_budget_enforced_before_drawing(monkeypatch, round_sampler):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 100)
    calls = spy_on_draws(monkeypatch)
    # mean cycles 1 and 2 (clearing), 2 and 8/3 (Levy): t=1000 expects
    # more than 100 cycles
    for family in ("clearing_jumps", "levy_queue"):
        with pytest.raises(BudgetExceededError, match="100 cycles"):
            sample_states(WINDOW_MODELS[family](), [1000.0, 1000.0], 1000,
                          seed=124)
    assert calls == []
    model = WINDOW_MODELS["clearing_jumps"]()
    # t=90 needs about 91 unit-mean cycles, more than 100 for some of the
    # 1000 replications: the budget stops the walk in a later round
    with pytest.raises(BudgetExceededError, match="100 cycles"):
        sample_states(model, [90.0, 90.0], 1000, seed=124)
    assert calls


@pytest.mark.parametrize("jump", [
    MarginalSpec.deterministic(0.5),
    MarginalSpec.gamma(2.0, 3.0),
    MarginalSpec.shifted_uniform(0.2, 1.0),
    MarginalSpec.lattice(0.5, {1: 0.5, 3: 0.5}),
], ids=["deterministic", "gamma", "shifted_uniform", "lattice"])
@pytest.mark.parametrize("cycle, second_moment", [
    (MarginalSpec.exponential(1.0), 2.0),
    (MarginalSpec.shifted_uniform(0.5, 1.5), 13.0 / 12.0),
], ids=["bridge", "round"])
def test_clearing_window_mean_matches_closed_form(jump, cycle, second_moment):
    # content at age a is drift * a plus the jumps so far, and the
    # stationary age has mean E T^2 / (2 E T)
    coord = ClearingCoordinate(cycle_length=cycle, drift=0.5, jump_rate=0.8,
                               jump_size=jump)
    model = build_clearing(ClearingSpec(
        coordinates=(coord,), dependence=DependenceSpec.independent()))
    on_bridge = engine.bridge_processes(DependenceSpec.independent(),
                                        (cycle,)) is not None
    assert on_bridge == (cycle.kind == "exponential")
    n = 20_000
    content = sample_states(model, [200.0], n, seed=146)[0][:, 0]
    want = ((coord.drift + coord.jump_rate * jump.mean()) * second_moment
            / (2.0 * cycle.mean()))
    se = content.std(ddof=1) / math.sqrt(n)
    assert abs(content.mean() - want) <= 4.0 * se


# ---------------------------------------------------------------------------
# the bridge window sampler


def age_and_length(i, lengths, gen):
    """Cycles whose state is (age, length), so a window reading each
    straddling cycle at its age returns its age and length exactly."""
    return models._linear_batch(
        np.column_stack([np.zeros(len(lengths)), lengths]), (1.0, 0.0),
        lengths)


def renewal_states(dep, laws, taus, n, seed):
    """(age, length) states of ``models._renewal_window``, drawn by
    ``sample_states`` for a model with that window and the laws' means."""
    model = engine.RegenModel(
        (2,) * len(laws), tuple(effective_cycle_mean(dep, sp) for sp in laws),
        None, models._renewal_window(dep, laws, age_and_length), None)
    return sample_states(model, taus, n, seed)


def round_window(dep, laws, taus, n, seed):
    """:func:`renewal_states` with every law on the round kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "bridge_processes", lambda dep, laws: None)
        return renewal_states(dep, laws, taus, n, seed)


def ks_critical(n: int, alpha: float = 0.001) -> float:
    """Asymptotic two-sample KS critical value at n draws per side."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(2.0 / n)


@pytest.mark.parametrize("dep, laws, taus", [
    (DependenceSpec.comonotone(), (EXP1, MarginalSpec.exponential(0.5)),
     (1000.0, 1000.0)),
    (DependenceSpec.comonotone(), (EXP1, MarginalSpec.exponential(0.5)),
     (7.0, 3.0)),
    # levels 5 and 5.25 of the shared process: often the same cycle
    (DependenceSpec.comonotone(), (EXP1, MarginalSpec.exponential(0.5)),
     (5.0, 10.5)),
    (DependenceSpec.comonotone(), (GAMMA_2_1, GAMMA_2_1), (300.0, 170.0)),
    (DependenceSpec.independent(), (EXP1, MarginalSpec.gamma(2.0, 2.0)),
     (60.0, 90.0)),
    # levels 60 and 62 of one process: the second level reads the first
    # one's cycle or a later one; shape 3 takes the Poisson count and
    # shape 2.5 the bisection
    (DependenceSpec.comonotone(),
     (MarginalSpec.gamma(3.0, 1.0), MarginalSpec.gamma(3.0, 2.0)),
     (60.0, 31.0)),
    (DependenceSpec.comonotone(),
     (MarginalSpec.gamma(2.5, 1.0), MarginalSpec.gamma(2.5, 2.0)),
     (60.0, 31.0)),
    # levels 5 and 5.25 of the shared process on the bisection: often the
    # same cycle
    (DependenceSpec.comonotone(),
     (MarginalSpec.gamma(2.5, 1.0), MarginalSpec.gamma(2.5, 2.0)),
     (5.0, 2.625)),
    # an exponential law is gamma of shape 1: one shared process
    (DependenceSpec.comonotone(), (EXP1, MarginalSpec.gamma(1.0, 0.5)),
     (7.0, 3.0)),
], ids=["clearing_comonotone_1000", "clearing_comonotone_7_3",
        "clearing_comonotone_near_levels", "age_residual_gamma",
        "status_independent", "comonotone_gamma_3", "comonotone_gamma_2_5",
        "comonotone_gamma_2_5_near_levels", "comonotone_exp_gamma_1"])
def test_bridge_matches_round_sampler(dep, laws, taus):
    assert engine.bridge_processes(dep, laws) is not None
    n = 4000
    taus = np.array(taus)
    bridge = renewal_states(dep, laws, taus, n, 140)
    walk = round_window(dep, laws, taus, n, 141)
    for a, b in zip(bridge, walk):
        assert two_sample_ks(a[:, 0], b[:, 0]) < ks_critical(n)
        assert two_sample_ks(a[:, 1], b[:, 1]) < ks_critical(n)
    # the coupling of the two straddling cycles
    p_bridge = np.mean((bridge[0][:, 0] <= 1.0) & (bridge[1][:, 0] <= 1.0))
    p_walk = np.mean((walk[0][:, 0] <= 1.0) & (walk[1][:, 0] <= 1.0))
    se = math.sqrt((p_bridge * (1.0 - p_bridge) + p_walk * (1.0 - p_walk))
                   / n)
    assert abs(p_bridge - p_walk) <= 4.0 * se


def test_bridge_edges():
    dep = DependenceSpec.comonotone()
    # rates 0.7 and 0.3 turn the gamma process's ends back into times
    # inexactly, where rates 1 and 0.5 divide exactly
    for laws in ((EXP1, MarginalSpec.exponential(0.5)),
                 (MarginalSpec.exponential(0.7),
                  MarginalSpec.exponential(0.3))):
        # at time 0 the straddling cycle is the first one, entered at 0
        for states in renewal_states(dep, laws, np.zeros(2), 500, 142):
            assert np.all(states[:, 0] == 0.0)
            assert np.all(states[:, 1] > 0.0)
        # 4 million mean cycles past the origin: the gamma sums are near
        # 4e6 and the ages O(1), and no age reaches its cycle's end
        n = 4096
        taus = 4e6 * np.array([sp.mean() for sp in laws])
        for states, sp in zip(renewal_states(dep, laws, taus, n, 143), laws):
            age, length = states[:, 0], states[:, 1]
            assert np.all((0.0 <= age) & (age < length))
            # the stationary age of an exponential cycle has the cycle's law
            assert (abs(age.mean() - sp.mean())
                    <= 4.0 * sp.mean() / math.sqrt(n))


def test_bridge_split_survives_gamma_underflow(monkeypatch):
    # at shape 0.004 both gammas of a split underflow to 0 now and then;
    # those splits are redrawn as Beta variates
    betas = []

    class SpyGenerator(np.random.Generator):
        def beta(self, a, b, size=None):
            betas.append(len(a))
            return super().beta(a, b, size)

    stream = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda *key: SpyGenerator(stream(*key).bit_generator))
    dep = DependenceSpec.comonotone()
    n = 4000
    # unit levels 0.08 of the shared process; rates 0.7 and 0.3 turn its
    # ends back into times inexactly
    for rates in ((1.0, 2.0), (0.7, 0.3)):
        laws = tuple(MarginalSpec.gamma(0.004, rate) for rate in rates)
        taus = 0.08 / np.array(rates)
        betas.clear()
        bridge = renewal_states(dep, laws, taus, n, 144)
        assert betas
        walk = round_window(dep, laws, taus, n, 145)
        for a, b in zip(bridge, walk):
            assert np.all((0.0 <= a[:, 0]) & (a[:, 0] < a[:, 1]))
            assert two_sample_ks(a[:, 0], b[:, 0]) < ks_critical(n)
            assert two_sample_ks(a[:, 1], b[:, 1]) < ks_critical(n)


@pytest.mark.parametrize("dep, laws", [
    (DependenceSpec.comonotone(), (EXP1, MarginalSpec.exponential(0.5))),
    (DependenceSpec.independent(),
     (MarginalSpec.gamma(3.0, 1.0), MarginalSpec.gamma(3.0, 0.5))),
], ids=["comonotone_exponential", "independent_gamma_3"])
def test_integer_shape_bridge_draws_at_most_four_variates(monkeypatch, dep,
                                                          laws):
    # an integer shape reads the straddling cycle from one Poisson count of
    # the points below the level, however many cycles lie before it;
    # bisection would draw about 2 * log2(10^6), some 40, per row and level
    drawn = []

    class SpyGenerator(np.random.Generator):
        def poisson(self, lam=1.0, size=None):
            out = super().poisson(lam, size)
            drawn.append(np.size(out))
            return out

        def standard_gamma(self, shape, size=None, dtype=np.float64,
                           out=None):
            out = super().standard_gamma(shape, size, dtype, out)
            drawn.append(np.size(out))
            return out

        def beta(self, a, b, size=None):
            out = super().beta(a, b, size)
            drawn.append(np.size(out))
            return out

    stream = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda *key: SpyGenerator(stream(*key).bit_generator))
    n = 1000
    taus = 1e6 * np.array([sp.mean() for sp in laws])
    states = renewal_states(dep, laws, taus, n, 147)
    assert 0 < sum(drawn) <= 4 * n * len(laws)
    for a in states:
        assert np.all((0.0 <= a[:, 0]) & (a[:, 0] < a[:, 1]))


def test_bridge_takes_rate_family_laws_under_independent_or_shared_quantile():
    exp_half = MarginalSpec.exponential(0.5)
    accepted = [
        (DependenceSpec.independent(), (EXP1, GAMMA_2_1),
         [(1.0, [0]), (2.0, [1])]),
        (DependenceSpec.comonotone(), (EXP1, exp_half), [(1.0, [0, 1])]),
        (DependenceSpec.comonotone(),
         (GAMMA_2_1, MarginalSpec.gamma(2.0, 3.0)), [(2.0, [0, 1])]),
        # exponential counts as gamma of shape 1
        (DependenceSpec.comonotone(), (EXP1, MarginalSpec.gamma(1.0, 2.0)),
         [(1.0, [0, 1])]),
    ]
    for dep, laws, groups in accepted:
        assert engine.bridge_processes(dep, laws) == groups
    refused = [
        (DependenceSpec.comonotone(), (EXP1, GAMMA_2_1)),
        (DependenceSpec.gaussian_copula(((1.0, 0.5), (0.5, 1.0))),
         (EXP1, exp_half)),
        (DependenceSpec.common_shock(EXP1), (EXP1, exp_half)),
        (DependenceSpec.independent(),
         (EXP1, MarginalSpec.shifted_uniform(0.5, 1.5))),
        (DependenceSpec.independent(),
         (EXP1, MarginalSpec.deterministic(1.0))),
        (DependenceSpec.independent(),
         (EXP1, MarginalSpec.lattice(1.0, {1: 0.5, 2: 0.5}))),
    ]
    for dep, laws in refused:
        assert engine.bridge_processes(dep, laws) is None


def test_bridge_budget_enforced(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 100)
    opened = []
    stream = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda *key: opened.append(key) or stream(*key))
    # mean cycles 1 on coordinate 0: exponential ones read by the Poisson
    # count, and gamma(2.5) ones by the bisection
    for model in (WINDOW_MODELS["clearing_jumps"](), build_age_residual(
            AgeResidualSpec(MarginalSpec.gamma(2.5, 2.5), copies=2))):
        opened.clear()
        # 100 mean cycles reach the budget, and no chunk opens its stream
        for times in ([1000.0, 1000.0], [100.0, 0.0]):
            with pytest.raises(BudgetExceededError, match="100 cycles"):
                sample_states(model, times, 1000, seed=124)
        assert opened == []
        # at t=90, G_100 <= 90 for some of the 1000 replications: the
        # budget stops the read after its first draws
        with pytest.raises(BudgetExceededError, match="100 cycles"):
            sample_states(model, [90.0, 90.0], 1000, seed=124)
        assert opened


# ---------------------------------------------------------------------------
# the Levy decomposition sampler


def levy_pair(restarts, jumps=(EXP1, EXP1)):
    """Coordinates with jump rates 0.5 and 0.25, loads 1/2 and 1/4 for
    unit-mean jumps."""
    return tuple(LevyQueueCoordinate(restart_level=u, jump_rate=rate,
                                     jump_size=x)
                 for u, rate, x in zip(restarts, (0.5, 0.25), jumps))


@pytest.mark.parametrize("dep, coords", [
    (DependenceSpec.comonotone(), LEVY_SWEEP),
    (DependenceSpec.comonotone(),
     levy_pair((GAMMA_2_1, MarginalSpec.gamma(2.0, 2.0)))),
    # shape 2.5 takes the bisection
    (DependenceSpec.comonotone(),
     levy_pair((MarginalSpec.gamma(2.5, 1.0), MarginalSpec.gamma(2.5, 2.0)))),
    (DependenceSpec.independent(),
     levy_pair((GAMMA_2_1, MarginalSpec.exponential(0.5)),
               (EXP1, MarginalSpec.gamma(2.0, 2.0)))),
    (DependenceSpec.comonotone(),
     levy_pair((EXP1, MarginalSpec.exponential(0.5)),
               (MarginalSpec.shifted_uniform(0.2, 1.8), EXP1))),
    # off the bridge: the round kernel reads the restart levels
    (RHO_09, levy_pair((EXP1, MarginalSpec.exponential(0.5)))),
    (DependenceSpec.common_shock(MarginalSpec.exponential(2.0)),
     levy_pair((EXP1, MarginalSpec.exponential(0.5)))),
    (DependenceSpec.comonotone(),
     levy_pair((MarginalSpec.shifted_uniform(0.5, 1.5),) * 2)),
], ids=["comonotone_exp", "comonotone_gamma_2", "comonotone_gamma_2_5",
        "independent_gamma_jumps", "comonotone_uniform_jumps",
        "gaussian_copula", "common_shock", "shifted_uniform_restarts"])
def test_levy_decomposition_matches_round_sampler(dep, coords):
    n = 4000
    # D_0 and D_1 / 2 are both near 10: rows visit the shared process's
    # levels in either order
    taus = np.array([20.0, 26.0])
    model = levy_model(*coords, dependence=dep)
    fast = sample_states(model, taus, n, seed=150)
    walk = sample_states(dataclasses.replace(
        model, window=levy_busy_period_window(coords, dep)), taus, n, seed=151)
    for a, b in zip(fast, walk):
        assert a.shape == (n, 1)
        assert two_sample_ks(a[:, 0], b[:, 0]) < ks_critical(n)
    # the coupling: both coordinates at most their medians
    medians = [np.median(b[:, 0]) for b in walk]
    p_fast, p_walk = (np.mean((s[0][:, 0] <= medians[0])
                              & (s[1][:, 0] <= medians[1]))
                      for s in (fast, walk))
    se = math.sqrt((p_fast * (1.0 - p_fast) + p_walk * (1.0 - p_walk)) / n)
    assert abs(p_fast - p_walk) <= 4.0 * se


@pytest.mark.parametrize("dep", [
    DependenceSpec.independent(), DependenceSpec.comonotone(), RHO_09,
    DependenceSpec.common_shock(MarginalSpec.exponential(2.0)),
], ids=["independent", "comonotone", "gaussian_copula", "common_shock"])
def test_levy_window_walks_no_busy_period(dep, monkeypatch):
    walked = []
    levy_batch = models._levy_batch

    def spy(coord, levels, gen):
        walked.append(len(levels))
        return levy_batch(coord, levels, gen)

    monkeypatch.setattr(models, "_levy_batch", spy)
    model = levy_model(*LEVY_SWEEP, dependence=dep)
    states = sample_states(model, [20.0, 26.0], 1000, seed=154)
    assert [a.shape for a in states] == [(1000, 1)] * 2
    assert walked == []
    # the stationary routes still walk them
    model.cycle_batch(0, substream(154, 0), 10)
    assert walked == [10]


def test_levy_window_mean_matches_fuhrmann_cooper():
    # at tau = 1000 the window state is stationary: the Pollaczek-Khinchine
    # workload plus the equilibrium restart level, E exp(-W) = 1/3 and 2/7
    # (test_levy_second_coordinate_matches_fuhrmann_cooper)
    model = levy_model(*LEVY_SWEEP, dependence=DependenceSpec.comonotone())
    n = 20_000
    states = sample_states(model, [1000.0, 1000.0], n, seed=152)
    for column, want in zip(states, (1.0 / 3.0, 2.0 / 7.0)):
        decay = np.exp(-column[:, 0])
        assert abs(decay.mean() - want) <= 4.0 * decay.std() / math.sqrt(n)


def test_levy_decomposition_budgets(monkeypatch):
    # restart levels of mean 1000 keep the cycle count low, so only the
    # jumps reach the budget
    coord = LevyQueueCoordinate(restart_level=MarginalSpec.exponential(1e-3),
                                jump_rate=0.5, jump_size=EXP1)
    model = levy_model(coord)
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 100)
    opened = []
    stream = engine.substream
    monkeypatch.setattr(engine, "substream",
                        lambda *key: opened.append(key) or stream(*key))
    with pytest.raises(BudgetExceededError, match="100 or more events"):
        sample_states(model, [200.0], 1000, seed=153)
    # a copula, whose restart levels take the round kernel, is refused by
    # the same jump bound
    copula = levy_model(coord, coord, dependence=RHO_09)
    with pytest.raises(BudgetExceededError, match="100 or more events"):
        sample_states(copula, [200.0, 10.0], 1000, seed=153)
    # and so is a chunk over the work bound: 1000 rows of 75 jumps each
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 70_000)
    with pytest.raises(BudgetExceededError,
                       match="70000 row-events in a chunk of 1000 "):
        sample_states(model, [150.0], 1000, seed=153)
    assert opened == []
    monkeypatch.undo()
    # a small block bound splits each chunk's free paths into blocks
    monkeypatch.setattr(models, "FREE_PATH_BLOCK", 500)
    blocks = []
    walks = models._reflected_walks

    def spy(coord, tau, jumps, gen):
        blocks.append(jumps)
        return walks(coord, tau, jumps, gen)

    monkeypatch.setattr(models, "_reflected_walks", spy)
    n = engine.WINDOW_CHUNK + 904
    sample_states(model, [100.0], n, seed=153)
    assert len(blocks) > 100
    assert sum(len(jumps) for jumps in blocks) == n
    assert all(len(jumps) == 1 or np.sum(jumps + 1) <= 500
               for jumps in blocks)


def test_levy_work_bound_counts_every_coordinate():
    # each coordinate draws its own free path, so a row's jumps add up:
    # 0.5 * 3e6 twice makes 3e6 per row and 1.2e10 in a chunk of 4096
    model = levy_model(M_G_1_VACATION, M_G_1_VACATION)
    with pytest.raises(BudgetExceededError, match="10000000000 row-events "
                       "in a chunk of 4096 "):
        engine.require_window_budget(model, [3e6, 3e6], 4096)
    # one coordinate's jumps, or 3000 rows of both, stay under the bound
    engine.require_window_budget(model, [3e6, 0.0], 4096)
    engine.require_window_budget(model, [3e6, 3e6], 3000)


# ---------------------------------------------------------------------------
# arithmetic-cycle warnings


def test_arithmetic_clearing_warns():
    with pytest.warns(ArithmeticCyclesWarning):
        build_clearing(ClearingSpec(
            coordinates=(ClearingCoordinate(
                cycle_length=MarginalSpec.deterministic(1.0)),),
            dependence=DependenceSpec.independent()))


def test_arithmetic_levy_lattice_jumps_warn():
    with pytest.warns(ArithmeticCyclesWarning):
        build_levy_queue(LevyQueueSpec(
            coordinates=(LevyQueueCoordinate(
                restart_level=MarginalSpec.deterministic(1.0), jump_rate=0.5,
                jump_size=MarginalSpec.lattice(1.0, {1: 1.0})),),
            dependence=DependenceSpec.independent()))


def test_nonarithmetic_levy_does_not_warn(recwarn):
    build_levy_queue(LevyQueueSpec(
        coordinates=(LevyQueueCoordinate(
            restart_level=MarginalSpec.deterministic(1.0), jump_rate=0.5,
            jump_size=EXP1),),
        dependence=DependenceSpec.independent()))
    assert not [w for w in recwarn.list
                if issubclass(w.category, ArithmeticCyclesWarning)]
