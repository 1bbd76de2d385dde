"""The model families: cycle structure, closed forms, and agreement of the
native cycle batches and vectorised state samplers with the per-cycle
generator."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import (Realization, jackson_batch, jackson_chunk_states,
                     realization_states)
from regenverify import (ArithmeticCyclesWarning, BudgetExceededError,
                         ClearingCoordinate, ClearingSpec, ConfigurationError,
                         DependenceSpec, MarginalSpec, build_clearing)
from regenverify.engine import (exp_neg, identity, path_integral,
                                renewal_reward_estimate, sample_states)
from regenverify.models import (AgeResidualSpec, JacksonSpec,
                                LevyQueueCoordinate, LevyQueueSpec,
                                StatusSource, StatusSpec, build_age_residual,
                                build_jackson, build_levy_queue, build_status,
                                jackson_cycle_mean, jackson_utilizations,
                                pi_closed_form, traffic_solve)
from regenverify.randomness import substream
from regenverify import engine, models

EXP1 = MarginalSpec.exponential(1.0)


def quadrature_pi_factor(rate: float, y_over_c: float) -> float:
    """Independent route to E[tail_e(Y/c)] for an exponential inter-update
    law and a deterministic mark: numerator integral of the raw tail."""
    spec = MarginalSpec.exponential(rate)
    num, _ = integrate.quad(spec.tail, 0.0, y_over_c, limit=200, epsabs=1e-12)
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
    batches = model.cycle_batch(substream(104, 0), n)
    gen = substream(105, 0)
    cycles = [model.cycle_generator(gen) for _ in range(n)]
    for i, batch in enumerate(batches):
        counts = np.diff(batch.offsets, append=len(batch.starts))
        seg = batch.segment_lengths()
        assert batch.count == n and np.all(counts >= 1)
        assert batch.values.shape == (len(batch.starts),
                                      model.state_dims[i])
        assert np.all(batch.starts[batch.offsets] == 0.0)
        assert np.all(seg >= 0.0) and np.all(batch.lengths > 0.0)
        rewards = np.add.reduceat(
            exp_neg().segment_integrals(batch.values, batch.slopes, seg),
            batch.offsets)

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
    batch = model.cycle_batch(substream(104, 0), 10_000)[0]
    counts = np.diff(batch.offsets, append=len(batch.starts))
    seg = batch.segment_lengths()
    assert np.all(batch.slopes == -1.0)
    assert np.all(seg > 0.0)
    # every busy period ends exactly when its level reaches zero
    ends = batch.values[:, 0] - seg
    last = batch.offsets + counts - 1
    assert np.allclose(ends[last], 0.0, atol=1e-9)


def test_cycle_batches_keep_the_cycle_coupling():
    # comonotone exponential(1) and exponential(1/2) lengths: the second
    # coordinate's cycle k is exactly twice the first's
    dep = DependenceSpec.comonotone()
    laws = (EXP1, MarginalSpec.exponential(0.5))
    for model in (
            build_clearing(ClearingSpec(
                coordinates=tuple(ClearingCoordinate(cycle_length=law)
                                  for law in laws), dependence=dep)),
            build_status(StatusSpec(
                sources=tuple(StatusSource(inter_update=law,
                                           update_size=EXP1)
                              for law in laws), dependence=dep))):
        first, second = model.cycle_batch(substream(108, 0), 5000)
        assert np.allclose(second.lengths, 2.0 * first.lengths, rtol=1e-12)
    # the tandem's stations share one cycle, so one set of lengths
    first, second = build_jackson(TANDEM).cycle_batch(substream(109, 0), 500)
    assert np.array_equal(first.lengths, second.lengths)
    assert np.array_equal(first.starts, second.starts)


def test_levy_batch_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(models, "MAX_EVENTS_PER_CYCLE", 2)
    model = levy_model(LevyQueueCoordinate(restart_level=EXP1, jump_rate=0.9,
                                           jump_size=EXP1))
    with pytest.raises(BudgetExceededError):
        model.cycle_batch(substream(106, 0), 1000)
    with pytest.raises(BudgetExceededError):
        sample_states(model, [50.0], 1000, seed=106)


def test_jackson_batch_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(models, "MAX_EVENTS_PER_CYCLE", 2)
    with pytest.raises(BudgetExceededError):
        build_jackson(TANDEM).cycle_batch(substream(106, 0), 1000)


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


def test_pi_closed_form_random_marks():
    # exponential marks over an exponential cycle: E e^{-Y} by quadrature
    spec = StatusSpec(
        sources=(StatusSource(inter_update=EXP1, update_size=EXP1),),
        dependence=DependenceSpec.independent())
    oracle, _ = integrate.quad(lambda y: math.exp(-y) * math.exp(-y),
                               0.0, np.inf)
    assert pi_closed_form(spec) == pytest.approx(oracle, abs=1e-8)


def test_pi_closed_form_common_shock_matches_simulation():
    spec = StatusSpec(
        sources=(StatusSource(inter_update=EXP1,
                              update_size=MarginalSpec.deterministic(0.5)),
                 StatusSource(inter_update=EXP1,
                              update_size=MarginalSpec.deterministic(0.5))),
        dependence=DependenceSpec.common_shock(MarginalSpec.exponential(2.0)))
    pi = pi_closed_form(spec)
    model = build_status(spec)
    n = 40_000
    states = sample_states(model, [500.0, 500.0], n, seed=111)
    joint = np.ones(n, dtype=bool)
    for i in range(2):
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
    assert model.joint_state_sampler is not None
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
    assert model.joint_state_sampler is not None
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
    monkeypatch.setattr(models, "MAX_EVENTS_PER_CYCLE", 1000)
    model = build_jackson(TANDEM)
    # the tandem steps at total rate 2.5: 2500 expected steps by t=1000
    with pytest.raises(BudgetExceededError, match="1000 events"):
        sample_states(model, [1000.0, 10.0], 100, seed=127)
    states = sample_states(model, [300.0, 10.0], 100, seed=127)
    assert states[0].shape == (100, 1)


def test_jackson_sampler_work_budget_bounds_one_chunk(monkeypatch):
    # the tandem steps at total rate 2.5: 100 rows to t=400 take 100 000
    # expected row-steps, which the budget still admits
    monkeypatch.setattr(models, "MAX_JACKSON_WORK", 100_000)
    model = build_jackson(TANDEM)
    states = sample_states(model, [400.0, 10.0], 100, seed=127)
    assert states[0].shape == (100, 1)
    for threads in (1, 2):
        with pytest.raises(BudgetExceededError, match="100000 row-steps"):
            sample_states(model, [400.4, 10.0], 100, seed=127,
                          threads=threads)
    # the bound is per chunk: rows past the first chunk add no work to it
    rows = models.JACKSON_CHUNK
    monkeypatch.setattr(models, "MAX_JACKSON_WORK", rows * 10)
    states = sample_states(model, [4.0, 1.0], 2 * rows + 1, seed=127)
    assert states[0].shape == (2 * rows + 1, 1)
    with pytest.raises(BudgetExceededError, match=f"chunk of {rows} "):
        sample_states(model, [4.1, 1.0], 2 * rows + 1, seed=127)


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
    fast = build_jackson(spec).joint_state_sampler(taus, n, 131, (1003,), 1)
    slow = engine.chunked_sampler(jackson_chunk_states(spec), 16384)(
        taus, n, 131, (1003,), 1)
    for a, b in zip(fast, slow):
        assert a.shape == b.shape == (n, 1)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", [TANDEM, FEEDBACK_3],
                         ids=["tandem", "feedback_3"])
def test_jackson_batch_matches_step_oracle_bit_for_bit(spec):
    fast = build_jackson(spec).cycle_batch(substream(132, 0), 2000)
    slow = jackson_batch(spec, substream(132, 0), 2000)
    for a, b in zip(fast, slow):
        for name in ("starts", "values", "slopes", "offsets", "lengths"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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


@pytest.mark.parametrize("family", sorted(WINDOW_MODELS))
def test_window_sampler_is_thread_count_invariant(family):
    model = WINDOW_MODELS[family]()
    n = engine.WINDOW_CHUNK + 904
    one = sample_states(model, [20.0, 30.0], n, seed=107, threads=1)
    two = sample_states(model, [20.0, 30.0], n, seed=107, threads=2)
    for a, b, d in zip(one, two, model.state_dims):
        assert a.shape == (n, d)
        assert a.tobytes() == b.tobytes()


def test_jackson_sampler_is_thread_count_invariant():
    model = build_jackson(TANDEM)
    # the Jackson sampler runs chunks of 16384 replications
    n = 16384 + 904
    one = sample_states(model, [20.0, 30.0], n, seed=128, threads=1)
    two = sample_states(model, [20.0, 30.0], n, seed=128, threads=2)
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
def test_multi_round_window_matches_generic_engine(make_model, monkeypatch):
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


def test_window_draws_stay_within_the_element_bound(monkeypatch):
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


def test_window_budget_enforced_before_drawing(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 100)
    calls = spy_on_draws(monkeypatch)
    model = WINDOW_MODELS["clearing_jumps"]()
    with pytest.raises(BudgetExceededError, match="100 cycles"):
        sample_states(model, [1000.0, 1000.0], 1000, seed=124)
    assert calls == []
    # t=90 needs about 91 unit-mean cycles, more than 100 for some of the
    # 1000 replications: the budget stops the walk in a later round
    with pytest.raises(BudgetExceededError, match="100 cycles"):
        sample_states(model, [90.0, 90.0], 1000, seed=124)
    assert calls


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
