"""Bundled model families, each exposed as a :class:`RegenModel`.

- storage/queue processes driven by negative drift, compound-Poisson input,
  and dependent restart levels drawn at each emptiness epoch
- clearing (growth-collapse) processes with dependent clearing times
- status-updating freshness indicators with dependent inter-update times
- open Jackson networks regenerating at empty-system epochs

Every family draws its cycles natively in batches of flat segment arrays
(``cycle_batch``), which both stationary routes integrate, and carries a
vectorised stationary-window sampler: :func:`engine.window_sampler` for all
but Jackson networks. Their batch and sampler drive one step of uniformised
transitions (:func:`_jackson_events`): masked updates of a station-major
state, one uniform per chain picking its event, with a block of uniforms
classified into event masks before its steps fire. The batch draws its
clock and event uniforms step by step, a block of one step; the sampler
has no clock, runs to Poisson step counts and draws its uniforms a block
of steps at a time, the same stream as one draw per step. Every family
also keeps a per-cycle generator (``cycle_generator``); nothing in the
package calls it, it is the oracle the tests cross-check the batches and
samplers against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Union

import numpy as np

from .errors import (ArithmeticCyclesWarning, BudgetExceededError,
                     ConfigurationError, error_path)
from .engine import (CycleBatch, CyclePath, RegenModel, bridge_processes,
                     bridge_window_sampler, chunked_sampler, linear_path,
                     window_sampler)
from .randomness import (DependenceSpec, MarginalSpec, effective_arithmetic,
                         effective_cycle_mean, sample_cycle_vectors)
from .renewal import equilibrium_tail, mean_excess

MAX_EVENTS_PER_CYCLE = 10_000_000
# most uniforms the Jackson sampler draws at once
JACKSON_BLOCK = 1 << 16
# rows per chunk of the Jackson sampler
JACKSON_CHUNK = 1 << 14
# most row-steps (rows times expected steps) one Jackson chunk may take
MAX_JACKSON_WORK = 10_000_000_000


def _warn_arithmetic(which: list[int], family: str) -> None:
    if which:
        coords = ", ".join(str(i) for i in which)
        warnings.warn(
            f"{family}: cycle lengths of coordinate(s) {coords} are "
            f"arithmetic; the product-form limit requires nonarithmetic "
            f"cycles, treat results as a negative control",
            ArithmeticCyclesWarning, stacklevel=3)


def _linear_batch(values: np.ndarray, slope, lengths: np.ndarray
                  ) -> CycleBatch:
    """One segment per cycle: cycle ``k`` starts at ``values[k]`` and moves
    with ``slope`` for ``lengths[k]``."""
    count = len(lengths)
    return CycleBatch(np.zeros(count), values,
                      np.tile(np.asarray(slope, dtype=float), (count, 1)),
                      np.arange(count), lengths)


def _by_cycle(rows: list, starts: list, values: list, count: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment starts, values and per-cycle offsets from lockstep rounds,
    where round ``r`` opened a segment in each cycle of ``rows[r]``. Rounds
    are in time order, so a stable sort by cycle keeps each cycle's
    segments in time order."""
    cycle = np.concatenate(rows)
    order = np.argsort(cycle, kind="stable")
    counts = np.bincount(cycle, minlength=count)
    return (np.concatenate(starts)[order], np.concatenate(values)[order],
            np.cumsum(counts) - counts)


def _renewal_window(dep: DependenceSpec, marginals, state, means,
                    state_dims: tuple[int, ...]):
    """Stationary-window sampler of a renewal-driven family: the drawn
    entries are the cycle lengths, and ``state(i, age, length, gen)`` fills
    only the straddling cycle. Laws and couplings with closed-form block
    sums take the bridge sampler, all others the round sampler."""
    if bridge_processes(dep, marginals) is not None:
        return bridge_window_sampler(dep, marginals, state)

    def expand(i: int, lengths: np.ndarray, gen: np.random.Generator):
        return lengths, lambda k, s: state(i, s, lengths[k], gen)

    return window_sampler(dep, marginals, expand, means, state_dims)


# ---------------------------------------------------------------------------
# storage / queue with dependent restart levels


@dataclass(frozen=True)
class LevyQueueCoordinate:
    """One coordinate: drift -1, compound-Poisson jumps at ``jump_rate`` with
    sizes ``jump_size``, restarted at an extra jump of size ``restart_level``
    each time the path hits zero."""

    restart_level: MarginalSpec
    jump_rate: float = 0.0
    jump_size: MarginalSpec | None = None

    def validate(self) -> "LevyQueueCoordinate":
        if not (self.jump_rate >= 0.0 and math.isfinite(self.jump_rate)):
            raise ConfigurationError("jump_rate must be finite and >= 0")
        if self.jump_rate > 0.0:
            if self.jump_size is None:
                raise ConfigurationError(
                    "jump_size is required when jump_rate > 0")
            self.jump_size.validate()
        self.restart_level.validate()
        return self

    def load(self) -> float:
        if self.jump_rate == 0.0:
            return 0.0
        return self.jump_rate * self.jump_size.mean()


@dataclass(frozen=True)
class LevyQueueSpec:
    coordinates: tuple[LevyQueueCoordinate, ...]
    dependence: DependenceSpec = field(
        default_factory=DependenceSpec.independent)

    def validate(self) -> "LevyQueueSpec":
        if not self.coordinates:
            raise ConfigurationError("at least one coordinate is required")
        for k, coord in enumerate(self.coordinates):
            coord.validate()
            if coord.load() >= 1.0:
                raise ConfigurationError(
                    f"coordinate {k} is unstable: jump_rate * mean jump size "
                    f"= {coord.load():g} >= 1")
        with error_path("dependence"):
            self.dependence.validate(len(self.coordinates))
        return self


def _levy_cycle(coord: LevyQueueCoordinate, start_level: float,
                gen: np.random.Generator) -> CyclePath:
    breaks = [0.0]
    values = [start_level]
    level = start_level
    t = 0.0
    lam = coord.jump_rate
    for _ in range(MAX_EVENTS_PER_CYCLE):
        gap = gen.exponential(1.0 / lam) if lam > 0.0 else math.inf
        if gap >= level:
            breaks.append(t + level)
            k = len(values)
            return CyclePath(np.asarray(breaks),
                             np.asarray(values)[:, None],
                             np.full((k, 1), -1.0))
        t += gap
        level -= gap
        level += coord.jump_size.sample(gen)
        breaks.append(t)
        values.append(level)
    raise BudgetExceededError(
        f"storage cycle exceeded {MAX_EVENTS_PER_CYCLE} jumps")


def _levy_batch(coord: LevyQueueCoordinate, start_levels: np.ndarray,
                gen: np.random.Generator) -> CycleBatch:
    """One busy period from each start level, all run in lockstep: every
    round draws the next gap of each live cycle, ends the cycles whose gap
    reaches their level and adds a jump and a new segment to the rest."""
    count = len(start_levels)
    lam = coord.jump_rate
    lengths = np.empty(count)
    live = np.arange(count)
    t = np.zeros(count)
    level = np.asarray(start_levels, dtype=float)
    rows, times, levels = [live], [t], [level]
    for _ in range(MAX_EVENTS_PER_CYCLE):
        gap = (gen.exponential(1.0 / lam, live.size) if lam > 0.0
               else np.full(live.size, math.inf))
        done = gap >= level
        lengths[live[done]] = t[done] + level[done]
        go = ~done
        live, t = live[go], t[go] + gap[go]
        if not live.size:
            break
        level = level[go] - gap[go] + coord.jump_size.sample(gen, live.size)
        rows.append(live)
        times.append(t)
        levels.append(level)
    else:
        raise BudgetExceededError(
            f"storage cycle exceeded {MAX_EVENTS_PER_CYCLE} jumps")
    starts, values, offsets = _by_cycle(rows, times, levels, count)
    values = values[:, None]
    return CycleBatch(starts, values, np.full_like(values, -1.0), offsets,
                      lengths)


def build_levy_queue(spec: LevyQueueSpec) -> RegenModel:
    spec.validate()
    coords = spec.coordinates
    dep = spec.dependence
    _warn_arithmetic(
        [i for i, c in enumerate(coords)
         if effective_arithmetic(dep, c.restart_level)
         and (c.jump_rate == 0.0 or c.jump_size.arithmetic)],
        "levy_queue")
    restarts = tuple(c.restart_level for c in coords)
    # each cycle is a busy period started by one restart jump: Wald gives
    # E T = E U / (1 - load)
    means = tuple(effective_cycle_mean(dep, c.restart_level)
                  / (1.0 - c.load()) for c in coords)

    def generate(gen: np.random.Generator) -> tuple[CyclePath, ...]:
        levels = sample_cycle_vectors(dep, restarts, gen, 1)[0]
        return tuple(_levy_cycle(coords[i], float(levels[i]), gen)
                     for i in range(len(coords)))

    def batch(gen: np.random.Generator, count: int
              ) -> tuple[CycleBatch, ...]:
        levels = sample_cycle_vectors(dep, restarts, gen, count)
        return tuple(_levy_batch(coords[i], levels[:, i], gen)
                     for i in range(len(coords)))

    def expand(i: int, levels: np.ndarray, gen: np.random.Generator):
        cycles = _levy_batch(coords[i], levels, gen)
        return cycles.lengths, cycles.at

    sampler = window_sampler(dep, restarts, expand, means,
                             (1,) * len(coords))
    return RegenModel((1,) * len(coords), means, generate, sampler, batch)


# ---------------------------------------------------------------------------
# clearing processes


@dataclass(frozen=True)
class ClearingCoordinate:
    """Content grows at ``drift`` plus compound-Poisson jumps and is cleared
    to zero after ``cycle_length`` time units."""

    cycle_length: MarginalSpec
    drift: float = 1.0
    jump_rate: float = 0.0
    jump_size: MarginalSpec | None = None

    def validate(self) -> "ClearingCoordinate":
        if not (self.drift >= 0.0 and math.isfinite(self.drift)):
            raise ConfigurationError("drift must be finite and >= 0")
        if not (self.jump_rate >= 0.0 and math.isfinite(self.jump_rate)):
            raise ConfigurationError("jump_rate must be finite and >= 0")
        if self.jump_rate > 0.0:
            if self.jump_size is None:
                raise ConfigurationError(
                    "jump_size is required when jump_rate > 0")
            self.jump_size.validate()
        if self.drift == 0.0 and self.jump_rate == 0.0:
            raise ConfigurationError(
                "content must grow: need drift > 0 or jump_rate > 0")
        self.cycle_length.validate()
        return self


@dataclass(frozen=True)
class ClearingSpec:
    coordinates: tuple[ClearingCoordinate, ...]
    dependence: DependenceSpec = field(
        default_factory=DependenceSpec.independent)

    def validate(self) -> "ClearingSpec":
        if not self.coordinates:
            raise ConfigurationError("at least one coordinate is required")
        for coord in self.coordinates:
            coord.validate()
        with error_path("dependence"):
            self.dependence.validate(len(self.coordinates))
        return self


def _subordinator_cycle(coord: ClearingCoordinate, cycle_len: float,
                        gen: np.random.Generator) -> CyclePath:
    if coord.jump_rate > 0.0:
        k = int(gen.poisson(coord.jump_rate * cycle_len))
        times = np.sort(gen.uniform(0.0, cycle_len, k))
        jumps = np.atleast_1d(coord.jump_size.sample(gen, k))
    else:
        times = np.empty(0)
        jumps = np.empty(0)
    breaks = np.concatenate([[0.0], times, [cycle_len]])
    n_seg = len(breaks) - 1
    values = np.empty(n_seg)
    values[0] = 0.0
    for j in range(1, n_seg):
        values[j] = (values[j - 1]
                     + coord.drift * (breaks[j] - breaks[j - 1]) + jumps[j - 1])
    return CyclePath(breaks, values[:, None], np.full((n_seg, 1), coord.drift))


def _clearing_batch(coord: ClearingCoordinate, lengths: np.ndarray,
                    gen: np.random.Generator) -> CycleBatch:
    """One cycle of each length: a segment from 0 plus one per jump, with
    Poisson jump counts, uniform jump times sorted within their cycle and
    the content restarting from 0 in every cycle."""
    count = len(lengths)
    if coord.jump_rate > 0.0:
        jumps = gen.poisson(coord.jump_rate * lengths)
        owner = np.repeat(np.arange(count), jumps)
        times = gen.uniform(0.0, lengths[owner])
        times = times[np.lexsort((times, owner))]
        # sizes are i.i.d. and independent of the times: no reordering
        sizes = np.asarray(coord.jump_size.sample(gen, owner.size),
                           dtype=float)
    else:
        jumps = np.zeros(count, dtype=np.int64)
        times = sizes = np.empty(0)
    segs = jumps + 1
    offsets = np.cumsum(segs) - segs
    after_jump = np.ones(int(segs.sum()), dtype=bool)
    after_jump[offsets] = False
    starts = np.zeros(after_jump.size)
    starts[after_jump] = times
    added = np.zeros(after_jump.size)
    added[after_jump] = sizes
    # jump content so far in the cycle: a cumsum that restarts per cycle
    total = np.cumsum(added)
    values = coord.drift * starts + total - np.repeat(total[offsets], segs)
    return CycleBatch(starts, values[:, None],
                      np.full((after_jump.size, 1), coord.drift), offsets,
                      lengths)


def _compound_total(rate: float, jump: MarginalSpec, durations: np.ndarray,
                    gen: np.random.Generator) -> np.ndarray:
    """Sum of a compound-Poisson process over each duration, one draw per
    entry, vectorised per jump-size family."""
    counts = gen.poisson(rate * durations)
    if jump.kind == "deterministic":
        return counts * jump.value
    if jump.kind == "exponential":
        return gen.standard_gamma(counts.astype(float)) / jump.rate
    if jump.kind == "gamma":
        return gen.standard_gamma(counts * jump.shape) / jump.rate
    total = np.zeros(len(durations))
    for k in range(int(counts.max()) if len(counts) else 0):
        draws = np.asarray(jump.sample(gen, len(durations)))
        total += np.where(k < counts, draws, 0.0)
    return total


def build_clearing(spec: ClearingSpec) -> RegenModel:
    spec.validate()
    coords = spec.coordinates
    dep = spec.dependence
    _warn_arithmetic(
        [i for i, c in enumerate(coords)
         if effective_arithmetic(dep, c.cycle_length)], "clearing")
    marginals = tuple(c.cycle_length for c in coords)
    means = tuple(effective_cycle_mean(dep, sp) for sp in marginals)

    def generate(gen: np.random.Generator) -> tuple[CyclePath, ...]:
        lens = sample_cycle_vectors(dep, marginals, gen, 1)[0]
        return tuple(_subordinator_cycle(coords[i], float(lens[i]), gen)
                     for i in range(len(coords)))

    def batch(gen: np.random.Generator, count: int
              ) -> tuple[CycleBatch, ...]:
        lens = sample_cycle_vectors(dep, marginals, gen, count)
        return tuple(_clearing_batch(coords[i], lens[:, i], gen)
                     for i in range(len(coords)))

    def state(i: int, age: np.ndarray, length: np.ndarray,
              gen: np.random.Generator) -> np.ndarray:
        coord = coords[i]
        out = coord.drift * age
        if coord.jump_rate > 0.0:
            out = out + _compound_total(coord.jump_rate, coord.jump_size,
                                        age, gen)
        return out[:, None]

    sampler = _renewal_window(dep, marginals, state, means,
                              (1,) * len(coords))
    return RegenModel((1,) * len(coords), means, generate, sampler, batch)


# ---------------------------------------------------------------------------
# status updating


@dataclass(frozen=True)
class StatusSource:
    """A source updated at renewal times with i.i.d. marks; the state is
    (age, mark/capacity) and the source counts as updated while
    age > mark/capacity (strict)."""

    inter_update: MarginalSpec
    update_size: MarginalSpec
    capacity: float = 1.0

    def validate(self) -> "StatusSource":
        self.inter_update.validate()
        self.update_size.validate()
        if not (self.capacity > 0.0 and math.isfinite(self.capacity)):
            raise ConfigurationError("capacity must be positive and finite")
        return self


@dataclass(frozen=True)
class StatusSpec:
    sources: tuple[StatusSource, ...]
    dependence: DependenceSpec = field(
        default_factory=DependenceSpec.independent)

    def validate(self) -> "StatusSpec":
        if not self.sources:
            raise ConfigurationError("at least one source is required")
        for src in self.sources:
            src.validate()
        with error_path("dependence"):
            self.dependence.validate(len(self.sources))
        return self


def build_status(spec: StatusSpec) -> RegenModel:
    spec.validate()
    sources = spec.sources
    dep = spec.dependence
    _warn_arithmetic(
        [i for i, s in enumerate(sources)
         if effective_arithmetic(dep, s.inter_update)], "status")
    marginals = tuple(s.inter_update for s in sources)
    means = tuple(effective_cycle_mean(dep, sp) for sp in marginals)

    def generate(gen: np.random.Generator) -> tuple[CyclePath, ...]:
        lens = sample_cycle_vectors(dep, marginals, gen, 1)[0]
        paths = []
        for i, src in enumerate(sources):
            hurdle = src.update_size.sample(gen) / src.capacity
            paths.append(linear_path((0.0, hurdle), (1.0, 0.0),
                                     float(lens[i])))
        return tuple(paths)

    def batch(gen: np.random.Generator, count: int
              ) -> tuple[CycleBatch, ...]:
        lens = sample_cycle_vectors(dep, marginals, gen, count)
        out = []
        for i, src in enumerate(sources):
            hurdles = np.asarray(src.update_size.sample(gen, count),
                                 dtype=float) / src.capacity
            out.append(_linear_batch(
                np.column_stack([np.zeros(count), hurdles]), (1.0, 0.0),
                lens[:, i]))
        return tuple(out)

    def state(i: int, age: np.ndarray, length: np.ndarray,
              gen: np.random.Generator) -> np.ndarray:
        src = sources[i]
        marks = np.asarray(src.update_size.sample(gen, len(age)))
        return np.column_stack([age, marks / src.capacity])

    sampler = _renewal_window(dep, marginals, state, means,
                              (2,) * len(sources))
    return RegenModel((2,) * len(sources), means, generate, sampler, batch)


def _effective_equilibrium_tail(dep: DependenceSpec, marginal: MarginalSpec,
                                x: float) -> float:
    """Equilibrium tail of one coordinate's effective cycle law."""
    if dep.kind != "common_shock":
        return float(equilibrium_tail(marginal, x))
    # T = Z + R: mean_T * tail_e(x) = E (T - x)^+ = E_Z[ m_R(x - Z) ]
    shock = dep.shock
    mean_t = shock.mean() + marginal.mean()

    def excess(w: float) -> float:
        if w <= 0.0:
            return marginal.mean() - w
        return float(mean_excess(marginal, w))

    if shock.arithmetic:
        val = sum(w * excess(x - z) for z, w in shock.atoms())
    else:
        from scipy import integrate
        f = lambda z: excess(x - z) * float(shock.pdf(z))
        hi = shock.support_upper()
        if 0.0 < x < hi:
            # the integrand changes form at z = x
            val = (integrate.quad(f, 0.0, x, epsabs=1e-10, limit=200)[0]
                   + integrate.quad(f, x, hi, epsabs=1e-10, limit=200)[0])
        else:
            val = integrate.quad(f, 0.0, hi, epsabs=1e-10, limit=200)[0]
    return min(max(val / mean_t, 0.0), 1.0)


def _expected_equilibrium_tail(dep: DependenceSpec, inter: MarginalSpec,
                               mark: MarginalSpec, capacity: float) -> float:
    tail = lambda x: _effective_equilibrium_tail(dep, inter, x)
    if mark.arithmetic:
        return sum(w * tail(v / capacity) for v, w in mark.atoms())
    from scipy import integrate
    hi = mark.support_upper()
    lo = mark.lo if mark.kind == "shifted_uniform" else 0.0
    val, _ = integrate.quad(lambda y: tail(y / capacity) * float(mark.pdf(y)),
                            lo, hi, epsabs=1e-8, limit=400)
    return min(max(val, 0.0), 1.0)


def pi_closed_form(spec: StatusSpec) -> float:
    """Limiting probability that all sources are simultaneously updated at
    well-separated times: the product over sources of
    ``E[ bar F_e(Y / capacity) ]``."""
    spec.validate()
    out = 1.0
    for src in spec.sources:
        out *= _expected_equilibrium_tail(spec.dependence, src.inter_update,
                                          src.update_size, src.capacity)
    return out


# ---------------------------------------------------------------------------
# age / residual observables of a plain renewal process


@dataclass(frozen=True)
class AgeResidualSpec:
    """``copies`` coordinates driven by one shared renewal sequence; the
    state is (age, residual)."""

    cycle_length: MarginalSpec
    copies: int = 2

    def validate(self) -> "AgeResidualSpec":
        self.cycle_length.validate()
        if self.copies < 1:
            raise ConfigurationError("copies must be >= 1")
        return self


def build_age_residual(spec: AgeResidualSpec) -> RegenModel:
    spec.validate()
    _warn_arithmetic([0] if spec.cycle_length.arithmetic else [],
                     "age_residual")
    m = spec.copies
    marginals = (spec.cycle_length,) * m
    dep = DependenceSpec.comonotone()

    def generate(gen: np.random.Generator) -> tuple[CyclePath, ...]:
        t_len = spec.cycle_length.sample(gen)
        path = linear_path((0.0, t_len), (1.0, -1.0), t_len)
        return (path,) * m

    def batch(gen: np.random.Generator, count: int
              ) -> tuple[CycleBatch, ...]:
        lens = spec.cycle_length.sample(gen, count)
        shared = _linear_batch(np.column_stack([np.zeros(count), lens]),
                               (1.0, -1.0), lens)
        return (shared,) * m

    def state(i: int, age: np.ndarray, length: np.ndarray,
              gen: np.random.Generator) -> np.ndarray:
        return np.column_stack([age, length - age])

    means = (spec.cycle_length.mean(),) * m
    sampler = _renewal_window(dep, marginals, state, means, (2,) * m)
    return RegenModel((2,) * m, means, generate, sampler, batch)


# ---------------------------------------------------------------------------
# Jackson networks


@dataclass(frozen=True)
class JacksonSpec:
    """Open Jackson network with Poisson external arrivals, exponential
    single servers, and Markovian routing; row deficits of ``routing`` are
    exit probabilities. Coordinate ``i`` observes the queue length at
    station ``i``."""

    arrival_rates: tuple[float, ...]
    service_rates: tuple[float, ...]
    routing: tuple[tuple[float, ...], ...]

    def validate(self) -> "JacksonSpec":
        m = len(self.arrival_rates)
        if m < 1:
            raise ConfigurationError("at least one station is required")
        if len(self.service_rates) != m or len(self.routing) != m:
            raise ConfigurationError(
                "arrival_rates, service_rates, and routing disagree on the "
                "number of stations")
        for j, a in enumerate(self.arrival_rates):
            if not (a >= 0.0 and math.isfinite(a)):
                raise ConfigurationError(
                    f"arrival rate of station {j} must be finite and >= 0")
        for j, s in enumerate(self.service_rates):
            if not (s > 0.0 and math.isfinite(s)):
                raise ConfigurationError(
                    f"service rate of station {j} must be positive")
        for j, row in enumerate(self.routing):
            if len(row) != m:
                raise ConfigurationError(f"routing row {j} has wrong length")
            if any(not (0.0 <= p <= 1.0) for p in row):
                raise ConfigurationError(
                    f"routing row {j} must have entries in [0, 1]")
            if sum(row) > 1.0 + 1e-12:
                raise ConfigurationError(
                    f"routing row {j} sums to more than 1")
        if sum(self.arrival_rates) <= 0.0:
            raise ConfigurationError(
                "total external arrival rate must be positive; an empty "
                "network never regenerates through work")
        mat = np.asarray(self.routing, dtype=float)
        if len(mat) and np.abs(np.linalg.eigvals(mat)).max() >= 1.0 - 1e-12:
            raise ConfigurationError(
                "routing matrix must have spectral radius < 1 so every "
                "customer eventually leaves")
        lam = traffic_solve(self)
        for j in range(m):
            if lam[j] >= self.service_rates[j]:
                raise ConfigurationError(
                    f"station {j} is unstable: effective arrival rate "
                    f"{lam[j]:g} >= service rate {self.service_rates[j]:g}")
        return self


def traffic_solve(spec: JacksonSpec) -> np.ndarray:
    """Effective arrival rates: the solution of the traffic equations
    ``lam = a + P^T lam``."""
    mat = np.asarray(spec.routing, dtype=float)
    a = np.asarray(spec.arrival_rates, dtype=float)
    try:
        lam = np.linalg.solve(np.eye(len(a)) - mat.T, a)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"traffic equations are singular: {exc}")
    return lam


def jackson_utilizations(spec: JacksonSpec) -> np.ndarray:
    return traffic_solve(spec) / np.asarray(spec.service_rates, dtype=float)


def jackson_cycle_mean(spec: JacksonSpec) -> float:
    """Mean time between empty-system regenerations: by the renewal-reward
    identity applied to the empty state, ``1 / (total arrivals * P(empty))``
    with the product-form ``P(empty) = prod (1 - rho_j)``."""
    rho = jackson_utilizations(spec)
    return 1.0 / (sum(spec.arrival_rates) * float(np.prod(1.0 - rho)))


def _jackson_cycle(spec: JacksonSpec, gen: np.random.Generator
                   ) -> tuple[CyclePath, ...]:
    m = len(spec.arrival_rates)
    arrivals = np.asarray(spec.arrival_rates, dtype=float)
    services = np.asarray(spec.service_rates, dtype=float)
    routing = np.asarray(spec.routing, dtype=float)
    lam_ext = float(arrivals.sum())
    arr_cuts = np.cumsum(arrivals) / lam_ext
    route_cuts = np.cumsum(routing, axis=1)

    times = [0.0]
    rows = []
    x = np.zeros(m, dtype=np.int64)
    # idle stretch until the first external arrival
    rows.append(x.copy())
    t = gen.exponential(1.0 / lam_ext)
    times.append(t)
    x[int(np.searchsorted(arr_cuts, gen.random(), side="right"))] += 1
    while x.any():
        if len(times) > MAX_EVENTS_PER_CYCLE:
            raise BudgetExceededError(
                f"network cycle exceeded {MAX_EVENTS_PER_CYCLE} events")
        rows.append(x.copy())
        busy = x > 0
        rate = lam_ext + float(services[busy].sum())
        t += gen.exponential(1.0 / rate)
        u = gen.random() * rate
        if u < lam_ext:
            x[int(np.searchsorted(arr_cuts * lam_ext, u, side="right"))] += 1
        else:
            u -= lam_ext
            cuts = np.cumsum(services * busy)
            j = int(np.searchsorted(cuts, u, side="right"))
            j = min(j, m - 1)
            x[j] -= 1
            v = gen.random()
            k = int(np.searchsorted(route_cuts[j], v, side="right"))
            if k < m:
                x[k] += 1
        times.append(t)
    breaks = np.asarray(times)
    states = np.asarray(rows, dtype=float)
    zero = np.zeros((len(rows), 1))
    return tuple(CyclePath(breaks, states[:, i:i + 1], zero)
                 for i in range(m))


def _jackson_events(spec: JacksonSpec):
    """The network's transitions, uniformised at ``total`` = all arrival
    plus all service rates, and one step of the chain they drive.

    Event ``e`` moves one customer from station ``src[e]`` to ``dst[e]``;
    source ``m`` is the outside world, which never empties, and destination
    ``m`` is the exit. From an empty station an event is a self-loop.
    Returns ``(total, src, classify, fire)``. Each step's event is a
    function of its own uniform alone, so a block of steps is classified
    before any of them fires: ``classify(u)`` takes uniforms with one row
    per step and one column per chain and returns their event codes, the
    number of inner cut points ``<= u``, and int32 masks, ``masks[k, e]``
    being 1 in the columns where event ``e`` fires at step ``k``.
    ``fire(x, mask)`` steps the station-major state ``x`` (one row per
    station, one column per chain) in place by one step's masks. Each event
    adds its mask to its destination and takes it from its source, capped
    at the source's count, which for counts >= 0 is the mask where the
    source is nonempty; one event fires per column, so the masks are
    disjoint and the order of the updates does not matter. States are
    int32: a station holds at most as many customers as the chain has taken
    steps, which the event budget keeps far below 2^31."""
    m = len(spec.arrival_rates)
    services = np.asarray(spec.service_rates, dtype=float)
    routing = np.asarray(spec.routing, dtype=float)
    # row j of the service block routes station j to each station or out
    targets = np.column_stack([routing, 1.0 - routing.sum(axis=1)])
    src = np.concatenate([np.full(m, m), np.repeat(np.arange(m), m + 1)])
    dst = np.concatenate([np.arange(m), np.tile(np.arange(m + 1), m)])
    rate = np.concatenate([spec.arrival_rates,
                           (services[:, None] * targets).ravel()])
    keep = rate > 0.0
    src, dst = src[keep], dst[keep]
    total = float(sum(spec.arrival_rates) + services.sum())
    # inner cut points only: the last event takes the rest of [0, 1), so
    # no uniform falls past the table however the cumsum rounds
    cuts = np.cumsum(rate[keep])[:-1, None, None] / total
    code_type = np.min_scalar_type(len(cuts))
    # of the codes' own type, so the comparison runs without a cast
    events = np.arange(len(src), dtype=code_type)[:, None]
    # arrivals lead the table, then each station's service events, one
    # contiguous run per station; a self-loop leaves the state as it is
    arrivals = [(e, int(dst[e])) for e in np.flatnonzero(src == m)]
    services_by_source = [
        (j, [(e, int(dst[e])) for e in np.flatnonzero(src == j)
             if dst[e] != j])
        for j in range(m)]

    def classify(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        code = (u >= cuts).sum(axis=0, dtype=code_type)
        masks = np.empty((len(u), len(src), u.shape[1]), dtype=np.int32)
        np.equal(code[:, None], events, out=masks)
        return code, masks

    def fire(x: np.ndarray, mask: np.ndarray) -> None:
        for e, d in arrivals:
            x[d] += mask[e]
        for j, moves in services_by_source:
            held = x[j]
            for e, d in moves:
                moved = np.minimum(mask[e], held)
                held -= moved
                if d < m:
                    x[d] += moved

    return total, src, classify, fire


def _jackson_batch(spec: JacksonSpec, gen: np.random.Generator,
                   count: int) -> tuple[CycleBatch, ...]:
    """``count`` cycles of the uniformised chain of :func:`_jackson_events`
    run in lockstep with an exponential clock at its total rate. Each step
    draws the live cycles' clock increments, then one uniform per live
    cycle for its event, a one-step block. The first segment of every
    cycle is the idle stretch from 0, each step whose event has a nonempty
    source opens a segment, and a step that empties the network ends the
    cycle."""
    m = len(spec.arrival_rates)
    total, src, classify, fire = _jackson_events(spec)
    lengths = np.empty(count)
    live = np.arange(count)
    t = np.zeros(count)
    x = np.zeros((m, count), dtype=np.int32)
    rows, times, states = [live], [t], [x.T.copy()]
    for _ in range(MAX_EVENTS_PER_CYCLE):
        t = t + gen.exponential(1.0 / total, live.size)
        code, masks = classify(gen.random((1, live.size)))
        # a step changes its chain when its event's source is nonempty;
        # the outside, source m, never empties
        source = src[code[0]]
        changed = source == m
        inner = np.flatnonzero(~changed)
        changed[inner] = x[source[inner], inner] > 0
        fire(x, masks[0])
        busy = x.any(axis=0)
        opened = changed & busy
        rows.append(live[opened])
        times.append(t[opened])
        states.append(x[:, opened].T)
        done = changed & ~busy
        if done.any():
            lengths[live[done]] = t[done]
            go = ~done
            live, t, x = live[go], t[go], x[:, go]
            if not live.size:
                break
    else:
        raise BudgetExceededError(
            f"network cycle exceeded {MAX_EVENTS_PER_CYCLE} events")
    starts, values, offsets = _by_cycle(rows, times, states, count)
    values = values.astype(float)
    zero = np.zeros((len(starts), 1))
    return tuple(CycleBatch(starts, values[:, i:i + 1], zero, offsets,
                            lengths) for i in range(m))


def _make_jackson_sampler(spec: JacksonSpec):
    """Uniformisation without a clock: the state at time tau is the jump
    chain of :func:`_jackson_events` after N(tau) steps, where N is a
    Poisson process at the total rate independent of the chain. A chunk
    draws its step counts, then the chain's uniforms a block of steps at a
    time (``JACKSON_BLOCK`` uniforms at most, the same stream as one draw
    per step), and reads a (row, coordinate) pair at its step count.
    Before any chunk draws, a run is refused when a row's expected steps
    reach ``MAX_EVENTS_PER_CYCLE`` or its largest chunk's rows times those
    steps pass ``MAX_JACKSON_WORK``."""
    m = len(spec.arrival_rates)
    total, _, classify, fire = _jackson_events(spec)

    def chunk_states(gen: np.random.Generator, count: int,
                     taus: np.ndarray) -> list[np.ndarray]:
        # step counts at the sorted taus, as increments of one process
        order = np.argsort(taus, kind="stable")
        gaps = np.diff(taus[order], prepend=0.0)
        steps = np.empty((m, count), dtype=np.int64)
        steps[order] = np.cumsum(gen.poisson(total * gaps, (count, m)),
                                 axis=1).T
        x = np.zeros((m, count), dtype=np.int32)
        flat = x.reshape(-1)
        # visit the (coordinate, row) pairs in step order; the ones with no
        # step read the empty start
        due = np.argsort(steps, axis=None, kind="stable")
        ready = np.cumsum(np.bincount(steps.ravel())).tolist()
        out = np.zeros(m * count)
        last = len(ready) - 1
        block = max(1, JACKSON_BLOCK // count)
        for first in range(1, last + 1, block):
            _, masks = classify(
                gen.random((min(block, last + 1 - first), count)))
            for step, mask in enumerate(masks, first):
                fire(x, mask)
                lo, hi = ready[step - 1], ready[step]
                if hi > lo:
                    k = due[lo:hi]
                    out[k] = flat[k]
        return [column[:, None] for column in out.reshape(m, count)]

    chunked = chunked_sampler(chunk_states, JACKSON_CHUNK)

    def sampler(times: np.ndarray, n: int, seed: int,
                base_key: tuple[int, ...], threads: int) -> list[np.ndarray]:
        # refuse before any chunk draws; the first chunk is the largest
        steps_due = total * float(np.max(times))
        if steps_due >= MAX_EVENTS_PER_CYCLE:
            raise BudgetExceededError(
                f"network sampler would exceed {MAX_EVENTS_PER_CYCLE} events")
        rows = min(n, JACKSON_CHUNK)
        if rows * steps_due > MAX_JACKSON_WORK:
            raise BudgetExceededError(
                f"network sampler would exceed {MAX_JACKSON_WORK} row-steps"
                f" in a chunk of {rows} replications")
        return chunked(times, n, seed, base_key, threads)

    return sampler


def build_jackson(spec: JacksonSpec) -> RegenModel:
    spec.validate()
    m = len(spec.arrival_rates)
    mean = jackson_cycle_mean(spec)
    return RegenModel((1,) * m, (mean,) * m, partial(_jackson_cycle, spec),
                      _make_jackson_sampler(spec),
                      partial(_jackson_batch, spec))


# ---------------------------------------------------------------------------


# each model kind a scenario file names, and its spec
MODEL_KINDS = {"levy_queue": LevyQueueSpec, "clearing": ClearingSpec,
               "status": StatusSpec, "jackson": JacksonSpec,
               "age_residual": AgeResidualSpec}
ModelSpec = Union[tuple(MODEL_KINDS.values())]


def build_model(spec) -> RegenModel:
    if isinstance(spec, LevyQueueSpec):
        return build_levy_queue(spec)
    if isinstance(spec, ClearingSpec):
        return build_clearing(spec)
    if isinstance(spec, StatusSpec):
        return build_status(spec)
    if isinstance(spec, JacksonSpec):
        return build_jackson(spec)
    if isinstance(spec, AgeResidualSpec):
        return build_age_residual(spec)
    raise ConfigurationError(f"unknown model spec {type(spec).__name__}")
