"""Bundled model families, each exposed as a :class:`RegenModel`.

- storage/queue processes driven by negative drift, compound-Poisson input,
  and dependent restart levels drawn at each emptiness epoch
- clearing (growth-collapse) processes with dependent clearing times
- status-updating freshness indicators with dependent inter-update times
- open Jackson networks regenerating at empty-system epochs

Every family draws one coordinate's cycles natively in batches of flat
segment arrays (``cycle_batch(i, gen, count)``), which both stationary
routes integrate, and a ``window(gen, count, taus)``, one chunk of its
stationary-window sampler and the only reader of the coupling across
coordinates. In all but Jackson networks joint cycle ``n`` is driven by the
``n``-th i.i.d. vector of restart levels or cycle lengths, and the family
writes its within-cycle law once, as ``cycles(i, column, gen)``: coordinate
``i``'s entries turned into its :class:`CycleBatch`. :func:`_vector_batch`
makes the ``cycle_batch`` of it. The windows read one straddling cycle of
the vectors' sums per coordinate from :func:`engine.straddling_cycles`, at
levels in the laws' own time units, whatever the laws and coupling; its
kernels (a gamma-process bridge and a round kernel) are chosen there.
Renewal families build ``cycles`` for the straddling cycles alone and read
them at their ages (:func:`_renewal_window`); a Levy queue's window state
is its free path reflected at its infimum plus the residual restart level
there (:func:`_levy_window`), so no window draws a busy period. Jackson networks'
batch and window drive one step of uniformised transitions
(:func:`_jackson_events`): masked updates of a station-major state, one
16-bit random word per chain and step picking its event exactly (a word
that straddles a cut point draws a double to settle it), with a block of
words classified into event masks before its steps fire. The batch runs the
whole network, records station ``i`` alone and draws its clock and event
words step by step, a block of one step; the window has no clock, runs to
Poisson step counts at the total rate (its ``window_events``) and draws its
words a block of steps at a time, the same stream as one draw per step.
Every family also keeps a per-cycle generator (``cycle_generator``);
nothing in the package calls it, it is the oracle the tests cross-check the
batches and samplers against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Union

import numpy as np

from . import engine
from .errors import (ArithmeticCyclesWarning, BudgetExceededError,
                     ConfigurationError, error_path)
from .engine import (CycleBatch, CyclePath, RegenModel, linear_path,
                     straddling_cycles)
from .randomness import (DependenceSpec, MarginalSpec, effective_arithmetic,
                         effective_cycle_mean, sample_cycle_vectors)
from .renewal import equilibrium_tail, mean_excess

# most jump-time spacings one block of Levy free paths draws, unless the
# block is one replication: below engine.WINDOW_ELEMENTS, and small enough
# that a block's arrays stay in cache
FREE_PATH_BLOCK = 1 << 16
# most row-steps the Jackson sampler classifies at once, one 16-bit word each
JACKSON_BLOCK = 1 << 16
# rows per chunk of the Jackson sampler
JACKSON_CHUNK = 1 << 14
# the Jackson sampler's station-count types, narrowest first, with the
# largest count each holds, np.iinfo(t).max
JACKSON_COUNTS = ((np.int8, 127), (np.int16, 32_767),
                  (np.int32, 2_147_483_647))


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


def _vector_batch(dep: DependenceSpec, laws, cycles):
    """``cycle_batch`` of a family whose joint cycle ``n`` is driven by the
    ``n``-th i.i.d. vector drawn from ``laws`` under ``dep``. The whole
    vector is drawn, so coordinate ``i``'s entries keep their law under
    every coupling, and ``cycles(i, column, gen)`` turns those entries
    alone into coordinate ``i``'s :class:`CycleBatch`."""

    def batch(i: int, gen: np.random.Generator, count: int) -> CycleBatch:
        return cycles(i, sample_cycle_vectors(dep, laws, gen, count)[:, i],
                      gen)

    return batch


def _check_coupled(members, dependence: DependenceSpec, noun: str) -> None:
    """At least one member, each valid, and a dependence over them all."""
    if not members:
        raise ConfigurationError(f"at least one {noun} is required")
    for member in members:
        member.validate()
    with error_path("dependence"):
        dependence.validate(len(members))


def _check_jumps(rate: float, size: MarginalSpec | None) -> None:
    """A finite rate >= 0 of compound-Poisson jumps, with a valid size law
    when the rate is positive."""
    if not (rate >= 0.0 and math.isfinite(rate)):
        raise ConfigurationError("jump_rate must be finite and >= 0")
    if rate > 0.0:
        if size is None:
            raise ConfigurationError(
                "jump_size is required when jump_rate > 0")
        size.validate()


def _renewal_window(dep: DependenceSpec, marginals, cycles):
    """The ``window`` of a renewal-driven family: the drawn entries are the
    cycle lengths, coordinate ``i`` reads the cycle straddling ``tau_i``,
    the same in every row, from :func:`engine.straddling_cycles`, and
    ``cycles(i, lengths, gen)``, the family's own batch, draws that cycle
    and reads it at its age."""

    def window(gen: np.random.Generator, count: int,
               taus: np.ndarray) -> list[np.ndarray]:
        out = [None] * len(marginals)
        for i, lo, hi in straddling_cycles(gen, count, dep, marginals,
                                           taus[:, None]):
            length = hi - lo
            # the ends can round a hair past the level on either side
            age = np.clip(taus[i] - lo, 0.0, np.nextafter(length, 0.0))
            out[i] = cycles(i, length, gen).at(np.arange(count), age)
        return out

    return window


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
        _check_jumps(self.jump_rate, self.jump_size)
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
        _check_coupled(self.coordinates, self.dependence, "coordinate")
        for k, coord in enumerate(self.coordinates):
            if coord.load() >= 1.0:
                raise ConfigurationError(
                    f"coordinate {k} is unstable: jump_rate * mean jump size "
                    f"= {coord.load():g} >= 1")
        return self


def _levy_cycle(coord: LevyQueueCoordinate, start_level: float,
                gen: np.random.Generator) -> CyclePath:
    breaks = [0.0]
    values = [start_level]
    level = start_level
    t = 0.0
    lam = coord.jump_rate
    for _ in range(engine.DEFAULT_CYCLE_BUDGET):
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
        f"storage cycle exceeded {engine.DEFAULT_CYCLE_BUDGET} jumps")


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
    for _ in range(engine.DEFAULT_CYCLE_BUDGET):
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
            f"storage cycle exceeded {engine.DEFAULT_CYCLE_BUDGET} jumps")
    starts, values, offsets = _by_cycle(rows, times, levels, count)
    values = values[:, None]
    return CycleBatch(starts, values, np.full_like(values, -1.0), offsets,
                      lengths)


def _free_paths(coord: LevyQueueCoordinate, tau: float, count: int,
                gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``count`` free paths Y(s) of one coordinate, its jumps up to ``s``
    minus ``s``, to time ``tau``: each row's depth D = -inf_{s<=tau} Y(s)
    and its reflected end Y(tau) + D. Every row draws its Poisson jump
    count first; :func:`_reflected_walks` then draws the rest a block of
    consecutive rows at a time, each block's N + 1 spacings per row
    summing to at most ``FREE_PATH_BLOCK`` unless the block is one row.
    The blocks depend on the counts alone, never on the thread count."""
    if coord.jump_rate == 0.0:
        return np.full(count, tau), np.zeros(count)
    jumps = gen.poisson(coord.jump_rate * tau, count)
    ends = np.cumsum(jumps + 1)
    depth = np.empty(count)
    lifted = np.empty(count)
    lo = 0
    while lo < count:
        cap = (ends[lo - 1] if lo else 0) + FREE_PATH_BLOCK
        hi = max(int(np.searchsorted(ends, cap, side="right")), lo + 1)
        depth[lo:hi], lifted[lo:hi] = _reflected_walks(coord, tau,
                                                       jumps[lo:hi], gen)
        lo = hi
    return depth, lifted


def _reflected_walks(coord: LevyQueueCoordinate, tau: float,
                     jumps: np.ndarray, gen: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Depth and reflected end of free paths with ``jumps`` jumps by
    ``tau``. Given its count N, a row's jump times are uniform order
    statistics on [0, tau], drawn without a sort as the partial sums of
    N + 1 exponential spacings scaled to sum to ``tau``. The infimum of Y is
    reached just before a jump or at ``tau``, so D is the largest of
    t_k - S_{k-1}, k = 1..N+1, with S the jump sizes so far and t_{N+1} =
    ``tau``: the walk of steps ``tau * E_k / sum E - X_{k-1}`` (X_0 = 0),
    which ends at -Y(tau). Sizes are drawn for every step and the first of
    each row's is dropped, which costs one draw per row and spares a
    masked update of every step."""
    segs = jumps + 1
    offsets = np.cumsum(segs) - segs
    steps = gen.standard_exponential(int(segs.sum()))
    steps *= np.repeat(tau / np.add.reduceat(steps, offsets), segs)
    sizes = np.asarray(coord.jump_size.sample(gen, steps.size), dtype=float)
    sizes[offsets] = 0.0
    steps -= sizes
    # one cumsum over every row: a row's walk is its stretch less the sum
    # before it, and offsets[0] - 1 reads the end, replaced by 0
    walk = np.cumsum(steps, out=steps)
    before = walk[offsets - 1]
    before[0] = 0.0
    top = np.maximum.reduceat(walk, offsets)
    return top - before, top - walk[offsets + jumps]


def _levy_window(coords, dep: DependenceSpec, restarts):
    """The ``window`` of Levy queues with restart levels drawn from
    ``restarts`` under ``dep``, drawing no busy period.

    With Y_i coordinate i's free process and G^i_n = U^i_1 + ... + U^i_n
    the sums of its restart levels, the workload at tau is
    W_i = (G^i_n - D_i) + (Y_i(tau) + D_i), with D_i = -inf_{s<=tau}
    Y_i(s) and n the first index with G^i_n > D_i: the residual of the
    restart-level process at level D_i plus the free process reflected at
    its infimum, the Fuhrmann-Cooper decomposition at a finite time
    (Fuhrmann & Cooper, 1985). The Y_i are independent and the coupling
    enters only through G, so each chunk draws every coordinate's free
    paths (:func:`_free_paths`), then the straddling cycles of G at the
    depths D_i (:func:`engine.straddling_cycles`), on every coupling."""

    def window(gen: np.random.Generator, count: int,
               taus: np.ndarray) -> list[np.ndarray]:
        depth = np.empty((len(coords), count))
        out = np.empty((len(coords), count))
        for i, coord in enumerate(coords):
            depth[i], out[i] = _free_paths(coord, float(taus[i]), count, gen)
        for i, _, hi in straddling_cycles(gen, count, dep, restarts, depth):
            out[i] += hi - depth[i]
        return [row[:, None] for row in out]

    return window


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

    def cycles(i: int, levels: np.ndarray, gen: np.random.Generator
               ) -> CycleBatch:
        return _levy_batch(coords[i], levels, gen)

    # each coordinate draws its own free path, so their jumps add up
    jump_rates = np.array([c.jump_rate for c in coords])
    return RegenModel((1,) * len(coords), means, generate,
                      _levy_window(coords, dep, restarts),
                      _vector_batch(dep, restarts, cycles),
                      lambda taus: float(jump_rates @ taus))


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
        _check_jumps(self.jump_rate, self.jump_size)
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
        _check_coupled(self.coordinates, self.dependence, "coordinate")
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

    def cycles(i: int, lengths: np.ndarray, gen: np.random.Generator
               ) -> CycleBatch:
        return _clearing_batch(coords[i], lengths, gen)

    return RegenModel((1,) * len(coords), means, generate,
                      _renewal_window(dep, marginals, cycles),
                      _vector_batch(dep, marginals, cycles))


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
        _check_coupled(self.sources, self.dependence, "source")
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

    def cycles(i: int, lengths: np.ndarray, gen: np.random.Generator
               ) -> CycleBatch:
        src = sources[i]
        hurdles = np.asarray(src.update_size.sample(gen, len(lengths)),
                             dtype=float) / src.capacity
        return _linear_batch(
            np.column_stack([np.zeros(len(lengths)), hurdles]), (1.0, 0.0),
            lengths)

    return RegenModel((2,) * len(sources), means, generate,
                      _renewal_window(dep, marginals, cycles),
                      _vector_batch(dep, marginals, cycles))


def _expect(law: MarginalSpec, h, split: float | None = None) -> float:
    """``E h(Y)`` for ``Y ~ law``: a sum over the atoms of an arithmetic law,
    else adaptive quadrature of ``h * pdf`` over the support, cut at
    ``split`` when that lies inside it (``h`` changes form there)."""
    if law.arithmetic:
        return sum(w * h(y) for y, w in law.atoms())
    from scipy import integrate
    lo = law.lo if law.kind == "shifted_uniform" else 0.0
    hi = law.support_upper()
    cuts = [lo, hi]
    if split is not None and lo < split < hi:
        cuts.insert(1, split)
    f = lambda y: h(y) * float(law.pdf(y))
    return sum(integrate.quad(f, a, b, epsabs=1e-10, limit=200)[0]
               for a, b in zip(cuts, cuts[1:]))


def _effective_equilibrium_tail(dep: DependenceSpec, marginal: MarginalSpec,
                                x: float) -> float:
    """Equilibrium tail of one coordinate's effective cycle law."""
    if dep.kind != "common_shock":
        return float(equilibrium_tail(marginal, x))
    # T = Z + R: mean_T * tail_e(x) = E (T - x)^+ = E_Z[ m_R(x - Z) ]
    shock = dep.shock
    val = _expect(shock, lambda z: mean_excess(marginal, x - z), split=x)
    return min(max(val / (shock.mean() + marginal.mean()), 0.0), 1.0)


def pi_closed_form(spec: StatusSpec) -> float:
    """Limiting probability that all sources are simultaneously updated at
    well-separated times: the product over sources of
    ``E[ bar F_e(Y / capacity) ]``."""
    spec.validate()
    dep = spec.dependence
    out = 1.0
    for src in spec.sources:
        val = _expect(src.update_size, lambda y: _effective_equilibrium_tail(
            dep, src.inter_update, y / src.capacity))
        out *= min(max(val, 0.0), 1.0)
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

    def cycles(i: int, lengths: np.ndarray, gen: np.random.Generator
               ) -> CycleBatch:
        return _linear_batch(
            np.column_stack([np.zeros(len(lengths)), lengths]), (1.0, -1.0),
            lengths)

    means = (spec.cycle_length.mean(),) * m
    return RegenModel((2,) * m, means, generate,
                      _renewal_window(dep, marginals, cycles),
                      _vector_batch(dep, marginals, cycles))


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
        if len(times) > engine.DEFAULT_CYCLE_BUDGET:
            raise BudgetExceededError(
                f"network cycle exceeded {engine.DEFAULT_CYCLE_BUDGET} events")
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


def _jackson_words(gen: np.random.Generator, steps: int,
                   count: int) -> np.ndarray:
    """One 16-bit word per row-step, shape ``(steps, count)``: each step
    takes ``ceil(count / 4)`` raw 64-bit words of ``gen``'s bit generator,
    read as little-endian 16-bit words of which the first ``count`` are
    kept, so a step uses the same stretch of the stream in any block."""
    raw = gen.bit_generator.random_raw((steps, -(-count // 4)))
    return raw.astype("<u8", copy=False).view("<u2")[:, :count]


def _jackson_events(spec: JacksonSpec):
    """The network's transitions, uniformised at ``total`` = all arrival
    plus all service rates, and one step of the chain they drive.

    Event ``e`` moves one customer from station ``src[e]`` to ``dst[e]``;
    source ``m`` is the outside world, which never empties, and destination
    ``m`` is the exit. From an empty station an event is a self-loop.
    Returns ``(total, src, classify, fire)``. Each step's event is a
    function of its own word alone, so a block of steps is classified
    before any of them fires: ``classify(h, refine, dtype)`` takes the
    16-bit words of :func:`_jackson_words`, one row per step and one column
    per chain, and returns their event codes and masks of the state's
    integer type ``dtype`` (``np.int8``, ``np.int16`` or ``np.int32``),
    ``masks[k, e]`` being 1 in the columns where event ``e`` fires at step
    ``k``. A word
    ``h`` stands for the uniform ``(h + U) / 2^16`` with ``U`` uniform on
    [0, 1), and its code is the number of scaled cut points ``s`` (the
    inner cut points times 2^16, which is exact) at or below ``h + U``.
    That is the number of ``s <= h`` unless ``h`` is the floor of a
    fractional ``s``, about one word in 65536 per cut point; only those
    words draw their ``U``, from ``refine``, in (step, column) order, so
    the law is that of one double uniform per step and the stream does not
    depend on block edges.
    ``fire(x, mask)`` steps the station-major state ``x`` (one row per
    station, one column per chain) in place by one step's masks. Each event
    adds its mask to its destination and takes it from its source, capped
    at the source's count, which for counts >= 0 is the mask where the
    source is nonempty; one event fires per column, so the masks are
    disjoint and the order of the updates does not matter. State and masks
    share one signed integer type, so no update casts; a step adds at most
    one customer to a station, so a station holds at most as many
    customers as the chain has taken steps, which the event budget keeps
    far below 2^31."""
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
    # no word falls past the table however the cumsum rounds
    scaled = np.cumsum(rate[keep])[:-1] / total * 65536.0
    # h >= ceil(s), as h > ceil(s) - 1 so the bounds fit the words' type
    below = (np.ceil(scaled) - 1.0).astype(np.uint16)[:, None, None]
    # words that straddle a fractional cut point need their U
    floors = np.floor(scaled)
    straddled = floors[floors < scaled].astype(np.uint16)[:, None, None]
    code_type = np.min_scalar_type(len(scaled))
    # of the codes' own type, so the comparison runs without a cast
    events = np.arange(len(src), dtype=code_type)[:, None]
    # arrivals lead the table, then each station's service events, one
    # contiguous run per station; a self-loop leaves the state as it is
    arrivals = [(e, int(dst[e])) for e in np.flatnonzero(src == m)]
    services_by_source = [
        (j, [(e, int(dst[e])) for e in np.flatnonzero(src == j)
             if dst[e] != j])
        for j in range(m)]

    def classify(h: np.ndarray, refine: np.random.Generator,
                 dtype: type) -> tuple[np.ndarray, np.ndarray]:
        # summed as bytes, which numpy adds without a cast from bool
        code = (h > below).view(np.uint8).sum(axis=0, dtype=code_type)
        if straddled.size:
            # one mask, so the U are drawn in (step, column) order
            hit = np.logical_or.reduce(h == straddled, axis=0)
            at = np.flatnonzero(hit)
            if at.size:
                k, j = np.divmod(at, h.shape[1])
                code[k, j] = np.searchsorted(
                    scaled, h[k, j] + refine.random(at.size), side="right")
        # a bool is one byte holding 0 or 1, so int8 masks are written as
        # bools, which np.equal stores without a cast
        byte = dtype is np.int8
        masks = np.empty((len(h), len(src), h.shape[1]),
                         dtype=np.bool_ if byte else dtype)
        np.equal(code[:, None], events, out=masks)
        return code, masks.view(np.int8) if byte else masks

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


def _jackson_batch(spec: JacksonSpec, i: int, gen: np.random.Generator,
                   count: int) -> CycleBatch:
    """Station ``i``'s view of ``count`` cycles of the uniformised chain of
    :func:`_jackson_events`, run in lockstep with an exponential clock at
    its total rate. Each step draws the live cycles' clock increments, then
    one word per live cycle for its event, a one-step block. The first
    segment of every cycle is the idle stretch from 0, each step whose
    event has a nonempty source opens a segment, and a step that empties
    the network ends the cycle. Straddling words refine from one stream
    spawned from ``gen`` per call."""
    m = len(spec.arrival_rates)
    total, src, classify, fire = _jackson_events(spec)
    refine = gen.spawn(1)[0]
    lengths = np.empty(count)
    live = np.arange(count)
    t = np.zeros(count)
    x = np.zeros((m, count), dtype=np.int32)
    rows, times, states = [live], [t], [x[i].copy()]
    for _ in range(engine.DEFAULT_CYCLE_BUDGET):
        t = t + gen.exponential(1.0 / total, live.size)
        code, masks = classify(_jackson_words(gen, 1, live.size), refine,
                               np.int32)
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
        states.append(x[i, opened])
        done = changed & ~busy
        if done.any():
            lengths[live[done]] = t[done]
            go = ~done
            live, t, x = live[go], t[go], x[:, go]
            if not live.size:
                break
    else:
        raise BudgetExceededError(
            f"network cycle exceeded {engine.DEFAULT_CYCLE_BUDGET} events")
    starts, values, offsets = _by_cycle(rows, times, states, count)
    values = values.astype(float)[:, None]
    return CycleBatch(starts, values, np.zeros_like(values), offsets, lengths)


def _jackson_window(spec: JacksonSpec):
    """``(total, window)``: the uniformised total rate and the ``window``
    of a Jackson network, uniformisation without a clock. The state at
    time tau is the jump chain of :func:`_jackson_events` after N(tau)
    steps, where N is a Poisson process at the total rate independent of
    the chain. A chunk draws its step counts, then the chain's words a
    block of steps at a time (``JACKSON_BLOCK`` row-steps at most, the
    same stream as one draw per step, with straddling words refined from
    one stream spawned from the chunk's generator), and reads a (row,
    coordinate) pair at its step count.
    Counts start as int8, the narrowest type of ``JACKSON_COUNTS``. A step
    adds at most one customer to a station, so a block of ``size`` steps
    cannot overflow while the largest count plus ``size`` fits the type.
    A running bound, raised by each block's size, stands in for the
    largest count; when it passes the type's largest value it is reset to
    the largest count plus the block's size, and if that does not fit
    either, the state is widened, before the block, to the narrowest type
    that fits. Integer updates are exact in every type, so the states and
    outputs are those of int32 counts."""
    m = len(spec.arrival_rates)
    total, _, classify, fire = _jackson_events(spec)

    def window(gen: np.random.Generator, count: int,
               taus: np.ndarray) -> list[np.ndarray]:
        # step counts at the sorted taus, as increments of one process
        order = np.argsort(taus, kind="stable")
        gaps = np.diff(taus[order], prepend=0.0)
        # drawn (count, m), the stream's order, and summed one contiguous
        # coordinate row at a time
        counts = gen.poisson(total * gaps, (count, m)).T.copy()
        for i in range(1, m):
            counts[i] += counts[i - 1]
        steps = np.empty_like(counts)
        steps[order] = counts
        dtype, top = JACKSON_COUNTS[0]
        x = np.zeros((m, count), dtype=dtype)
        flat = x.reshape(-1)
        # an upper bound on every count in x, raised by each block
        bound = 0
        refine = gen.spawn(1)[0]
        # visit the (coordinate, row) pairs in step order; the ones with no
        # step read the empty start
        due = np.argsort(steps, axis=None, kind="stable")
        ready = np.cumsum(np.bincount(steps.ravel())).tolist()
        out = np.zeros(m * count)
        last = len(ready) - 1
        block = max(1, JACKSON_BLOCK // count)
        for first in range(1, last + 1, block):
            size = min(block, last + 1 - first)
            # a step adds at most one customer to a station
            bound += size
            if bound > top:
                bound = int(x.max()) + size
                if bound > top:
                    dtype, top = next(c for c in JACKSON_COUNTS
                                      if c[1] >= bound)
                    x = x.astype(dtype)
                    flat = x.reshape(-1)
            words = _jackson_words(gen, size, count)
            _, masks = classify(words, refine, dtype)
            for step, mask in enumerate(masks, first):
                fire(x, mask)
                lo, hi = ready[step - 1], ready[step]
                if hi > lo:
                    k = due[lo:hi]
                    out[k] = flat[k]
        return [column[:, None] for column in out.reshape(m, count)]

    return total, window


def build_jackson(spec: JacksonSpec) -> RegenModel:
    spec.validate()
    m = len(spec.arrival_rates)
    mean = jackson_cycle_mean(spec)
    total, window = _jackson_window(spec)
    # the window steps one chain of the whole network to the latest time
    return RegenModel((1,) * m, (mean,) * m, partial(_jackson_cycle, spec),
                      window, partial(_jackson_batch, spec),
                      lambda taus: total * float(np.max(taus)), JACKSON_CHUNK)


# ---------------------------------------------------------------------------


# each model kind a scenario file names, and its spec
MODEL_KINDS = {"levy_queue": LevyQueueSpec, "clearing": ClearingSpec,
               "status": StatusSpec, "jackson": JacksonSpec,
               "age_residual": AgeResidualSpec}
ModelSpec = Union[tuple(MODEL_KINDS.values())]
_BUILDERS = {LevyQueueSpec: build_levy_queue, ClearingSpec: build_clearing,
             StatusSpec: build_status, JacksonSpec: build_jackson,
             AgeResidualSpec: build_age_residual}


def build_model(spec) -> RegenModel:
    builder = _BUILDERS.get(type(spec))
    if builder is None:
        raise ConfigurationError(f"unknown model spec {type(spec).__name__}")
    return builder(spec)
