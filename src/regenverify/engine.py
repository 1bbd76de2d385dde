"""Generic regenerative-process engine.

A model draws joint cycles: per-coordinate piecewise-affine paths whose
lengths may be dependent across coordinates but are i.i.d. across cycles.
On top of that the engine provides exact integrals of test functions of one
state component (:class:`StateFunction`, which is also a scenario's
``run.g``), a cycle-ratio estimator, a long-run time-average estimator, and
stationary state sampling. Both stationary routes draw cycles in blocks of
flat segment arrays (:class:`CycleBatch`) and integrate them in closed form;
the cycle route folds each block into :class:`Moments`, so its memory does
not depend on the number of cycles. A model's ``window`` reads each
coordinate in its straddling cycle, which :func:`straddling_cycles` alone
draws, in the laws' own time units, by one visit rule for every gamma
process it reads; only :func:`sample_states` runs it, on chunks of
replications, once :func:`require_window_budget` admits them.
"""

from __future__ import annotations

import functools
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigurationError
from .randomness import (as_generator, effective_cycle_mean,
                         sample_cycle_vectors, substream)

DEFAULT_CYCLE_BUDGET = 10_000_000
TIME_AVERAGE_BATCHES = 32

# cycles per block in the stationary routes; fixed so peak memory and the
# draw order do not depend on the run length or the thread count
BATCH_CYCLES = 4096

# replications per chunk of the window sampler, and the most entries (rows
# x cycles x coordinates) one of its rounds draws; fixed for the same reasons
WINDOW_CHUNK = 4096
WINDOW_ELEMENTS = 1 << 20
# most row-events (rows times the events each expects) one window chunk may
# draw, for a model that counts its window events
MAX_WINDOW_WORK = 10_000_000_000
# cycles past the expected count that the bisecting bridge's first block
# sum spans, in square roots of that count; integer shapes draw no block sum
BRIDGE_SPREAD = 4.0


def thread_count() -> int:
    """Worker count: REGEN_VERIFY_THREADS, or 1. Thread count never changes
    sampled values, only wall time."""
    raw = os.environ.get("REGEN_VERIFY_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_chunked(total: int, chunk_size: int, work, threads: int = 1):
    """Yield ``work(count, chunk_index)`` over fixed-size chunks in chunk
    order. Chunk boundaries depend only on ``total`` and ``chunk_size``, so
    outputs are identical for any thread count."""
    jobs = [(min(chunk_size, total - start), k)
            for k, start in enumerate(range(0, total, chunk_size))]
    if threads <= 1 or len(jobs) <= 1:
        yield from (work(*job) for job in jobs)
        return
    # imported here: concurrent.futures loads logging, which a one-thread
    # run would pay for at startup and never use
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda job: work(*job), jobs)


@dataclass(frozen=True)
class Moments:
    """The package's one reduction of samples: for ``k`` rows, the count,
    each row's sum, min and max, and the co-moments about the means.
    :meth:`of` reads one block, one column per observation, and
    :meth:`merge` adds another by the pairwise update of Chan, Golub &
    LeVeque (1983). Means are sums over the count, so 0/1 rows give exact
    means however the blocks fall."""

    count: int
    sums: np.ndarray
    comoment: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, rows) -> "Moments":
        rows = np.asarray(rows, dtype=float)
        sums = rows.sum(axis=1)
        dev = rows - (sums / rows.shape[1])[:, None]
        # summed along each row, so equal rows give equal entries bit for
        # bit, which a BLAS product does not promise
        comoment = (dev[:, None, :] * dev[None, :, :]).sum(axis=2)
        return cls(rows.shape[1], sums, comoment, rows.min(axis=1),
                   rows.max(axis=1))

    @property
    def mean(self) -> np.ndarray:
        return self.sums / self.count

    def merge(self, other: "Moments") -> "Moments":
        count = self.count + other.count
        delta = other.mean - self.mean
        comoment = (self.comoment + other.comoment + np.outer(delta, delta)
                    * (self.count * other.count / count))
        return Moments(count, self.sums + other.sums, comoment,
                       np.minimum(self.lo, other.lo),
                       np.maximum(self.hi, other.hi))


@dataclass(frozen=True, eq=False)
class CyclePath:
    """One cycle of one coordinate: a right-continuous piecewise-affine path.

    ``breaks`` has k+1 entries ``0 = b_0 < ... < b_k = length``; segment j
    starts at ``values[j]`` and moves with constant ``slopes[j]`` on
    ``[b_j, b_{j+1})``. Jumps are encoded by discontinuities between the end
    of one segment and the start of the next.
    """

    breaks: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if s.ndim == 1:
            s = s[:, None]
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slopes", s)
        if len(b) < 2 or b[0] != 0.0:
            raise ValueError("breaks must start at 0 and contain a cycle end")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("breaks must be strictly increasing")
        if v.shape != (len(b) - 1, v.shape[1]) or s.shape != v.shape:
            raise ValueError("values and slopes must be (segments, dim)")

    @property
    def length(self) -> float:
        return float(self.breaks[-1])

    def at(self, s: float) -> np.ndarray:
        """State at elapsed cycle time ``s`` in [0, length)."""
        if not 0.0 <= s < self.length:
            raise ValueError(f"s={s} outside [0, {self.length})")
        j = bisect_right(self.breaks, s) - 1
        return self.values[j] + self.slopes[j] * (s - self.breaks[j])


@dataclass(frozen=True, eq=False)
class CycleBatch:
    """``count`` cycles of one coordinate as flat segment arrays.

    Segment ``j`` starts ``starts[j]`` time units into its cycle at state
    ``values[j]`` and moves with ``slopes[j]`` until the next segment of the
    same cycle starts or the cycle ends. Cycle ``k`` owns the segments from
    ``offsets[k]`` up to the next cycle's offset, starts with a segment at
    0 and lasts ``lengths[k]``.
    """

    starts: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lengths)

    def cycle_index(self) -> np.ndarray:
        """The cycle each segment belongs to."""
        counts = np.diff(np.append(self.offsets, len(self.starts)))
        return np.repeat(np.arange(self.count), counts)

    def segment_lengths(self) -> np.ndarray:
        ends = np.append(self.starts[1:], 0.0)
        ends[self.offsets[1:] - 1] = self.lengths[:-1]
        ends[-1] = self.lengths[-1]
        return ends - self.starts

    def at(self, k: np.ndarray, s: np.ndarray) -> np.ndarray:
        """State of each selected cycle ``k[j]`` at elapsed time ``s[j]`` in
        [0, lengths[k[j]]), reading only the selected cycles' segments."""
        first = self.offsets[k]
        counts = np.append(self.offsets[1:], len(self.starts))[k] - first
        head = np.cumsum(counts) - counts
        seg = np.repeat(first - head, counts) + np.arange(int(counts.sum()))
        reached = (self.starts[seg] <= np.repeat(s, counts)).astype(np.int64)
        j = first + np.add.reduceat(reached, head) - 1
        return self.values[j] + self.slopes[j] * (s - self.starts[j])[:, None]

    def integrals(self, gs: Sequence[StateFunction]) -> np.ndarray:
        """Each cycle's exact ``int_0^T g(X(s)) ds``, as one row per ``g``
        and one column per cycle."""
        seg = self.segment_lengths()
        return np.array([np.add.reduceat(
            g.segment_integrals(self.values, self.slopes, seg), self.offsets)
            for g in gs])


def linear_path(start, slope, length: float) -> CyclePath:
    v = np.atleast_1d(np.asarray(start, dtype=float))
    s = np.atleast_1d(np.asarray(slope, dtype=float))
    return CyclePath(np.array([0.0, length]), v[None, :], s[None, :])


# test-function kinds as a scenario's run.g section names them
STATE_FUNCTION_KINDS = ("identity", "indicator", "exponential")


@dataclass(frozen=True)
class StateFunction:
    """A bounded test function of one state component ``x = x[component]``,
    and a scenario's ``run.g`` section. The constructors below validate it;
    a component past the state raises IndexError.

    - ``identity``: x
    - ``indicator``: 1{x <= threshold}
    - ``exponential``: exp(-x)

    Because paths are piecewise affine, every kind integrates exactly along a
    segment; no quadrature error enters cycle functionals for these.
    """

    kind: str
    threshold: float | None = None
    component: int = 0

    def validate(self) -> "StateFunction":
        if self.kind == "indicator" and self.threshold is None:
            raise ConfigurationError("missing required field", "threshold")
        if self.component < 0:
            raise ConfigurationError("component must be >= 0", "component")
        return self

    def label(self) -> str:
        x = f"1*x{self.component}"
        if self.kind == "indicator":
            return f"1{{{x} <= {self.threshold:g}}}"
        if self.kind == "exponential":
            return f"exp(-({x}))"
        return x

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = x[..., self.component]
        if self.kind == "identity":
            out = a
        elif self.kind == "indicator":
            out = (a <= self.threshold).astype(float)
        elif self.kind == "exponential":
            out = np.exp(-a)
        else:
            raise ValueError(f"unknown state function kind {self.kind!r}")
        return float(out) if x.ndim == 1 else out

    def segment_integrals(self, values: np.ndarray, slopes: np.ndarray,
                          lengths: np.ndarray) -> np.ndarray:
        """Exact ``int_0^lengths[j] f(values[j] + u * slopes[j]) du`` for
        every row ``j`` of (segments, dim) arrays; rows of length <= 0
        give 0."""
        lengths = np.asarray(lengths, dtype=float)
        a = values[:, self.component]
        b = slopes[:, self.component]
        flat = b == 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.kind == "identity":
                out = a * lengths + 0.5 * b * lengths * lengths
            elif self.kind == "indicator":
                q = self.threshold
                cross = np.clip((q - a) / b, 0.0, lengths)
                out = np.where(flat, np.where(a <= q, lengths, 0.0),
                               np.where(b > 0.0, cross, lengths - cross))
            elif self.kind == "exponential":
                e = np.exp(-a)
                out = np.where(flat, e * lengths,
                               e * -np.expm1(-b * lengths) / b)
            else:
                raise ValueError(f"unknown state function kind {self.kind!r}")
        return np.where(lengths > 0.0, out, 0.0)


def identity(component: int = 0) -> StateFunction:
    return StateFunction("identity", component=component).validate()


def indicator_le(threshold: float, component: int = 0) -> StateFunction:
    return StateFunction("indicator", float(threshold), component).validate()


def exp_neg(component: int = 0) -> StateFunction:
    return StateFunction("exponential", component=component).validate()


def path_integral(path: CyclePath, g: StateFunction, lo: float = 0.0,
                  hi: float | None = None) -> float:
    """Exact ``int_lo^hi g(X(u)) du`` along one cycle path."""
    hi = path.length if hi is None else min(float(hi), path.length)
    lo = max(0.0, float(lo))
    if hi <= lo:
        return 0.0
    b = path.breaks
    s = np.maximum(b[:-1], lo)
    e = np.minimum(b[1:], hi)
    keep = e > s
    v0 = path.values[keep] + path.slopes[keep] * (s - b[:-1])[keep, None]
    return float(g.segment_integrals(v0, path.slopes[keep],
                                     (e - s)[keep]).sum())


@dataclass(frozen=True)
class RegenModel:
    """A joint regenerative model.

    ``cycle_batch(i, gen, count)`` draws ``count`` i.i.d. cycles of
    coordinate ``i`` as one :class:`CycleBatch`; both stationary routes
    read cycles only through it, one coordinate at a time, so it builds no
    other coordinate's cycles. ``window(gen, count, taus)`` draws one
    chunk of ``count`` i.i.d. stationary-window states, coordinate ``i`` at
    ``taus[i]``; the coupling across coordinates is read only there, and
    :func:`sample_states` alone runs it, on chunks of ``window_chunk``.
    ``cycle_generator(gen)`` draws one joint cycle as a tuple of per
    coordinate :class:`CyclePath`; it is the reference the test suite
    cross-checks the other two against. ``window_events(taus)``, when
    given, is the events (jumps, or uniformised steps) one replication of
    the window expects to draw at ``taus`` besides its cycles.
    """

    state_dims: tuple[int, ...]
    cycle_means: tuple[float, ...]
    cycle_generator: Callable[[np.random.Generator], tuple[CyclePath, ...]]
    window: Callable[[np.random.Generator, int, np.ndarray], list[np.ndarray]]
    cycle_batch: Callable[[int, np.random.Generator, int], CycleBatch]
    window_events: Callable[[np.ndarray], float] | None = None
    window_chunk: int = WINDOW_CHUNK

    @property
    def dimension(self) -> int:
        return len(self.cycle_means)


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float


def cycle_functionals(model: RegenModel, i: int, gs: Sequence, n_cycles: int,
                      rng) -> list[Estimate]:
    """Cycle-formula estimates ``E int_0^T g(X_i(s)) ds / E T``, one per
    ``g``, from one pass over ``n_cycles`` fresh cycles of coordinate ``i``.

    Each block of ``BATCH_CYCLES`` cycles becomes one matrix, the lengths
    then each ``g``'s per-cycle integrals, folded into one running
    :class:`Moments`; memory does not grow with ``n_cycles``. Every row gets
    the same arithmetic, so a reward equal to the length gives exactly 1
    with SE 0. The SE is the first-order delta-method SE of the ratio of
    means, from ``ddof=1`` co-moments.
    """
    gen = as_generator(rng)
    totals = None
    for lo in range(0, n_cycles, BATCH_CYCLES):
        batch = model.cycle_batch(i, gen, min(BATCH_CYCLES, n_cycles - lo))
        block = Moments.of(np.vstack([batch.lengths, batch.integrals(gs)]))
        totals = block if totals is None else totals.merge(block)
    count = totals.count
    mean = totals.mean
    cov = totals.comoment / (count - 1)
    mean_l = mean[0]
    out = []
    for j in range(1, len(mean)):
        if not math.isfinite(mean[j]):
            raise ValueError("cycle rewards are not finite")
        r = mean[j] / mean_l
        var = cov[j, j] - 2.0 * r * cov[j, 0] + r * r * cov[0, 0]
        var /= count * mean_l * mean_l
        out.append(Estimate(float(r), math.sqrt(max(float(var), 0.0))))
    return out


def renewal_reward_estimate(model: RegenModel, i: int, g, n_cycles: int,
                            rng) -> Estimate:
    """Stationary mean of ``g`` via the cycle formula
    ``E int_0^T g(X(s)) ds / E T`` (:func:`cycle_functionals`)."""
    if n_cycles < 100:
        raise ValueError("need at least 100 cycles")
    require_cycle_budget(n_cycles)
    return cycle_functionals(model, i, [g], n_cycles, rng)[0]


def require_cycle_budget(n_cycles: int) -> None:
    """Refuse a cycle route over more than ``DEFAULT_CYCLE_BUDGET`` cycles,
    before any is drawn."""
    if n_cycles > DEFAULT_CYCLE_BUDGET:
        raise BudgetExceededError(f"renewal-reward route asks for "
                                  f"{n_cycles} cycles, more than "
                                  f"{DEFAULT_CYCLE_BUDGET}")


def require_horizon(model: RegenModel, i: int, horizon: float) -> None:
    """Reject a time-average horizon shorter than 100 mean cycles."""
    mu = model.cycle_means[i]
    if not horizon >= 100.0 * mu:
        raise ValueError(f"horizon must cover at least 100 mean cycles "
                         f"({100.0 * mu:g})")


def time_average_estimate(model: RegenModel, i: int, g, horizon: float,
                          rng) -> Estimate:
    """Pathwise time average ``horizon^{-1} int_0^horizon g(X_i(s)) ds``
    from a single long run, with a batch-means SE."""
    require_horizon(model, i, horizon)
    mu = model.cycle_means[i]
    n_batches = TIME_AVERAGE_BATCHES
    max_cycles = DEFAULT_CYCLE_BUDGET
    gen = as_generator(rng)
    edges = np.linspace(0.0, horizon, n_batches + 1)
    batches = np.zeros(n_batches)
    # two-term exact sums of each block's pieces, summed once at the end
    partials: list[float] = []
    start = 0.0
    comp = 0.0
    drawn = 0
    while start < horizon:
        if drawn >= max_cycles:
            raise BudgetExceededError(
                f"time average exceeded {max_cycles} cycles")
        # size the block by the cycles still expected, so short horizons
        # do not draw a full block past their end
        want = int(1.05 * (horizon - start) / mu) + 16
        count = min(BATCH_CYCLES, max_cycles - drawn, want)
        batch = model.cycle_batch(i, gen, count)
        drawn += count
        # cycle epochs inside the block; the block end carries the
        # compensated running sum from one block to the next, and rounding
        # may neither move an epoch past it nor reorder segment starts
        y = float(batch.lengths.sum()) - comp
        end = start + y
        comp = (end - start) - y
        epochs = np.minimum(
            start + np.concatenate(([0.0], np.cumsum(batch.lengths[:-1]))),
            end)
        seg_lo = np.maximum.accumulate(
            epochs[batch.cycle_index()] + batch.starts)
        seg_hi = np.minimum(np.append(seg_lo[1:], end), horizon)
        keep = seg_lo < horizon
        seg_lo, seg_hi = seg_lo[keep], seg_hi[keep]
        values, slopes = batch.values[keep], batch.slopes[keep]
        # split only the segments that cross batch edges into pieces;
        # single-difference piece lengths keep constant integrands exact
        first = np.minimum(np.searchsorted(edges, seg_lo, side="right") - 1,
                           n_batches - 1)
        last = np.clip(np.searchsorted(edges, seg_hi, side="left") - 1,
                       first, n_batches - 1)
        n_pieces = last - first + 1
        seg = np.repeat(np.arange(len(seg_lo)), n_pieces)
        head = np.cumsum(n_pieces) - n_pieces
        which = first[seg] + np.arange(len(seg)) - head[seg]
        lo = np.where(which == first[seg], seg_lo[seg], edges[which])
        hi = np.where(which == last[seg], seg_hi[seg], edges[which + 1])
        v0 = values[seg] + slopes[seg] * (lo - seg_lo[seg])[:, None]
        pieces = g.segment_integrals(v0, slopes[seg], hi - lo)
        batches += np.bincount(which, weights=pieces, minlength=n_batches)
        # fsum reads a list far faster than a numpy array
        pieces = pieces.tolist()
        total = math.fsum(pieces)
        pieces.append(-total)
        partials += [total, math.fsum(pieces)]
        start = end
    width = horizon / n_batches
    value = math.fsum(partials) / horizon
    means = batches / width
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    return Estimate(value, se)


def bridge_processes(dep, laws) -> list[tuple[float, list[int]]] | None:
    """The shape and the coordinates of each unit-rate gamma process that
    the cycle lengths times their rates are increments of, or None when the
    cycle lengths have no closed-form block sums.

    Laws with a unit shape qualify: one process per coordinate when the
    coupling is independent, one shared process when it is comonotone and
    every law has one unit shape, exponential counting as shape 1 (the
    shared unit quantile of ``randomness._invert``).
    """
    shapes = [sp.unit_shape for sp in laws]
    if None in shapes:
        return None
    if dep.kind == "independent":
        return [(shape, [i]) for i, shape in enumerate(shapes)]
    if dep.kind == "comonotone" and len(set(shapes)) == 1:
        return [(shapes[0], list(range(len(laws))))]
    return None


def straddling_cycles(gen: np.random.Generator, count: int, dep, laws,
                      levels: np.ndarray):
    """Yield ``(i, lo, hi)`` for every coordinate ``i``: the ends
    G_{n-1} <= levels[i] < G_n, one per row, of the straddling cycle of
    G_n, the sums of coordinate ``i``'s cycle lengths drawn from ``laws``
    under ``dep``. ``levels`` has one row per coordinate and one column per
    replication, or a single column that every replication shares. It is
    the only reader of straddling cycles, with two kernels.

    Each process of :func:`bridge_processes` is read without drawing the
    cycles before the level, by :func:`_bridge_cycles` at the levels times
    the laws' rates, the time units of a unit-rate gamma process; the ends
    come back divided by the rates. Every other law or coupling takes
    :func:`_round_cycles`, which draws every joint cycle up to the levels.
    """
    processes = bridge_processes(dep, laws)
    if processes is None:
        yield from _round_cycles(gen, count, dep, laws, levels)
        return
    rates = np.array([sp.rate for sp in laws])
    units = levels * rates[:, None]
    for shape, coords in processes:
        for i, lo, hi in _bridge_cycles(gen, count, shape, coords, units):
            yield i, lo / rates[i], hi / rates[i]


def _round_cycles(gen: np.random.Generator, count: int, dep, laws,
                  levels: np.ndarray):
    """Yield ``(i, lo, hi)``, the ends G_{n-1} <= levels[i] < G_n of each
    row's straddling cycle, by drawing joint cycles from ``laws`` under
    ``dep`` in rounds until every row passes its levels.

    Each round draws ``b`` i.i.d. vectors per row with a pending coordinate
    in one call, cycle ``j`` of row ``r`` at index ``r * b + j``: the most
    cycles a pending coordinate still expects at its
    :func:`randomness.effective_cycle_mean` plus a margin, capped at
    ``WINDOW_ELEMENTS`` entries per round. Epochs are compensated sums of
    each round's row totals; only the rows whose level a round passes take
    running sums, to find their straddling cycle. Every coordinate is
    yielded after the last round.
    """
    m = len(laws)
    mu = np.array([effective_cycle_mean(dep, sp) for sp in laws])[:, None]
    levels = np.broadcast_to(levels, (m, count))
    # coordinate-major, one row of replications per coordinate
    epochs = np.zeros((m, count))
    comp = np.zeros((m, count))
    # coordinate i of a row is pending while its last epoch is still <= its
    # level, so a cycle ending exactly at the level is not the straddling one
    pending = np.ones((m, count), dtype=bool)
    ends = np.empty((2, m, count))
    budget = DEFAULT_CYCLE_BUDGET
    drawn = 0
    while pending.any():
        rows = np.flatnonzero(pending.any(axis=0))
        left = float(np.max(np.where(
            pending[:, rows], (levels[:, rows] - epochs[:, rows]) / mu, 0.0)))
        if drawn + int(left) >= budget:
            raise BudgetExceededError(f"stationary window exceeded "
                                      f"{budget} cycles")
        b = max(1, min(int(left + math.sqrt(left)) + 2, budget - drawn,
                       WINDOW_ELEMENTS // (rows.size * m)))
        drawn += b
        # coordinate i's entries as a (rows, b) block, contiguous when the
        # draw is stored coordinate-major
        draws = sample_cycle_vectors(dep, laws, gen, rows.size * b
                                     ).T.reshape(m, rows.size, b)
        for i in range(m):
            sel = pending[i, rows]
            r = rows[sel]
            if not r.size:
                continue
            lengths = draws[i] if r.size == rows.size else draws[i, sel]
            base = epochs[i, r]
            y = lengths.sum(axis=1) - comp[i, r]
            epochs[i, r] = top = base + y
            comp[i, r] = (top - base) - y
            level = levels[i, r]
            hit = np.flatnonzero(top > level)
            if hit.size:
                # running epochs only in the rows whose level the round
                # passes; it ends at the compensated sum, so each crosses
                pos = np.cumsum(lengths[hit], axis=1)
                pos += base[hit, None]
                pos[:, -1] = top[hit]
                j = np.argmax(pos > level[hit, None], axis=1)
                at = np.arange(hit.size)
                done = r[hit]
                ends[0, i, done] = np.where(j > 0, pos[at, j - 1], base[hit])
                ends[1, i, done] = pos[at, j]
                pending[i, done] = False
    for i in range(m):
        yield i, ends[0, i], ends[1, i]


def _bridge_cycles(gen: np.random.Generator, count: int, shape: float,
                   coords: list[int], levels: np.ndarray):
    """Yield ``(i, lo, hi)``, the ends G_{n-1} <= levels[i] < G_n of each
    row's straddling cycle, for a unit-rate gamma process G of ``shape``.

    Each row visits its own levels in ascending order, ties in the order of
    ``coords``: a level below the end of the row's last cycle reads that
    cycle, and one at or past it restarts the process at that renewal epoch
    and reads the cycle straddling the level from there, by
    :func:`_poisson_read` for an integer shape and :func:`_bisected_read`
    for any other, neither drawing the cycles in between. So the joint law
    of comonotone straddling cycles is exact. ``ended`` counts each row's
    cycles before its current one, and the budget is checked on it once per
    visit. A coordinate is yielded once every row has visited its level, so
    levels that every row shares are visited, and yielded, one coordinate
    at a time.
    """
    read = _poisson_read if shape.is_integer() else _bisected_read
    budget = DEFAULT_CYCLE_BUDGET
    own = levels[coords]
    # the visit at which each row reads each position of coords
    rank = np.argsort(np.argsort(own, axis=0, kind="stable"), axis=0,
                      kind="stable")
    last = rank.max(axis=1)
    ends = np.empty((2, len(coords), count))
    lo = np.zeros(count)
    hi = np.zeros(count)
    # cycles ended before each row's current one; the origin ends cycle -1
    ended = np.full(count, -1, dtype=np.int64)
    for visit in range(len(coords)):
        now = rank == visit
        # the one level each row reads now; levels are >= 0
        level = np.broadcast_to(own.max(axis=0, where=now, initial=0.0),
                                (count,))
        fresh = np.flatnonzero(hi <= level)
        if fresh.size:
            before, lo[fresh], hi[fresh] = read(gen, shape, hi[fresh],
                                                level[fresh])
            ended[fresh] += 1 + before
            if ended[fresh].max() >= budget:
                raise BudgetExceededError(f"stationary window exceeded "
                                          f"{budget} cycles")
        np.copyto(ends[0], lo, where=now)
        np.copyto(ends[1], hi, where=now)
        for p in np.flatnonzero(last == visit):
            yield coords[p], ends[0, p], ends[1, p]


def _poisson_read(gen: np.random.Generator, shape: float, epoch: np.ndarray,
                  level: np.ndarray):
    """How many cycles a gamma process of integer shape k renewed at
    ``epoch`` ends before the one straddling ``level``, and that cycle's
    ends.

    Its points are every k-th point of a unit-rate Poisson process. N ~
    Poisson(level - epoch) points lie between, and J = N mod k of them in
    the straddling cycle. Given N the points are uniform order statistics
    (Kingman, 1993), so the age is (level - epoch) * X / (X + Y), X ~
    Gamma(J + 1) and Y ~ Gamma(N - J), or level - epoch when N < k; the
    residual is Gamma(k - J) by memorylessness. At most four variates per
    row.
    """
    k = int(shape)
    span = level - epoch
    n = gen.poisson(span)
    j = n % k
    x = gen.standard_gamma(j + 1.0)
    # rows with N < k draw Gamma(0), which is 0 and takes nothing from the
    # stream
    y = gen.standard_gamma((n - j).astype(float))
    split = np.divide(x, x + y, out=np.ones_like(x), where=y > 0.0)
    return (n // k, level - span * split,
            level + gen.standard_gamma(k - j.astype(float)))


def _bisected_read(gen: np.random.Generator, shape: float, epoch: np.ndarray,
                   level: np.ndarray):
    """How many cycles a gamma process of any shape renewed at ``epoch``
    ends before the one straddling ``level``, and that cycle's ends.

    Draws G_K, a Gamma(K * shape) block sum past the level, and bisects the
    bracket G_lo <= level < G_hi on the cycle index with G_mid = G_lo +
    (G_hi - G_lo) * Beta((mid - lo) * shape, (hi - mid) * shape), the exact
    law of a gamma sum split at ``mid`` (Devroye, 1986, ch. IX), in about
    log2((level - epoch) / shape) steps.
    """
    mean = float((level - epoch).max()) / shape
    k = int(mean + BRIDGE_SPREAD * math.sqrt(mean)) + 2
    lo_i = np.zeros(len(epoch), dtype=np.int64)
    hi_i = np.full(len(epoch), k, dtype=np.int64)
    lo_v = epoch.copy()
    hi_v = epoch + gen.standard_gamma(k * shape, len(epoch))
    while True:
        short = np.flatnonzero(hi_v <= level)
        if not short.size:
            break
        left = (level[short] - hi_v[short]) / shape
        more = (left + BRIDGE_SPREAD * np.sqrt(left)).astype(np.int64) + 2
        lo_i[short] = hi_i[short]
        lo_v[short] = hi_v[short]
        hi_i[short] += more
        hi_v[short] += gen.standard_gamma(more * shape)
    while True:
        width = hi_i - lo_i
        if width.max() < 2:
            break
        mid = lo_i + width // 2
        # Beta((mid - lo) * shape, (hi - mid) * shape) as a ratio of
        # gammas; rows down to one cycle draw Gamma(0), which is 0 and
        # takes nothing from the stream
        a = (mid - lo_i) * shape
        x = gen.standard_gamma(a)
        total = x + gen.standard_gamma(
            np.where(width > 1, (hi_i - mid) * shape, 0.0))
        split = np.divide(x, total, out=x, where=total > 0.0)
        # both gammas can underflow at tiny shapes
        lost = np.flatnonzero((total == 0.0) & (a > 0.0))
        if lost.size:
            split[lost] = gen.beta(a[lost], (hi_i - mid)[lost] * shape)
        # clipped so that points stay ordered with their index
        g = np.minimum(lo_v + (hi_v - lo_v) * split, hi_v)
        low = g <= level
        lo_i = np.where(low, mid, lo_i)
        lo_v = np.where(low, g, lo_v)
        hi_i = np.where(low, hi_i, mid)
        hi_v = np.where(low, hi_v, g)
    return lo_i, lo_v, hi_v


def default_burn_in(model: RegenModel) -> float:
    return max(1000.0, 100.0 * max(model.cycle_means))


def require_window_budget(model: RegenModel, times, n: int) -> None:
    """Refuse ``n`` replications of a window at ``times`` before any is
    drawn: when a coordinate expects ``DEFAULT_CYCLE_BUDGET`` cycles
    (``times[i] / cycle_means[i]``) or, with ``window_events``, a
    replication expects as many events (``window_events(times)``), or when
    the largest chunk, ``min(n, window_chunk)`` replications, expects more
    than ``MAX_WINDOW_WORK`` row-events."""
    budget = DEFAULT_CYCLE_BUDGET
    times = np.asarray(times, dtype=float)
    # an infinite clock expects infinitely many cycles
    if np.max(times / np.asarray(model.cycle_means)) >= budget:
        raise BudgetExceededError(f"stationary window exceeded {budget} "
                                  f"cycles")
    if model.window_events is None:
        return
    events = model.window_events(times)
    if events >= budget:
        raise BudgetExceededError(f"stationary window expects {budget} or "
                                  f"more events per replication")
    rows = min(n, model.window_chunk)
    if rows * events > MAX_WINDOW_WORK:
        raise BudgetExceededError(f"stationary window expects more than "
                                  f"{MAX_WINDOW_WORK} row-events in a chunk "
                                  f"of {rows} replications")


def sample_states(model: RegenModel, times, n: int, seed: int, *,
                  base_key: tuple[int, ...] = (1003,), reduce=None):
    """``n`` i.i.d. joint observations, coordinate ``i`` at ``times[i]``,
    from the model's ``window`` on chunks of ``window_chunk`` replications,
    chunk ``k`` on substream ``(seed, *base_key, k)``.

    Returns one (n, state_dim_i) array per coordinate, chunks joined in
    order; or, with ``reduce``, the lists of :class:`Moments`
    ``reduce(states)`` makes of each chunk, merged entry by entry in chunk
    order, so memory does not grow with ``n``. A run over
    :func:`require_window_budget` is refused before any chunk draws.
    """
    if n < 1:
        raise ValueError("need at least 1 replication")
    times = np.asarray(times, dtype=float)
    if len(times) != model.dimension:
        raise ValueError("one observation time per coordinate is required")
    # written so that NaN fails the check too
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise ValueError("observation times must be finite and nonnegative")
    n = int(n)
    require_window_budget(model, times, n)
    key = (int(seed), *base_key)

    def work(count: int, k: int):
        states = model.window(substream(*key, k), count, times)
        return states if reduce is None else reduce(states)

    parts = run_chunked(n, model.window_chunk, work, thread_count())
    if reduce is None:
        return [np.concatenate(cols) for cols in zip(*parts)]
    return functools.reduce(
        lambda a, b: [x.merge(y) for x, y in zip(a, b)], parts)
