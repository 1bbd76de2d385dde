"""Generic regenerative-process engine.

A model draws joint cycles: per-coordinate piecewise-affine paths whose
lengths may be dependent across coordinates but are i.i.d. across cycles.
On top of that the engine provides exact integrals of test functions of one
state component (:class:`StateFunction`, which is also a scenario's
``run.g``), a cycle-ratio estimator, a long-run time-average estimator, and
stationary state sampling. Both stationary routes draw cycles in blocks of
flat segment arrays (:class:`CycleBatch`) and integrate them in closed form;
the window sampler reads each coordinate in its straddling cycle.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigurationError
from .randomness import (UNIT_RATE_KINDS, as_generator,
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
# cycles past the expected count that a bridge sampler's first block sum
# spans, in square roots of that count
BRIDGE_SPREAD = 4.0


def thread_count(explicit: int | None = None) -> int:
    """Worker count: an explicit argument wins, then REGEN_VERIFY_THREADS,
    then 1. Thread count never changes sampled values, only wall time."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("REGEN_VERIFY_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_chunked(total: int, chunk_size: int, work, threads: int = 1) -> list:
    """Evaluate ``work(start, count, chunk_index)`` over fixed-size chunks.

    Chunk boundaries depend only on ``total`` and ``chunk_size``, and results
    are concatenated in chunk order, so outputs are identical for any thread
    count.
    """
    jobs = [(start, min(chunk_size, total - start), k)
            for k, start in enumerate(range(0, total, chunk_size))]
    if threads <= 1 or len(jobs) <= 1:
        return [work(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: work(*job), jobs))


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


class JointStateSampler(Protocol):
    def __call__(self, times: np.ndarray, n: int, seed: int,
                 base_key: tuple[int, ...], threads: int
                 ) -> list[np.ndarray]: ...


@dataclass(frozen=True)
class RegenModel:
    """A joint regenerative model.

    ``cycle_batch(gen, count)`` draws ``count`` i.i.d. joint cycles as one
    :class:`CycleBatch` per coordinate; both stationary routes read cycles
    only through it. ``joint_state_sampler`` draws i.i.d. stationary-window
    states, through :func:`window_sampler` where one i.i.d. vector drives
    each joint cycle. ``cycle_generator(gen)`` draws one joint cycle as a
    tuple of per coordinate :class:`CyclePath`; it is the reference the
    test suite cross-checks the other two against.
    """

    state_dims: tuple[int, ...]
    cycle_means: tuple[float, ...]
    cycle_generator: Callable[[np.random.Generator], tuple[CyclePath, ...]]
    joint_state_sampler: JointStateSampler
    cycle_batch: Callable[[np.random.Generator, int], tuple[CycleBatch, ...]]

    @property
    def dimension(self) -> int:
        return len(self.cycle_means)


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float


def cycle_functionals(model: RegenModel, i: int, gs: Sequence, n_cycles: int,
                      rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle integrals of each ``g`` and cycle lengths for coordinate
    ``i`` over ``n_cycles`` fresh cycles."""
    gen = as_generator(rng)
    rewards = np.empty((n_cycles, len(gs)))
    lengths = np.empty(n_cycles)
    for lo in range(0, n_cycles, BATCH_CYCLES):
        batch = model.cycle_batch(gen, min(BATCH_CYCLES, n_cycles - lo))[i]
        hi = lo + batch.count
        lengths[lo:hi] = batch.lengths
        seg = batch.segment_lengths()
        for j, g in enumerate(gs):
            rewards[lo:hi, j] = np.add.reduceat(
                g.segment_integrals(batch.values, batch.slopes, seg),
                batch.offsets)
    return rewards, lengths


def ratio_estimate(rewards: np.ndarray, lengths: np.ndarray) -> Estimate:
    """Ratio-of-means estimate with a first-order delta-method SE."""
    n = len(lengths)
    mean_r = float(rewards.mean())
    mean_l = float(lengths.mean())
    if not math.isfinite(mean_r):
        raise ValueError("cycle rewards are not finite")
    r = mean_r / mean_l
    cov = np.cov(rewards, lengths, ddof=1)
    var = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1])
    var /= n * mean_l * mean_l
    return Estimate(r, math.sqrt(max(var, 0.0)))


def renewal_reward_estimate(model: RegenModel, i: int, g, n_cycles: int,
                            rng) -> Estimate:
    """Stationary mean of ``g`` via the cycle formula
    ``E int_0^T g(X(s)) ds / E T``."""
    if n_cycles < 100:
        raise ValueError("need at least 100 cycles")
    rewards, lengths = cycle_functionals(model, i, [g], n_cycles, rng)
    return ratio_estimate(rewards[:, 0], lengths)


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
        batch = model.cycle_batch(gen, count)[i]
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
        total = math.fsum(pieces)
        partials += [total, math.fsum(np.append(pieces, -total))]
        start = end
    width = horizon / n_batches
    value = math.fsum(partials) / horizon
    means = batches / width
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    return Estimate(value, se)


def chunked_sampler(chunk_states, chunk: int) -> JointStateSampler:
    """A joint state sampler running ``chunk_states(gen, count, taus)`` on
    fixed chunks of replications, chunk ``k`` on substream ``(seed,
    *base_key, k)``, with the results concatenated in chunk order."""

    def sampler(times: np.ndarray, n: int, seed: int,
                base_key: tuple[int, ...], threads: int) -> list[np.ndarray]:
        taus = np.asarray(times, dtype=float)

        def work(start: int, count: int, k: int) -> list[np.ndarray]:
            return chunk_states(substream(seed, *base_key, k), count, taus)

        parts = run_chunked(n, chunk, work, threads)
        return [np.concatenate(cols) for cols in zip(*parts)]

    return sampler


def window_sampler(dep, laws, expand, cycle_means,
                   state_dims) -> JointStateSampler:
    """Stationary-window sampler for models whose joint cycle ``n`` is
    driven by the ``n``-th i.i.d. vector drawn from ``laws`` under ``dep``.

    Each round draws ``b`` vectors per row with a pending coordinate in one
    call, cycle ``j`` of row ``r`` at index ``r * b + j``: the most cycles a
    pending coordinate still expects plus a margin, capped at
    ``WINDOW_ELEMENTS`` entries per round. ``expand(i, column, gen)`` turns
    coordinate ``i``'s entries for its pending rows into cycle lengths and
    ``fill(k, s)``, the states ``s`` into cycles ``k``. Epochs are
    compensated sums of each round's row totals; only the rows whose window
    closes in a round take running sums, to find the straddling cycle in
    which the coordinate is read.
    """
    m = len(laws)
    mu = np.asarray(cycle_means, dtype=float)

    def chunk_states(gen: np.random.Generator, count: int,
                     taus: np.ndarray) -> list[np.ndarray]:
        epochs = np.zeros((count, m))
        comp = np.zeros((count, m))
        # coordinate i of a row is pending while its last epoch is still
        # <= tau_i, so a cycle ending exactly at tau_i is not the
        # straddling one
        pending = np.ones((count, m), dtype=bool)
        out = [np.empty((count, d)) for d in state_dims]
        drawn = 0
        while pending.any():
            rows = np.flatnonzero(pending.any(axis=1))
            left = float(np.max(np.where(pending[rows],
                                         (taus - epochs[rows]) / mu, 0.0)))
            budget = DEFAULT_CYCLE_BUDGET
            if drawn + int(left) >= budget:
                raise BudgetExceededError(f"stationary window exceeded "
                                          f"{budget} cycles")
            b = max(1, min(int(left + math.sqrt(left)) + 2, budget - drawn,
                           WINDOW_ELEMENTS // (rows.size * m)))
            drawn += b
            # coordinate i's entries as a (rows, b) block, contiguous when
            # the draw is stored coordinate-major
            draws = sample_cycle_vectors(dep, laws, gen, rows.size * b
                                         ).T.reshape(m, rows.size, b)
            for i in range(m):
                sel = pending[rows, i]
                r = rows[sel]
                if not r.size:
                    continue
                column = draws[i] if r.size == rows.size else draws[i, sel]
                # one coordinate's cycles at a time, released before the next
                lengths, fill = expand(i, column.ravel(), gen)
                lengths = lengths.reshape(r.size, b)
                base = epochs[r, i]
                y = lengths.sum(axis=1) - comp[r, i]
                epochs[r, i] = top = base + y
                comp[r, i] = (top - base) - y
                hit = np.flatnonzero(top > taus[i])
                if hit.size:
                    # running epochs only in the rows whose window closes
                    steps = lengths[hit]
                    pos = np.cumsum(steps, axis=1)
                    pos += base[hit, None]
                    # the round ends at the compensated sum, so every hit
                    # row crosses tau_i
                    pos[:, -1] = top[hit]
                    j = np.argmax(pos > taus[i], axis=1)
                    rows_hit = np.arange(hit.size)
                    before = np.where(j > 0, pos[rows_hit, j - 1], base[hit])
                    # the epoch sum can round a hair past the true cycle end
                    s = np.minimum(taus[i] - before,
                                   np.nextafter(steps[rows_hit, j], 0.0))
                    out[i][r[hit]] = fill(hit * b + j, s)
                    pending[r[hit], i] = False
                    del steps, pos
                del column, lengths, fill
        return out

    return chunked_sampler(chunk_states, WINDOW_CHUNK)


def bridge_processes(dep, laws) -> list[list[int]] | None:
    """The coordinates reading each unit-rate gamma process, or None when
    the cycle lengths have no closed-form block sums.

    Exponential and gamma cycle lengths times their rates are unit-rate
    gamma increments: one process per coordinate when the coupling is
    independent, one shared process when it is comonotone and every law
    has the same kind and shape (the shared unit quantile of
    ``randomness._invert``).
    """
    if any(sp.kind not in UNIT_RATE_KINDS for sp in laws):
        return None
    if dep.kind == "independent":
        return [[i] for i in range(len(laws))]
    if dep.kind == "comonotone" and len({(sp.kind, sp.shape)
                                         for sp in laws}) == 1:
        return [list(range(len(laws)))]
    return None


def bridge_window_sampler(dep, laws, state) -> JointStateSampler:
    """Stationary-window sampler for renewal cycles that
    :func:`bridge_processes` accepts, reading coordinate ``i`` in its
    straddling cycle without drawing the cycles before it.

    Coordinate ``i`` reads its process G at the level ``tau_i * rate_i``:
    its straddling cycle is the increment (G_{n-1}, G_n] holding the level.
    A chunk draws G_K, a Gamma(K * shape) block sum past every level, and
    bisects the bracket G_lo <= level < G_hi on the cycle index with
    G_mid = G_lo + (G_hi - G_lo) * Beta((mid - lo) * shape, (hi - mid) *
    shape), the exact law of a gamma sum split at ``mid``. Bridges between
    drawn points are independent, so a level starts from the tightest
    bracket among the points earlier levels of its process drew, which
    keeps the joint law of comonotone straddling cycles exact.
    ``state(i, age, length, gen)`` fills the straddling cycle.
    """
    groups = bridge_processes(dep, laws)
    rates = np.array([sp.rate for sp in laws])
    shapes = np.array([1.0 if sp.kind == "exponential" else sp.shape
                       for sp in laws])

    def chunk_states(gen: np.random.Generator, count: int,
                     taus: np.ndarray) -> list[np.ndarray]:
        budget = DEFAULT_CYCLE_BUDGET
        levels = taus * rates
        out = [None] * len(laws)
        rows = np.arange(count)
        for coords in groups:
            shape = float(shapes[coords[0]])
            top = float(levels[coords].max())
            mean = top / shape
            k = min(int(mean + BRIDGE_SPREAD * math.sqrt(mean)) + 2, budget)
            # the points of G drawn so far, one column per draw; a row that
            # a draw skips repeats a point it already has
            index = [np.zeros(count, dtype=np.int64),
                     np.full(count, k, dtype=np.int64)]
            value = [np.zeros(count), gen.standard_gamma(k * shape, count)]
            while True:
                short = np.flatnonzero(value[-1] <= top)
                if not short.size:
                    break
                reach = index[-1][short]
                if np.any(reach >= budget):
                    raise BudgetExceededError(f"stationary window exceeded "
                                              f"{budget} cycles")
                left = (top - value[-1][short]) / shape
                more = np.minimum(
                    (left + BRIDGE_SPREAD * np.sqrt(left)).astype(np.int64)
                    + 2, budget - reach)
                index.append(index[-1].copy())
                value.append(value[-1].copy())
                index[-1][short] += more
                value[-1][short] += gen.standard_gamma(more * shape)
            for i in coords:
                level = levels[i]
                known_i = np.column_stack(index)
                known_v = np.column_stack(value)
                below = known_v <= level
                lo_col = np.where(below, known_i, -1).argmax(axis=1)
                hi_col = np.where(below, budget + 1, known_i).argmin(axis=1)
                lo_i, lo_v = known_i[rows, lo_col], known_v[rows, lo_col]
                hi_i, hi_v = known_i[rows, hi_col], known_v[rows, hi_col]
                while True:
                    width = hi_i - lo_i
                    if width.max() < 2:
                        break
                    mid = lo_i + width // 2
                    # Beta((mid - lo) * shape, (hi - mid) * shape) as a
                    # ratio of gammas; rows down to one cycle draw Gamma(0),
                    # which is 0 and takes nothing from the stream
                    a = (mid - lo_i) * shape
                    x = gen.standard_gamma(a)
                    total = x + gen.standard_gamma(
                        np.where(width > 1, (hi_i - mid) * shape, 0.0))
                    split = np.divide(x, total, out=x, where=total > 0.0)
                    # both gammas can underflow at tiny shapes
                    lost = np.flatnonzero((total == 0.0) & (a > 0.0))
                    if lost.size:
                        split[lost] = gen.beta(a[lost],
                                               (hi_i - mid)[lost] * shape)
                    # clipped so that points stay ordered with their index
                    g = np.minimum(lo_v + (hi_v - lo_v) * split, hi_v)
                    index.append(mid)
                    value.append(g)
                    low = g <= level
                    lo_i = np.where(low, mid, lo_i)
                    lo_v = np.where(low, g, lo_v)
                    hi_i = np.where(low, hi_i, mid)
                    hi_v = np.where(low, hi_v, g)
                length = (hi_v - lo_v) / rates[i]
                # the level difference can round a hair past the cycle end
                age = np.minimum((level - lo_v) / rates[i],
                                 np.nextafter(length, 0.0))
                out[i] = state(i, age, length, gen)
        return out

    run = chunked_sampler(chunk_states, WINDOW_CHUNK)
    mu = shapes / rates

    def sampler(times: np.ndarray, n: int, seed: int,
                base_key: tuple[int, ...], threads: int) -> list[np.ndarray]:
        budget = DEFAULT_CYCLE_BUDGET
        if int(np.max(np.asarray(times, dtype=float) / mu)) >= budget:
            raise BudgetExceededError(f"stationary window exceeded "
                                      f"{budget} cycles")
        return run(times, n, seed, base_key, threads)

    return sampler


def default_burn_in(model: RegenModel) -> float:
    return max(1000.0, 100.0 * max(model.cycle_means))


def sample_states(model: RegenModel, times, n: int, seed: int, *,
                  base_key: tuple[int, ...] = (1003,),
                  threads: int | None = None) -> list[np.ndarray]:
    """``n`` i.i.d. joint observations, coordinate ``i`` at ``times[i]``,
    from the model's vectorised sampler.

    Returns one (n, state_dim_i) array per coordinate.
    """
    if n < 1:
        raise ValueError("need at least 1 replication")
    times = np.asarray(times, dtype=float)
    if len(times) != model.dimension:
        raise ValueError("one observation time per coordinate is required")
    # written so that NaN fails the check too
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise ValueError("observation times must be finite and nonnegative")
    return model.joint_state_sampler(times, int(n), int(seed),
                                     tuple(base_key), thread_count(threads))
