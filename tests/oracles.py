"""Reference implementations the fast paths are cross-checked against.

Most of what is here is built from a model's per-cycle ``cycle_generator``,
one Python ``CyclePath`` at a time: slow, but simple enough to trust. The
Jackson references step the uniformised chain one gather/scatter per step on
row-major state, and consume the generator exactly as the package's
station-major step does, so the two must agree bit for bit. The
cycle-vector reference takes each coordinate's quantile on its own and
stacks the columns into a row-major array; it too must agree bit for bit.
The window reference takes running sums over every pending row in every
round; its epochs are sequential sums, so it agrees with the package's
round kernel to rounding. Driven by a busy-period walk, it is also the
reference for the Levy window's Fuhrmann-Cooper decomposition. The cycle-route reference keeps every cycle's
reward and length and takes their two-pass covariance; the package's
streamed co-moments agree with it to rounding. The gap reference reduces a
row-major (replications, m) matrix down its columns; the package's gap,
read from streamed sums and co-moments, agrees with it bit for bit in the
gap and means of 0/1 entries and to rounding everywhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from regenverify import BudgetExceededError, engine, models
from regenverify.asymptotics import GapEstimate
from regenverify.engine import (DEFAULT_CYCLE_BUDGET, CycleBatch, CyclePath,
                                Estimate, Moments, RegenModel)
from regenverify.models import JacksonSpec, _by_cycle
from regenverify.randomness import (DependenceSpec, MarginalSpec,
                                    as_generator, effective_cycle_mean,
                                    substream)


class Realization:
    """Lazily materialised joint cycle sequence for one run of a model."""

    def __init__(self, model: RegenModel, rng,
                 max_cycles: int = DEFAULT_CYCLE_BUDGET):
        self.model = model
        self.max_cycles = int(max_cycles)
        self._gen = as_generator(rng)
        self._cycles: list[tuple[CyclePath, ...]] = []
        m = model.dimension
        self._epochs: list[list[float]] = [[0.0] for _ in range(m)]
        self._sums = [0.0] * m
        self._comp = [0.0] * m

    @property
    def n_cycles(self) -> int:
        return len(self._cycles)

    def _extend(self) -> None:
        if len(self._cycles) >= self.max_cycles:
            raise BudgetExceededError(
                f"realization exceeded {self.max_cycles} cycles")
        paths = self.model.cycle_generator(self._gen)
        self._cycles.append(paths)
        for i, p in enumerate(paths):
            y = p.length - self._comp[i]
            s = self._sums[i] + y
            self._comp[i] = (s - self._sums[i]) - y
            self._sums[i] = s
            self._epochs[i].append(s)

    def ensure_covers(self, i: int, t: float) -> None:
        while self._sums[i] <= t:
            self._extend()

    def epoch(self, i: int, n: int) -> float:
        while len(self._cycles) < n:
            self._extend()
        return self._epochs[i][n]

    def cycle(self, i: int, n: int) -> CyclePath:
        while len(self._cycles) <= n:
            self._extend()
        return self._cycles[n][i]

    def state_at(self, i: int, t: float) -> np.ndarray:
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        self.ensure_covers(i, t)
        eps = self._epochs[i]
        n = bisect_right(eps, t) - 1
        path = self._cycles[n][i]
        s = t - eps[n]
        if s >= path.length:
            # the epoch sum can round a hair past the true cycle end
            s = np.nextafter(path.length, 0.0)
        return path.at(s)


def realization_states(model: RegenModel, times, n: int, seed: int,
                       base_key: tuple[int, ...] = (1003,)
                       ) -> list[np.ndarray]:
    """``n`` i.i.d. joint observations, coordinate ``i`` at ``times[i]``,
    one :class:`Realization` per replication on its own substream: the
    reference for ``sample_states``."""
    outs = [np.empty((n, d)) for d in model.state_dims]
    for r in range(n):
        real = Realization(model, substream(seed, *base_key, r))
        for i in range(model.dimension):
            outs[i][r] = real.state_at(i, float(times[i]))
    return outs


def from_paths(paths: Sequence[CyclePath]) -> CycleBatch:
    """Generator paths of one coordinate stacked into one batch."""
    counts = np.array([len(p.values) for p in paths], dtype=np.int64)
    return CycleBatch(np.concatenate([p.breaks[:-1] for p in paths]),
                      np.concatenate([p.values for p in paths]),
                      np.concatenate([p.slopes for p in paths]),
                      np.cumsum(counts) - counts,
                      np.array([p.length for p in paths]))


def cycle_arrays(model: RegenModel, i: int, gs, n_cycles: int, rng
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every cycle's integral of each ``g`` (one column per ``g``) and every
    cycle's length, over the same blocks and draws as
    ``engine.cycle_functionals``."""
    gen = as_generator(rng)
    rewards, lengths = [], []
    for lo in range(0, n_cycles, engine.BATCH_CYCLES):
        batch = model.cycle_batch(
            i, gen, min(engine.BATCH_CYCLES, n_cycles - lo))
        rewards.append(batch.integrals(gs).T)
        lengths.append(batch.lengths)
    return np.concatenate(rewards), np.concatenate(lengths)


def ratio_estimate(rewards: np.ndarray, lengths: np.ndarray) -> Estimate:
    """Two-pass ratio-of-means estimate with a first-order delta-method SE:
    the reference for the streamed ``engine.cycle_functionals``."""
    n = len(lengths)
    mean_r = float(rewards.mean())
    mean_l = float(lengths.mean())
    r = mean_r / mean_l
    cov = np.cov(rewards, lengths, ddof=1)
    var = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1])
    var /= n * mean_l * mean_l
    return Estimate(r, math.sqrt(max(var, 0.0)))


def cdf(spec: MarginalSpec):
    """``x -> P(T <= x)`` for ``T ~ spec``, on scalars and arrays."""

    def f(x):
        xs = np.asarray(x, dtype=float)
        k = spec.kind
        if k == "exponential":
            out = -np.expm1(-spec.rate * np.maximum(xs, 0.0))
        elif k == "gamma":
            from scipy import special
            out = special.gammainc(spec.shape,
                                   spec.rate * np.maximum(xs, 0.0))
        elif k == "deterministic":
            out = (xs >= spec.value).astype(float)
        elif k == "lattice":
            locs = np.array([n * spec.span for n, _ in spec.weights])
            cumw = np.cumsum([w for _, w in spec.weights])
            idx = np.searchsorted(locs, xs, side="right")
            out = np.where(idx > 0, cumw[np.maximum(idx - 1, 0)], 0.0)
        else:
            out = np.clip((xs - spec.lo) / (spec.hi - spec.lo), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    return f


def tail(spec: MarginalSpec):
    """``u -> P(T > u)`` for ``T ~ spec``, the integrand of the quadrature
    references to equilibrium laws and means."""
    f = cdf(spec)
    return lambda u: 1.0 - f(u)


def breakpoints(spec: MarginalSpec) -> tuple[float, ...]:
    """Where the tail of ``spec`` jumps or has a kink, points a quadrature
    routine should not integrate across blindly."""
    if spec.arithmetic:
        return tuple(y for y, _ in spec.atoms())
    if spec.kind == "shifted_uniform":
        return (spec.lo, spec.hi)
    return ()


def row_major_ppf(sp: MarginalSpec, us: np.ndarray) -> np.ndarray:
    """One law's quantiles of ``us``, each kind's inverse CDF in one
    expression, rate-family laws included; gamma of shape 1 takes the
    exponential's closed form."""
    if sp.kind == "exponential" or (sp.kind == "gamma" and sp.shape == 1.0):
        return -np.log1p(-us) / sp.rate
    if sp.kind == "gamma":
        from scipy import special
        return special.gammaincinv(sp.shape, us) / sp.rate
    if sp.kind == "deterministic":
        return np.full_like(us, sp.value)
    if sp.kind == "lattice":
        locs = np.array([n * sp.span for n, _ in sp.weights])
        cumw = np.cumsum([w for _, w in sp.weights])
        return locs[np.minimum(np.searchsorted(cumw, us, side="left"),
                               len(locs) - 1)]
    return sp.lo + us * (sp.hi - sp.lo)


def row_major_cycle_vectors(dep: DependenceSpec, marginals, rng,
                            size: int) -> np.ndarray:
    """Reference ``sample_cycle_vectors``: a C-ordered (size, m) array with
    one quantile per coordinate, stacked column by column. It consumes the
    generator exactly as the package does, so the two agree bit for bit."""
    gen = as_generator(rng)
    marginals = tuple(marginals)
    m = len(marginals)

    def sample(sp: MarginalSpec) -> np.ndarray:
        if sp.kind == "lattice":
            return row_major_ppf(sp, gen.random(size))
        return np.asarray(sp.sample(gen, size), dtype=float)

    if dep.kind == "independent":
        return np.column_stack([sample(sp) for sp in marginals])
    if dep.kind == "comonotone":
        if all(sp == marginals[0] for sp in marginals):
            return np.repeat(sample(marginals[0])[:, None], m, axis=1)
        u = gen.random(size)
        return np.column_stack([row_major_ppf(sp, u) for sp in marginals])
    if dep.kind == "common_shock":
        z = sample(dep.shock)
        return np.column_stack([z + sample(sp) for sp in marginals])
    from scipy import special
    z = gen.standard_normal((size, m)) @ dep._copula_factor().T
    u = special.ndtr(z)
    return np.column_stack([row_major_ppf(marginals[i], u[:, i])
                            for i in range(m)])


def full_cumsum_states(gen: np.random.Generator, count: int, levels, dep,
                       laws, expand, cycle_means, state_dims
                       ) -> list[np.ndarray]:
    """Reference round kernel of ``engine.straddling_cycles``: the same
    rounds and draws, but every round takes running sums over all its
    pending rows and ends each row at the compensated sum of the last of
    them. ``levels`` is (m, count), or (m, 1) shared by every row.
    ``expand(i, column, gen)`` turns coordinate ``i``'s entries for its
    pending rows into cycle lengths and ``fill(k, s)``, the states ``s``
    time units into cycles ``k``. It reads ``engine.WINDOW_ELEMENTS`` and
    ``engine.DEFAULT_CYCLE_BUDGET`` when it runs, so patched bounds
    apply."""
    m = len(laws)
    mu = np.asarray(cycle_means, dtype=float)
    # row-major, one row per replication
    level = np.broadcast_to(np.asarray(levels, dtype=float).T, (count, m))
    epochs = np.zeros((count, m))
    comp = np.zeros((count, m))
    pending = np.ones((count, m), dtype=bool)
    out = [np.empty((count, d)) for d in state_dims]
    drawn = 0
    while pending.any():
        rows = np.flatnonzero(pending.any(axis=1))
        left = float(np.max(np.where(pending[rows],
                                     (level[rows] - epochs[rows]) / mu, 0.0)))
        budget = engine.DEFAULT_CYCLE_BUDGET
        if drawn + int(left) >= budget:
            raise BudgetExceededError(f"stationary window exceeded "
                                      f"{budget} cycles")
        b = max(1, min(int(left + math.sqrt(left)) + 2, budget - drawn,
                       engine.WINDOW_ELEMENTS // (rows.size * m)))
        drawn += b
        draws = engine.sample_cycle_vectors(dep, laws, gen, rows.size * b
                                            ).T.reshape(m, rows.size, b)
        for i in range(m):
            sel = pending[rows, i]
            r = rows[sel]
            if not r.size:
                continue
            lengths, fill = expand(i, draws[i, sel].ravel(), gen)
            lengths = lengths.reshape(r.size, b)
            pos = np.cumsum(lengths, axis=1)
            base = epochs[r, i]
            y = pos[:, -1] - comp[r, i]
            epochs[r, i] = top = base + y
            comp[r, i] = (top - base) - y
            pos += base[:, None]
            pos[:, -1] = top
            hit = np.flatnonzero(top > level[r, i])
            if hit.size:
                at = level[r[hit], i]
                j = np.argmax(pos[hit] > at[:, None], axis=1)
                before = np.where(j > 0, pos[hit, j - 1], base[hit])
                s = np.minimum(at - before,
                               np.nextafter(lengths[hit, j], 0.0))
                out[i][r[hit]] = fill(hit * b + j, s)
                pending[r[hit], i] = False
    return out


def full_cumsum_window_sampler(dep, laws, expand, cycle_means, state_dims):
    """:func:`full_cumsum_states` at the levels ``tau_i`` that every row
    shares, as a model's ``window(gen, count, taus)``."""

    def window(gen: np.random.Generator, count: int,
               taus: np.ndarray) -> list[np.ndarray]:
        return full_cumsum_states(gen, count, taus[:, None], dep, laws,
                                  expand, cycle_means, state_dims)

    return window


def levy_busy_period_window(coords, dep):
    """Reference ``window`` of Levy queues, independent of the
    Fuhrmann-Cooper decomposition: every busy period of every round is
    walked (``models._levy_batch``) and read at the window's elapsed time.
    Rounds are sized by the busy periods' means."""
    restarts = tuple(c.restart_level for c in coords)
    means = [effective_cycle_mean(dep, c.restart_level) / (1.0 - c.load())
             for c in coords]

    def expand(i: int, levels: np.ndarray, gen: np.random.Generator):
        batch = models._levy_batch(coords[i], levels, gen)
        return batch.lengths, batch.at

    return full_cumsum_window_sampler(dep, restarts, expand, means,
                                      (1,) * len(coords))


def jackson_fire(spec: JacksonSpec):
    """``(total, fire)``: the network's transitions uniformised at ``total``,
    with ``fire(x, gen, refine)`` stepping every row of the row-major state
    ``x`` in place and returning the rows whose source was nonempty. Column
    ``m`` of ``x`` is the outside world, started at the int64 maximum so it
    never empties; event ``e`` moves one customer from ``src[e]`` to
    ``dst[e]``. Each row reads one 16-bit word ``h`` of the step's
    ``ceil(rows / 4)`` raw 64-bit draws, as little-endian words in row
    order, and finds its event by a ``searchsorted`` of ``h`` in the cut
    points times 2^16, or of ``h + U`` with ``U`` from ``refine`` when
    ``h`` is the floor of a fractional one."""
    m = len(spec.arrival_rates)
    services = np.asarray(spec.service_rates, dtype=float)
    routing = np.asarray(spec.routing, dtype=float)
    targets = np.column_stack([routing, 1.0 - routing.sum(axis=1)])
    src = np.concatenate([np.full(m, m), np.repeat(np.arange(m), m + 1)])
    dst = np.concatenate([np.arange(m), np.tile(np.arange(m + 1), m)])
    rate = np.concatenate([spec.arrival_rates,
                           (services[:, None] * targets).ravel()])
    keep = rate > 0.0
    src, dst = src[keep], dst[keep]
    total = float(sum(spec.arrival_rates) + services.sum())
    s = np.cumsum(rate[keep])[:-1] / total * 2.0 ** 16

    def fire(x: np.ndarray, gen: np.random.Generator,
             refine: np.random.Generator) -> np.ndarray:
        rows = len(x)
        raw = gen.bit_generator.random_raw(-(-rows // 4))
        words = np.frombuffer(raw.astype("<u8").tobytes(), dtype="<u2")
        v = words[:rows].astype(float)
        straddles = np.isin(v, np.floor(s)[np.floor(s) != s])
        v[straddles] += refine.random(np.count_nonzero(straddles))
        e = np.searchsorted(s, v, side="right")
        base = np.arange(rows) * (m + 1)
        flat = x.reshape(-1)
        origin = base + src[e]
        held = flat[origin]
        changed = held > 0
        flat[origin] = held - changed
        flat[base + dst[e]] += changed
        return changed

    return total, fire


def _empty_network(count: int, m: int) -> np.ndarray:
    x = np.zeros((count, m + 1), dtype=np.int64)
    x[:, m] = np.iinfo(np.int64).max
    return x


def jackson_chunk_states(spec: JacksonSpec):
    """Reference ``window(gen, count, taus)`` of the Jackson sampler:
    Poisson step counts at the sorted taus, then one :func:`jackson_fire`
    step at a time, reading each (row, coordinate) pair at its count.
    Straddling words refine from one stream spawned from ``gen``."""
    m = len(spec.arrival_rates)
    total, fire = jackson_fire(spec)

    def chunk_states(gen: np.random.Generator, count: int,
                     taus: np.ndarray) -> list[np.ndarray]:
        order = np.argsort(taus, kind="stable")
        gaps = np.diff(taus[order], prepend=0.0)
        steps = np.empty((count, m), dtype=np.int64)
        steps[:, order] = np.cumsum(gen.poisson(total * gaps, (count, m)),
                                    axis=1)
        x = _empty_network(count, m)
        refine = gen.spawn(1)[0]
        due = np.argsort(steps, axis=None, kind="stable")
        ready = np.cumsum(np.bincount(steps.ravel()))
        out = np.zeros(count * m)
        for step in range(1, len(ready)):
            fire(x, gen, refine)
            k = due[ready[step - 1]:ready[step]]
            out[k] = x[k // m, k % m]
        return [out[i::m, None] for i in range(m)]

    return chunk_states


def jackson_batch(spec: JacksonSpec, gen: np.random.Generator,
                  count: int) -> tuple[CycleBatch, ...]:
    """Reference Jackson ``cycle_batch``: ``count`` cycles in lockstep, an
    exponential clock step then a :func:`jackson_fire` step per round,
    straddling words refined from one stream spawned from ``gen``."""
    m = len(spec.arrival_rates)
    total, fire = jackson_fire(spec)
    refine = gen.spawn(1)[0]
    lengths = np.empty(count)
    live = np.arange(count)
    t = np.zeros(count)
    x = _empty_network(count, m)
    rows, times, states = [live], [t], [x[:, :m].copy()]
    while live.size:
        t = t + gen.exponential(1.0 / total, live.size)
        changed = fire(x, gen, refine)
        busy = x[:, :m].any(axis=1)
        opened = changed & busy
        rows.append(live[opened])
        times.append(t[opened])
        states.append(x[opened, :m])
        done = changed & ~busy
        lengths[live[done]] = t[done]
        go = ~done
        live, t, x = live[go], t[go], x[go]
    starts, values, offsets = _by_cycle(rows, times, states, count)
    values = values.astype(float)
    zero = np.zeros((len(starts), 1))
    return tuple(CycleBatch(starts, values[:, i:i + 1], zero, offsets,
                            lengths) for i in range(m))


def product_form_gap_rows(samples: np.ndarray, *, t: float = math.nan,
                          f_id: str = "f") -> GapEstimate:
    """Reference ``asymptotics.product_form_gap``: every mean, product and
    spread reduced over the rows of the C-ordered (replications, m)
    matrix."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2:
        raise ValueError("samples must be a (replications, m) matrix")
    n, m = s.shape
    if n < 1000:
        raise ValueError("need at least 1000 replications for a stable gap")
    col_means = s.mean(axis=0)
    products = s.prod(axis=1)
    mean_of_products = float(products.mean())
    gap = abs(mean_of_products - float(col_means.prod()))
    others = np.array([np.delete(col_means, i).prod() for i in range(m)])
    influence = products - (s * others).sum(axis=1)
    # shifting by one row leaves the spread unchanged and keeps constant
    # columns at exactly zero
    se = float((influence - influence[0]).std(ddof=1) / math.sqrt(n))
    return GapEstimate(
        t=float(t), f_id=str(f_id), n=n, gap=gap, se=se,
        mean_of_products=mean_of_products,
        marginal_means=tuple(float(v) for v in col_means),
        marginal_ses=tuple(float(v) for v in s.std(axis=0, ddof=1)
                           / math.sqrt(n)),
        degenerate=bool((s.min(axis=0) == s.max(axis=0)).any()))


def gap_totals(samples: np.ndarray, chunk: int | None = None) -> Moments:
    """The totals ``asymptotics.product_form_gap`` reads, of the rows
    ``(p, s_1, ..., s_m)`` of a (replications, m) matrix, folded ``chunk``
    replications at a time in order (all at once by default)."""
    s = np.asarray(samples, dtype=float)
    rows = np.vstack([s.prod(axis=1), s.T])
    size = chunk or len(s)
    totals = Moments.of(rows[:, :size])
    for lo in range(size, len(s), size):
        totals = totals.merge(Moments.of(rows[:, lo:lo + size]))
    return totals
