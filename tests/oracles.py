"""Reference implementations the fast paths are cross-checked against.

Most of what is here is built from a model's per-cycle ``cycle_generator``,
one Python ``CyclePath`` at a time: slow, but simple enough to trust. The
Jackson references step the uniformised chain one gather/scatter per step on
row-major state, and consume the generator exactly as the package's
station-major step does, so the two must agree bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from regenverify import BudgetExceededError
from regenverify.engine import (DEFAULT_CYCLE_BUDGET, CycleBatch, CyclePath,
                                RegenModel)
from regenverify.models import JacksonSpec, _by_cycle
from regenverify.randomness import as_generator, substream


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


def jackson_fire(spec: JacksonSpec):
    """``(total, fire)``: the network's transitions uniformised at ``total``,
    with ``fire(x, gen)`` stepping every row of the row-major state ``x`` in
    place and returning the rows whose source was nonempty. Column ``m`` of
    ``x`` is the outside world, started at the int64 maximum so it never
    empties; event ``e`` moves one customer from ``src[e]`` to ``dst[e]``,
    found by a ``searchsorted`` of one uniform per row."""
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
    cuts = np.cumsum(rate[keep])[:-1] / total

    def fire(x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        e = np.searchsorted(cuts, gen.random(len(x)), side="right")
        base = np.arange(len(x)) * (m + 1)
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
    """Reference ``chunk_states(gen, count, taus)`` of the Jackson sampler:
    Poisson step counts at the sorted taus, then one :func:`jackson_fire`
    step at a time, reading each (row, coordinate) pair at its count."""
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
        due = np.argsort(steps, axis=None, kind="stable")
        ready = np.cumsum(np.bincount(steps.ravel()))
        out = np.zeros(count * m)
        for step in range(1, len(ready)):
            fire(x, gen)
            k = due[ready[step - 1]:ready[step]]
            out[k] = x[k // m, k % m]
        return [out[i::m, None] for i in range(m)]

    return chunk_states


def jackson_batch(spec: JacksonSpec, gen: np.random.Generator,
                  count: int) -> tuple[CycleBatch, ...]:
    """Reference Jackson ``cycle_batch``: ``count`` cycles in lockstep, an
    exponential clock step then a :func:`jackson_fire` step per round."""
    m = len(spec.arrival_rates)
    total, fire = jackson_fire(spec)
    lengths = np.empty(count)
    live = np.arange(count)
    t = np.zeros(count)
    x = _empty_network(count, m)
    rows, times, states = [live], [t], [x[:, :m].copy()]
    while live.size:
        t = t + gen.exponential(1.0 / total, live.size)
        changed = fire(x, gen)
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
