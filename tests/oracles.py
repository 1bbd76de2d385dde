"""Reference implementations the fast paths are cross-checked against.

Everything here is built from a model's per-cycle ``cycle_generator``, one
Python ``CyclePath`` at a time: slow, but simple enough to trust.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from regenverify import BudgetExceededError, CyclePath, RegenModel, substream
from regenverify.engine import DEFAULT_CYCLE_BUDGET, CycleBatch
from regenverify.randomness import as_generator


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
