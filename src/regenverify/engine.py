"""Generic regenerative-process engine.

A model is a recipe for drawing one joint cycle: a tuple of per-coordinate
piecewise-affine paths whose lengths may be dependent across coordinates but
are i.i.d. across cycles. On top of that the engine provides pathwise
evaluation, a cycle-ratio estimator, a long-run time-average estimator, and
stationary state sampling.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy import integrate

from .errors import BudgetExceededError
from .randomness import as_generator, substream

DEFAULT_CYCLE_BUDGET = 10_000_000


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

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def at(self, s: float) -> np.ndarray:
        """State at elapsed cycle time ``s`` in [0, length)."""
        if not 0.0 <= s < self.length:
            raise ValueError(f"s={s} outside [0, {self.length})")
        j = bisect_right(self.breaks, s) - 1
        return self.values[j] + self.slopes[j] * (s - self.breaks[j])


def linear_path(start, slope, length: float) -> CyclePath:
    v = np.atleast_1d(np.asarray(start, dtype=float))
    s = np.atleast_1d(np.asarray(slope, dtype=float))
    return CyclePath(np.array([0.0, length]), v[None, :], s[None, :])


@dataclass(frozen=True)
class StateFunction:
    """A bounded test function of the state vector.

    All kinds act through the affine form ``a(x) = sum_j weights[j] x_j +
    offset`` (missing components count as weight zero):

    - ``constant``: offset, ignoring the state
    - ``linear``: a(x)
    - ``indicator_le``: 1{a(x) <= threshold}
    - ``indicator_gt``: 1{a(x) > threshold}, strict
    - ``exp_neg``: exp(-a(x))

    Because paths are piecewise affine, every kind integrates exactly along a
    segment; no quadrature error enters cycle functionals for these.
    """

    kind: str
    weights: tuple[float, ...] = (1.0,)
    offset: float = 0.0
    threshold: float = 0.0

    def label(self) -> str:
        if self.kind == "constant":
            return f"constant({self.offset:g})"
        if self.kind in ("indicator_le", "indicator_gt"):
            op = "<=" if self.kind == "indicator_le" else ">"
            return f"1{{{self._form_label()} {op} {self.threshold:g}}}"
        if self.kind == "exp_neg":
            return f"exp(-({self._form_label()}))"
        return self._form_label()

    def _form_label(self) -> str:
        terms = [f"{w:g}*x{j}" for j, w in enumerate(self.weights) if w != 0.0]
        if self.offset != 0.0 or not terms:
            terms.append(f"{self.offset:g}")
        return " + ".join(terms)

    def _lin(self, x: np.ndarray) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        d = min(x.shape[-1], len(w))
        return x[..., :d] @ w[:d]

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1:
            x = x[None, :]
            squeeze = True
        else:
            squeeze = False
        if self.kind == "constant":
            out = np.full(x.shape[:-1], self.offset)
        else:
            a = self._lin(x) + self.offset
            if self.kind == "linear":
                out = a
            elif self.kind == "indicator_le":
                out = (a <= self.threshold).astype(float)
            elif self.kind == "indicator_gt":
                out = (a > self.threshold).astype(float)
            elif self.kind == "exp_neg":
                out = np.exp(-a)
            else:
                raise ValueError(f"unknown state function kind {self.kind!r}")
        return float(out[0]) if squeeze else out

    def segment_integral(self, value0: np.ndarray, slope: np.ndarray,
                         length: float) -> float:
        """Exact ``int_0^length f(value0 + u * slope) du``."""
        if length <= 0.0:
            return 0.0
        if self.kind == "constant":
            return self.offset * length
        a = float(self._lin(value0)) + self.offset
        b = float(self._lin(slope))
        if self.kind == "linear":
            return a * length + 0.5 * b * length * length
        if self.kind in ("indicator_le", "indicator_gt"):
            q = self.threshold
            if b == 0.0:
                below = length if a <= q else 0.0
            elif b > 0.0:
                below = min(max((q - a) / b, 0.0), length)
            else:
                below = length - min(max((q - a) / b, 0.0), length)
            return below if self.kind == "indicator_le" else length - below
        if self.kind == "exp_neg":
            if b == 0.0:
                return math.exp(-a) * length
            return math.exp(-a) * (-math.expm1(-b * length)) / b
        raise ValueError(f"unknown state function kind {self.kind!r}")


def constant(value: float = 1.0) -> StateFunction:
    return StateFunction("constant", weights=(), offset=float(value))


def _unit_weights(component: int) -> tuple[float, ...]:
    return (0.0,) * component + (1.0,)


def identity(component: int = 0) -> StateFunction:
    return StateFunction("linear", weights=_unit_weights(component))


def indicator_le(threshold: float, component: int = 0) -> StateFunction:
    return StateFunction("indicator_le", weights=_unit_weights(component),
                         threshold=float(threshold))


def indicator_gt(threshold: float, component: int = 0) -> StateFunction:
    return StateFunction("indicator_gt", weights=_unit_weights(component),
                         threshold=float(threshold))


def exp_neg(component: int = 0) -> StateFunction:
    return StateFunction("exp_neg", weights=_unit_weights(component))


def updated_indicator() -> StateFunction:
    """1{x0 > x1}: for status models, 1{age > scaled threshold}, strict."""
    return StateFunction("indicator_gt", weights=(1.0, -1.0), threshold=0.0)


def path_integral(path: CyclePath, g, lo: float = 0.0,
                  hi: float | None = None) -> float:
    """``int_lo^hi g(X(u)) du`` along one cycle path.

    Exact for :class:`StateFunction`; other callables fall back to adaptive
    quadrature per segment.
    """
    hi = path.length if hi is None else min(float(hi), path.length)
    lo = max(0.0, float(lo))
    if hi <= lo:
        return 0.0
    exact = isinstance(g, StateFunction)
    total = 0.0
    breaks = path.breaks
    for j in range(len(path.values)):
        s = max(float(breaks[j]), lo)
        e = min(float(breaks[j + 1]), hi)
        if e <= s:
            if breaks[j] >= hi:
                break
            continue
        v0 = path.values[j] + path.slopes[j] * (s - breaks[j])
        if exact:
            total += g.segment_integral(v0, path.slopes[j], e - s)
        else:
            sl = path.slopes[j]
            val, _ = integrate.quad(lambda u: float(g(v0 + sl * u)),
                                    0.0, e - s, epsabs=1e-10, limit=200)
            total += val
    return total


class JointStateSampler(Protocol):
    def __call__(self, times: np.ndarray, n: int, seed: int,
                 base_key: tuple[int, ...], threads: int
                 ) -> list[np.ndarray]: ...


@dataclass(frozen=True)
class RegenModel:
    """A joint regenerative model.

    ``cycle_generator(gen)`` draws one joint cycle as a tuple of per
    coordinate :class:`CyclePath`. ``joint_state_sampler``, when present, is
    a vectorised route to i.i.d. stationary-window states that must agree in
    law with the generator; the test suite cross-checks the two.
    """

    name: str
    dimension: int
    state_dims: tuple[int, ...]
    cycle_means: tuple[float, ...]
    cycle_generator: Callable[[np.random.Generator], tuple[CyclePath, ...]]
    joint_state_sampler: JointStateSampler | None = None


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


def evaluate_at(realization: Realization, i: int, t: float) -> np.ndarray:
    """State of coordinate ``i`` at absolute time ``t``."""
    return realization.state_at(i, t)


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
    for k in range(n_cycles):
        path = model.cycle_generator(gen)[i]
        lengths[k] = path.length
        for j, g in enumerate(gs):
            rewards[k, j] = path_integral(path, g)
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


def time_average_estimate(model: RegenModel, i: int, g, horizon: float, rng,
                          n_batches: int = 32,
                          max_cycles: int = DEFAULT_CYCLE_BUDGET) -> Estimate:
    """Pathwise time average ``horizon^{-1} int_0^horizon g(X_i(s)) ds``
    from a single long run, with a batch-means SE."""
    mu = model.cycle_means[i]
    if not horizon >= 100.0 * mu:
        raise ValueError(f"horizon must cover at least 100 mean cycles "
                         f"({100.0 * mu:g})")
    gen = as_generator(rng)
    edges = np.linspace(0.0, horizon, n_batches + 1)
    batches = np.zeros(n_batches)
    pieces: list[float] = []
    is_const = isinstance(g, StateFunction) and g.kind == "constant"
    start = 0.0
    comp = 0.0
    drawn = 0
    while start < horizon:
        if drawn >= max_cycles:
            raise BudgetExceededError(
                f"time average exceeded {max_cycles} cycles")
        path = model.cycle_generator(gen)[i]
        drawn += 1
        y = path.length - comp
        end = start + y
        comp = (end - start) - y
        limit = min(end, horizon)
        cut = start
        while cut < limit:
            b = min(int(np.searchsorted(edges, cut, side="right")) - 1,
                    n_batches - 1)
            nxt = min(limit, float(edges[b + 1]))
            # single-difference piece lengths keep constant integrands exact
            if is_const:
                piece = g.offset * (nxt - cut)
            else:
                lo = cut - start
                piece = path_integral(path, g, lo=lo, hi=lo + (nxt - cut))
            batches[b] += piece
            pieces.append(piece)
            cut = nxt
        start = end
    width = horizon / n_batches
    value = math.fsum(pieces) / horizon
    means = batches / width
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    return Estimate(value, se)


def sample_stationary(model: RegenModel, i: int, t_burn: float, rng,
                      max_cycles: int = DEFAULT_CYCLE_BUDGET) -> np.ndarray:
    """One draw of coordinate ``i`` observed at ``t_burn``, which must cover
    at least 100 mean cycles so the window is effectively stationary."""
    if not t_burn >= 100.0 * model.cycle_means[i]:
        raise ValueError("t_burn must cover at least 100 mean cycles")
    real = Realization(model, rng, max_cycles)
    return real.state_at(i, t_burn)


def default_burn_in(model: RegenModel) -> float:
    return max(1000.0, 100.0 * max(model.cycle_means))


def sample_states(model: RegenModel, times, n: int, seed: int, *,
                  base_key: tuple[int, ...] = (1003,),
                  threads: int | None = None,
                  max_cycles: int = DEFAULT_CYCLE_BUDGET) -> list[np.ndarray]:
    """``n`` i.i.d. joint observations, coordinate ``i`` at ``times[i]``.

    Returns one (n, state_dim_i) array per coordinate. Uses the model's
    vectorised sampler when available, else independent realizations, one
    per replication on its own substream.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != model.dimension:
        raise ValueError("one observation time per coordinate is required")
    if np.any(times < 0.0):
        raise ValueError("observation times must be nonnegative")
    if model.joint_state_sampler is not None:
        return model.joint_state_sampler(times, int(n), int(seed),
                                         tuple(base_key),
                                         thread_count(threads))
    outs = [np.empty((n, d)) for d in model.state_dims]
    for r in range(n):
        real = Realization(model, substream(seed, *base_key, r), max_cycles)
        for i in range(model.dimension):
            outs[i][r] = real.state_at(i, float(times[i]))
    return outs
