"""Observation schedules, hypothesis checks, and product-form gap statistics.

The central claim under test: coordinates of a regenerative process with
dependent cycles, observed at times that diverge and separate fast enough
relative to the coordinates' mean cycle lengths, become asymptotically
independent with marginals given by the cycle formula. The checks here
verify the schedule hypotheses symbolically and measure departures from the
product form empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (Moments, RegenModel, StateFunction, indicator_le,
                     sample_states)
from .errors import ConfigurationError, HypothesisError

# each family and the fields it reads
SCHEDULE_FAMILIES = {"affine": ("a", "b"), "power": ("a", "p")}
GAP_FLOOR = 0.02
Z_LIMIT = 3.0
QUANTILE_PREPASS = 10_000


@dataclass(frozen=True)
class ScheduleCoordinate:
    """One observation clock, ``a * t + b`` (affine) or ``a * t**p``
    (power)."""

    family: str
    a: float
    b: float = 0.0
    p: float = 1.0

    def validate(self) -> "ScheduleCoordinate":
        if self.family not in SCHEDULE_FAMILIES:
            raise ConfigurationError(
                f"unknown schedule family {self.family!r}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ConfigurationError("schedule slope a must be positive")
        if self.family == "affine":
            if not math.isfinite(self.b):
                raise ConfigurationError("schedule shift b must be finite")
        else:
            if not (self.p >= 0.0 and math.isfinite(self.p)):
                raise ConfigurationError(
                    "schedule exponent p must be finite and >= 0")
        return self

    def value(self, t: float) -> float:
        if self.family == "affine":
            return self.a * t + self.b
        # an overflowing clock is infinite, which the window budget refuses
        try:
            return self.a * t ** self.p
        except OverflowError:
            return math.inf

    @property
    def growth_exponent(self) -> float:
        return 1.0 if self.family == "affine" else self.p


@dataclass(frozen=True)
class ScheduleSpec:
    coordinates: tuple[ScheduleCoordinate, ...]

    @classmethod
    def affine(cls, pairs) -> "ScheduleSpec":
        return cls(tuple(ScheduleCoordinate("affine", float(a), float(b))
                         for a, b in pairs))

    def validate(self) -> "ScheduleSpec":
        if not self.coordinates:
            raise ConfigurationError("schedule needs at least one coordinate")
        for c in self.coordinates:
            c.validate()
        return self

    def values(self, t: float) -> np.ndarray:
        return np.array([c.value(t) for c in self.coordinates])


def _liminf_ratio(lo: ScheduleCoordinate, hi: ScheduleCoordinate) -> float:
    """liminf of v_lo(t) / v_hi(t) as t -> inf."""
    if lo.growth_exponent > hi.growth_exponent:
        return math.inf
    if lo.growth_exponent < hi.growth_exponent:
        return 0.0
    return lo.a / hi.a


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of the separation check.

    ``order`` sorts coordinates by ascending mean cycle length (faster
    coordinates need later, larger observation times). For consecutive
    coordinates in that order, ``ratios[k]`` is the liminf of the earlier
    schedule over the later one and must strictly exceed ``bounds[k]``, the
    ratio of the mean cycle lengths. ``witness`` names the first violating
    pair in original coordinate labels.
    """

    passed: bool
    order: tuple[int, ...]
    ratios: tuple[float, ...]
    bounds: tuple[float, ...]
    diverges: bool
    witness: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "order": list(self.order),
            "ratios": [_json_float(r) for r in self.ratios],
            "bounds": [_json_float(b) for b in self.bounds],
            "diverges": self.diverges,
            "witness": list(self.witness) if self.witness else None,
        }


def _json_float(x: float):
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def check_hypotheses(schedule: ScheduleSpec, cycle_means) -> HypothesisVerdict:
    """Decide whether a schedule separates coordinates fast enough.

    Coordinates are sorted by ascending mean cycle length; ties keep the
    configured order (the check is syntactic in the labels, so with equal
    means the caller must list faster-growing schedules first to pass).
    """
    schedule.validate()
    means = tuple(float(x) for x in cycle_means)
    coords = schedule.coordinates
    if len(means) != len(coords):
        raise ConfigurationError(
            "schedule and model disagree on the number of coordinates")
    for mu in means:
        if not (mu > 0.0 and math.isfinite(mu)):
            raise ConfigurationError("cycle means must be positive and finite")
    order = tuple(sorted(range(len(coords)), key=lambda i: means[i]))
    ratios = []
    bounds = []
    witness = None
    for k in range(len(order) - 1):
        i, j = order[k], order[k + 1]
        r = _liminf_ratio(coords[i], coords[j])
        ratios.append(r)
        bounds.append(means[i] / means[j])
        if witness is None and not r > bounds[-1]:
            witness = (i, j)
    last = coords[order[-1]]
    diverges = last.growth_exponent > 0.0
    return HypothesisVerdict(passed=diverges and witness is None,
                             order=order, ratios=tuple(ratios),
                             bounds=tuple(bounds), diverges=diverges,
                             witness=witness)


@dataclass(frozen=True)
class GapEstimate:
    """Empirical departure from the product form for one (t, f-tuple)."""

    t: float
    f_id: str
    n: int
    gap: float
    se: float
    mean_of_products: float
    marginal_means: tuple[float, ...]
    marginal_ses: tuple[float, ...]
    degenerate: bool = False


def product_form_gap(totals: Moments, *, t: float = math.nan,
                     f_id: str = "f") -> GapEstimate:
    """``| mean prod_i f_i  -  prod_i mean f_i |`` with the delta-method SE
    of the signed gap, from the :class:`engine.Moments` of the rows
    ``(p, s_1, ..., s_m)`` over the replications, ``s_i`` the values of
    coordinate ``i``'s test function and ``p = prod_i s_i``.

    The signed gap is a smooth function of the sample means of ``p`` and of
    each ``s_i``; its influence function is ``p - sum_i (prod_{j != i} mean
    s_j) s_i`` up to a constant, so the SE is ``sqrt(w C w / n)``, ``C``
    the rows' ``ddof=1`` covariance and ``w = (1, -prod_{j != i} mean
    s_j)`` (van der Vaart, Asymptotic Statistics, ch. 3 and 20). A tuple
    with a constant ``s_i`` (min equals max) has gap 0 by construction, so
    it is flagged as degenerate, not counted as evidence of independence.
    Indicator gaps are exact however the replications were chunked; SEs
    and continuous means can move in the last bits with the chunking.
    """
    n = totals.count
    if totals.sums.size < 2:
        raise ValueError("totals need a product row and a coordinate row")
    if n < 1000:
        raise ValueError("need at least 1000 replications for a stable gap")
    means = totals.mean
    col_means = means[1:]
    m = len(col_means)
    mean_of_products = float(means[0])
    gap = abs(mean_of_products - float(col_means.prod()))
    others = np.array([np.delete(col_means, i).prod() for i in range(m)])
    w = np.concatenate(([1.0], -others))
    cov = totals.comoment / (n - 1)
    se = math.sqrt(max(float(w @ cov @ w), 0.0) / n)
    return GapEstimate(
        t=float(t), f_id=str(f_id), n=n, gap=gap, se=se,
        mean_of_products=mean_of_products,
        marginal_means=tuple(float(v) for v in col_means),
        marginal_ses=tuple(math.sqrt(float(v) / n)
                           for v in np.diag(cov)[1:]),
        degenerate=bool((totals.lo[1:] == totals.hi[1:]).any()))


@dataclass(frozen=True)
class SweepResult:
    t_grid: tuple[float, ...]
    gaps: tuple[GapEstimate, ...]

    def at_final_t(self) -> tuple[GapEstimate, ...]:
        return tuple(g for g in self.gaps if g.t == self.t_grid[-1])


def require_replications(replications: int) -> None:
    """Reject a sweep with too few replications for a stable gap."""
    if replications < 1000:
        raise ValueError("need at least 1000 replications")


def convergence_sweep(model: RegenModel, schedule: ScheduleSpec, t_grid,
                      f_tuples, replications: int, seed: int, *,
                      allow_hypothesis_fail: bool = False) -> SweepResult:
    """Gap estimates over an increasing time grid, each from the totals
    its chunks of states fold into, one :class:`Moments` per tuple."""
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 3 points")
    require_replications(replications)
    verdict = check_hypotheses(schedule, model.cycle_means)
    if not verdict.passed and not allow_hypothesis_fail:
        raise HypothesisError(verdict)

    def fold(states) -> list[Moments]:
        cols = [np.array([f(x) for f, x in zip(fs, states)], dtype=float)
                for _, fs in f_tuples]
        return [Moments.of(np.vstack([c.prod(axis=0), c])) for c in cols]

    gaps = []
    for k, t in enumerate(grid):
        totals = sample_states(model, schedule.values(t), replications, seed,
                               base_key=(101, k), reduce=fold)
        gaps += [product_form_gap(tot, t=t, f_id=f_id)
                 for (f_id, _), tot in zip(f_tuples, totals)]
    return SweepResult(t_grid=grid, gaps=tuple(gaps))


def check(diff: float, se: float, floor: float = 0.0) -> dict:
    """The pass rule of every command: ``diff`` passes when it is at most
    ``max(floor, Z_LIMIT * se)``. Returns that ``threshold``, the term that
    set it (``threshold_by``: ``"se"`` when ``Z_LIMIT * se`` strictly
    exceeds the floor, else ``"floor"``) and ``ok``; a NaN ``diff``
    fails."""
    by_se = Z_LIMIT * se > floor
    threshold = Z_LIMIT * se if by_se else floor
    return {"threshold": threshold, "threshold_by": "se" if by_se else "floor",
            "ok": bool(diff <= threshold)}


def final_gap_verdict(sweep: SweepResult, gap_floor: float = GAP_FLOOR
                      ) -> tuple[bool, list[dict]]:
    """Pass/fail rule at the last grid time, shared by the CLI and the
    calibration checks: every f-tuple's gap passes :func:`check` with floor
    ``gap_floor``. Each row carries that check's threshold, the term that
    set it and its ``ok``."""
    per_tuple = [{"f_id": g.f_id, "gap": g.gap, "se": g.se,
                  "degenerate": g.degenerate, **check(g.gap, g.se, gap_floor)}
                 for g in sweep.at_final_t()]
    return all(row["ok"] for row in per_tuple), per_tuple


def _quantile(sample: np.ndarray, q: float) -> float:
    """``np.quantile(sample, q)`` bit for bit, by numpy's default "linear"
    rule on one partition: index ``h = (n - 1) q`` between order statistics
    ``a`` and ``b``, ``a + (b - a) g`` with ``g`` the fraction of ``h``, or
    ``b - (b - a) (1 - g)`` when ``g >= 0.5``. ``np.quantile`` itself calls
    ``np.unique``, which imports ``numpy.ma`` on first use."""
    n = sample.size
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    part = np.partition(sample, (lo, hi))
    a, b = part[lo], part[hi]
    g = h - lo
    diff = b - a
    return float(b - diff * (1.0 - g) if g >= 0.5 else a + diff * g)


def quantile_indicator_tuples(model: RegenModel, burn_in: float, seed: int, *,
                              prepass: int = QUANTILE_PREPASS
                              ) -> list[tuple[str, tuple[StateFunction, ...]]]:
    """Default test-function bank: per-coordinate threshold indicators at
    the stationary quartiles, thresholds fixed by a pre-pass."""
    states = sample_states(model, [burn_in] * model.dimension, prepass, seed,
                           base_key=(31,))
    tuples = []
    for q in (0.25, 0.5, 0.75):
        fs = tuple(indicator_le(_quantile(states[i][:, 0], q))
                   for i in range(model.dimension))
        tuples.append((f"q{int(round(q * 100))}", fs))
    return tuples
