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

from .engine import RegenModel, StateFunction, indicator_le, sample_states
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
        return self.a * t ** self.p

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


def product_form_gap(samples: np.ndarray, *, t: float = math.nan,
                     f_id: str = "f") -> GapEstimate:
    """``| mean prod_i f_i  -  prod_i mean f_i |`` with the delta-method SE
    of the signed gap.

    The signed gap is a smooth function of the sample means of the row
    product ``p = prod_i s_i`` and of each column ``s_i``; its influence
    function is ``p - sum_i (prod_{j != i} mean s_j) s_i`` up to a constant,
    so the SE is that quantity's standard deviation over sqrt(n) (van der
    Vaart, Asymptotic Statistics, ch. 3 and 20). The statistic only sees the
    sample matrix, so it is invariant under permuting replications. A
    tuple with a constant column has gap 0 by construction, so it is flagged
    as degenerate rather than counted as evidence of independence; its SE is
    0 up to rounding.
    """
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


@dataclass(frozen=True)
class SweepResult:
    t_grid: tuple[float, ...]
    gaps: tuple[GapEstimate, ...]
    trend: float

    def at_final_t(self) -> tuple[GapEstimate, ...]:
        return tuple(g for g in self.gaps if g.t == self.t_grid[-1])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    starts = np.cumsum(counts) - counts
    return (starts + (counts + 1) / 2.0)[inverse]


def floored_trend(t_grid, worst, gap_floor: float) -> float:
    """Spearman correlation of the worst gaps, clamped at ``gap_floor``,
    against t. Below the floor the ordering of the gaps is measurement
    noise, so gaps that all sit there give 0.0."""
    floored = np.maximum(np.asarray(worst, dtype=float), gap_floor)
    if np.all(floored == floored[0]):
        return 0.0
    ranks_t = _average_ranks(np.asarray(t_grid, dtype=float))
    return float(np.corrcoef(ranks_t, _average_ranks(floored))[0, 1])


def require_replications(replications: int) -> None:
    """Reject a sweep with too few replications for a stable gap."""
    if replications < 1000:
        raise ValueError("need at least 1000 replications")


def convergence_sweep(model: RegenModel, schedule: ScheduleSpec, t_grid,
                      f_tuples, replications: int, seed: int, *,
                      allow_hypothesis_fail: bool = False,
                      gap_floor: float = GAP_FLOOR,
                      threads: int | None = None) -> SweepResult:
    """Gap estimates over an increasing time grid plus the floored Spearman
    trend of the worst gap against t (negative means the gap is
    shrinking)."""
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 3 points")
    require_replications(replications)
    verdict = check_hypotheses(schedule, model.cycle_means)
    if not verdict.passed and not allow_hypothesis_fail:
        raise HypothesisError(verdict)
    gaps = []
    worst = []
    for k, t in enumerate(grid):
        states = sample_states(model, schedule.values(t), replications, seed,
                               base_key=(101, k), threads=threads)
        here = []
        for f_id, fs in f_tuples:
            mat = np.column_stack([np.asarray(fs[i](states[i]), dtype=float)
                                   for i in range(model.dimension)])
            est = product_form_gap(mat, t=t, f_id=f_id)
            gaps.append(est)
            here.append(est.gap)
        worst.append(max(here))
    return SweepResult(t_grid=grid, gaps=tuple(gaps),
                       trend=floored_trend(grid, worst, gap_floor))


def final_gap_verdict(sweep: SweepResult, gap_floor: float = GAP_FLOOR
                      ) -> tuple[bool, list[dict]]:
    """Pass/fail rule at the last grid time, shared by the CLI and the
    calibration checks: every f-tuple's gap must stay below
    ``max(gap_floor, Z_LIMIT * SE)``. Each row names the term that set its
    threshold: ``"floor"`` or ``"se"``."""
    per_tuple = []
    passed = True
    for g in sweep.at_final_t():
        by_se = Z_LIMIT * g.se > gap_floor
        threshold = Z_LIMIT * g.se if by_se else gap_floor
        ok = bool(g.gap <= threshold)
        passed = passed and ok
        per_tuple.append({"f_id": g.f_id, "gap": g.gap, "se": g.se,
                          "threshold": threshold,
                          "threshold_by": "se" if by_se else "floor",
                          "degenerate": g.degenerate, "ok": ok})
    return passed, per_tuple


def quantile_indicator_tuples(model: RegenModel, burn_in: float, seed: int, *,
                              prepass: int = QUANTILE_PREPASS,
                              threads: int | None = None
                              ) -> list[tuple[str, tuple[StateFunction, ...]]]:
    """Default test-function bank: per-coordinate threshold indicators at
    the stationary quartiles, thresholds fixed by a pre-pass."""
    states = sample_states(model, [burn_in] * model.dimension, prepass, seed,
                           base_key=(31,), threads=threads)
    tuples = []
    for q in (0.25, 0.5, 0.75):
        fs = tuple(indicator_le(float(np.quantile(states[i][:, 0], q)))
                   for i in range(model.dimension))
        tuples.append((f"q{int(round(q * 100))}", fs))
    return tuples
