"""Closed-form quantities of a benchmark scenario, computed from the scenario
file alone, without importing regenverify.

The cycle means, the separation verdict, the nominal cycle count and the
stationary value are what the benchmark checks the program against and what
it divides the wall time by, so they must not come from the program itself.
Only what the benchmark's workloads use is supported: exponential marginals,
independent or comonotone dependence (both leave the marginal means as they
are), affine clocks and the ``exp(-x)`` test function.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# defaults of regen-verify's run section that the workloads rely on
DEFAULT_PREPASS = 10_000
DEFAULT_GAP_FLOOR = 0.02
QUANTILE_LEVELS = 3


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _exp_mean(marginal: dict) -> float:
    if marginal.get("kind") != "exponential":
        raise ValueError(f"only exponential marginals are supported, got "
                         f"{marginal.get('kind')!r}")
    return 1.0 / float(marginal["rate"])


def _levy_load(coord: dict) -> float:
    rate = float(coord.get("jump_rate", 0.0))
    return rate * _exp_mean(coord["jump_size"]) if rate > 0.0 else 0.0


def jackson_arrival_totals(model: dict) -> np.ndarray:
    """Traffic equations of an open Jackson network: lambda = a + P^T lambda."""
    a = np.asarray(model["arrival_rates"], dtype=float)
    p = np.asarray(model["routing"], dtype=float)
    return np.linalg.solve(np.eye(len(a)) - p.T, a)


def cycle_means(model: dict) -> list[float]:
    """Mean regeneration cycle length of each coordinate.

    clearing: 1/rate; Jackson: 1/(sum lambda * prod(1 - rho_j)) for every
    coordinate; Levy queue: E U / (1 - lambda E J) (Wald over a busy period
    started by the restart jump U)."""
    kind = model["kind"]
    dep = model.get("dependence", {"kind": "independent"})["kind"]
    if dep not in ("independent", "comonotone"):
        raise ValueError(f"dependence {dep!r} changes the cycle means")
    if kind == "clearing":
        return [_exp_mean(c["cycle_length"]) for c in model["coordinates"]]
    if kind == "levy_queue":
        return [_exp_mean(c["restart_level"]) / (1.0 - _levy_load(c))
                for c in model["coordinates"]]
    if kind == "jackson":
        rho = (jackson_arrival_totals(model)
               / np.asarray(model["service_rates"], dtype=float))
        mean = 1.0 / (sum(model["arrival_rates"]) * float(np.prod(1.0 - rho)))
        return [mean] * len(rho)
    raise ValueError(f"model kind {kind!r} is not supported")


def _clocks(scenario: dict) -> list[tuple[float, float]]:
    out = []
    for c in scenario["schedule"]["coordinates"]:
        if c["family"] != "affine":
            raise ValueError("only affine clocks are supported")
        out.append((float(c["a"]), float(c.get("b", 0.0))))
    return out


def hypothesis(scenario: dict) -> dict:
    """The separation verdict regen-verify must report for an affine
    schedule: coordinates sorted by ascending cycle mean (ties keep their
    order), and for each consecutive pair the clock ratio a_i/a_j must
    exceed the mean ratio mu_i/mu_j."""
    means = cycle_means(scenario["model"])
    clocks = _clocks(scenario)
    order = sorted(range(len(means)), key=lambda i: means[i])
    ratios = [clocks[i][0] / clocks[j][0] for i, j in zip(order, order[1:])]
    bounds = [means[i] / means[j] for i, j in zip(order, order[1:])]
    return {"order": order, "ratios": ratios, "bounds": bounds,
            "passed": all(r > b for r, b in zip(ratios, bounds)),
            "diverges": True}


def burn_in(scenario: dict) -> float:
    run = scenario["run"]
    if "burn_in" in run:
        return float(run["burn_in"])
    return max(1000.0, 100.0 * max(cycle_means(scenario["model"])))


def uses_quantile_bank(scenario: dict) -> bool:
    return scenario["run"].get("test_functions",
                               "quantile_indicators") == "quantile_indicators"


def nominal_cycles(scenario: dict, command: str, replications: int) -> float:
    """Regeneration cycles the scenario covers, by the closed-form means.

    A sweep covers replications * v_i(t) / mu_i cycles per grid time and
    coordinate, plus prepass * burn_in / mu_i per coordinate when the
    quantile bank is used; ``stationary`` covers n_cycles + horizon / mu."""
    means = cycle_means(scenario["model"])
    run = scenario["run"]
    if command == "stationary":
        mu = means[int(run.get("coordinate", 0))]
        horizon = float(run.get("horizon", max(10_000.0, 200.0 * mu)))
        return float(run["n_cycles"]) + horizon / mu
    clocks = _clocks(scenario)
    total = sum(replications * (a * t + b) / mu
                for t in run["t_grid"] for (a, b), mu in zip(clocks, means))
    if uses_quantile_bank(scenario):
        prepass = int(run.get("quantile_prepass", DEFAULT_PREPASS))
        total += sum(prepass * burn_in(scenario) / mu for mu in means)
    return float(total)


def stationary_exp_mean(scenario: dict) -> float:
    """E exp(-X) for the stationary Levy-queue coordinate of a ``stationary``
    scenario with exponential restart levels and jumps.

    The stationary law is an M/G/1 workload plus the stationary excess of
    the restart level, phi(s) = (1 - rho) s / (s - lambda (1 - beta(s)))
    * (1 - nu(s)) / (s E U), taken at s = 1."""
    model, run = scenario["model"], scenario["run"]
    if model["kind"] != "levy_queue" or run["g"]["kind"] != "exponential":
        raise ValueError("only exp(-x) on a Levy queue has a closed form here")
    coord = model["coordinates"][int(run.get("coordinate", 0))]
    s = 1.0
    lam = float(coord.get("jump_rate", 0.0))
    rho = _levy_load(coord)
    beta = (1.0 / (1.0 + s * _exp_mean(coord["jump_size"]))
            if lam > 0.0 else 1.0)
    mean_u = _exp_mean(coord["restart_level"])
    nu = 1.0 / (1.0 + s * mean_u)
    workload = (1.0 - rho) * s / (s - lam * (1.0 - beta))
    return workload * (1.0 - nu) / (s * mean_u)
