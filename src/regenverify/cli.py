"""Command-line scenario runner.

Exit codes: 0 all checks passed, 2 configuration rejected, 3 a statistical
check failed, 4 the schedule hypotheses failed without an override, 5 a
simulation budget was exhausted, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (Z_LIMIT, check_hypotheses, convergence_sweep,
                          final_gap_verdict, quantile_indicator_tuples,
                          require_replications)
from .config import (ScenarioConfig, canonical_json, load_scenario,
                     scenario_to_json)
from .engine import (RegenModel, default_burn_in, exp_neg,
                     renewal_reward_estimate, require_cycle_budget,
                     require_horizon, sample_states, thread_count,
                     time_average_estimate)
from .errors import (ArithmeticCyclesWarning, BudgetExceededError,
                     ConfigurationError)
from .models import StatusSpec, build_model, pi_closed_form
from .randomness import substream

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3
EXIT_HYPOTHESIS = 4
EXIT_BUDGET = 5


def _fmt(x: float) -> str:
    """Floats in output files: 17 significant digits round-trip exactly."""
    return f"{float(x):.17g}"


def _metadata_line(seed: int) -> str:
    return f"# seed={seed}, version={__version__}"


def _write_csv(path: Path, header: list[str], rows: list[list],
               seed: int) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else _fmt(c) for c in row]
        lines.append(",".join(cells))
    lines.append(_metadata_line(seed))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict, seed: int) -> None:
    payload = dict(payload)
    payload["seed"] = seed
    payload["version"] = __version__
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _load(args) -> ScenarioConfig:
    cfg = load_scenario(args.config).with_overrides(
        seed=args.seed, replications=args.reps, directory=args.out)
    try:
        cfg.run.validate()
    except ConfigurationError as exc:
        # the file's run section passed, so an override is at fault
        flag = {"seed": "--seed", "replications": "--reps"}[exc.path]
        raise ConfigurationError(exc.message, flag) from exc
    return cfg


def _out_dir(cfg: ScenarioConfig) -> Path:
    path = Path(cfg.output.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build(spec) -> RegenModel:
    """The scenario's model; its arithmetic-cycle warnings become ``WARN:``
    lines on stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ArithmeticCyclesWarning)
        model = build_model(spec)
    for w in caught:
        if issubclass(w.category, ArithmeticCyclesWarning):
            print(f"WARN: {w.message}")
    return model


def _z(diff: float, se: float) -> float:
    """``diff / se``, reading 0/0 as 0 and x/0 as infinite."""
    if diff == 0.0:
        return 0.0
    return math.inf if se == 0.0 else diff / se


def _check_observed(run, model: RegenModel) -> None:
    """Reject a ``run.coordinate`` the model lacks, or a ``run.g`` reading
    a component past that coordinate's state."""
    if run.coordinate >= model.dimension:
        raise ConfigurationError(
            f"coordinate {run.coordinate} out of range for a "
            f"{model.dimension}-coordinate model", "run.coordinate")
    width = model.state_dims[run.coordinate]
    if run.g.component >= width:
        raise ConfigurationError(
            f"component {run.g.component} out of range for coordinate "
            f"{run.coordinate}, whose state has {width} component(s)",
            "run.g.component")


def cmd_validate(args) -> int:
    cfg = _load(args)
    model = _build(cfg.model)
    # the run checks verify-independence and stationary make before drawing
    if cfg.schedule is not None:
        require_replications(cfg.run.replications)
    if cfg.run.g is not None:
        _check_observed(cfg.run, model)
        i = cfg.run.coordinate
        require_horizon(model, i, _horizon(cfg.run, model.cycle_means[i]))
        require_cycle_budget(cfg.run.n_cycles)
    print(canonical_json(scenario_to_json(cfg)))
    return EXIT_OK


def cmd_verify_independence(args) -> int:
    cfg = _load(args)
    if cfg.schedule is None:
        raise ConfigurationError("verify-independence needs a schedule "
                                 "section", "schedule")
    model = _build(cfg.model)
    run = cfg.run
    # a short run is a configuration error whatever the schedule; reject it
    # before any output is written or the quantile pre-pass pays for it
    require_replications(run.replications)
    seed = run.seed
    out = _out_dir(cfg)
    threads = thread_count()

    verdict = check_hypotheses(cfg.schedule, model.cycle_means)
    if not verdict.passed and not run.allow_hypothesis_fail:
        if "json" in cfg.output.formats:
            _write_json(out / "verdict.json",
                        {"passed": False, "reason": "hypothesis_failed",
                         "hypothesis": verdict.to_json_dict()}, seed)
        print("FAIL hypothesis: schedule does not separate the coordinates "
              "(rerun with allow_hypothesis_fail for a negative control)")
        return EXIT_HYPOTHESIS

    burn = run.burn_in if run.burn_in is not None else default_burn_in(model)
    if run.test_functions == "exp_decay":
        f_tuples = [("exp", tuple(exp_neg() for _ in range(model.dimension)))]
    else:
        f_tuples = quantile_indicator_tuples(
            model, burn, seed, prepass=run.quantile_prepass, threads=threads)
    sweep = convergence_sweep(
        model, cfg.schedule, run.t_grid, f_tuples, run.replications, seed,
        allow_hypothesis_fail=True, threads=threads)

    if "csv" in cfg.output.formats:
        rows = [[g.t, g.f_id, g.gap, g.se, float(g.n)] for g in sweep.gaps]
        _write_csv(out / "gap.csv", ["t", "f_tuple_id", "gap", "se", "n"],
                   rows, seed)

    finals = sweep.at_final_t()
    passed, per_tuple = final_gap_verdict(sweep)
    payload = {
        "passed": bool(passed),
        "hypothesis": verdict.to_json_dict(),
        "final_t": sweep.t_grid[-1],
        "per_tuple": per_tuple,
        "replications": run.replications,
        "t_grid": list(sweep.t_grid),
    }
    if "json" in cfg.output.formats:
        _write_json(out / "verdict.json", payload, seed)
    worst = max(g.gap for g in finals)
    status = "PASS" if passed else "FAIL"
    print(f"{status} product-form gap at t={sweep.t_grid[-1]:g}: "
          f"worst gap {worst:.5f} over {len(finals)} test-function tuples")
    return EXIT_OK if passed else EXIT_STATISTICAL


def cmd_status_pi(args) -> int:
    cfg = _load(args)
    if not isinstance(cfg.model, StatusSpec):
        raise ConfigurationError("status-pi needs a status model",
                                 "model.kind")
    model = _build(cfg.model)
    pi = pi_closed_form(cfg.model)
    run = cfg.run
    seed = run.seed
    burn = run.burn_in if run.burn_in is not None else default_burn_in(model)
    n = run.replications
    states = sample_states(model, [burn] * model.dimension, n, seed,
                           base_key=(3,), threads=thread_count())
    joint = np.ones(n, dtype=bool)
    for i in range(model.dimension):
        joint &= states[i][:, 0] > states[i][:, 1]
    pi_hat = float(joint.mean())
    # the null value is known, so the z-score uses the exact binomial SE
    se = math.sqrt(pi * (1.0 - pi) / n)
    z = _z(pi_hat - pi, se)
    passed = bool(abs(z) <= Z_LIMIT)
    payload = {"pi_closed_form": pi, "pi_simulated": pi_hat, "se": se,
               "z_score": z if math.isfinite(z) else "inf",
               "replications": n, "burn_in": burn,
               "passed": passed}
    out = _out_dir(cfg)
    if "json" in cfg.output.formats:
        _write_json(out / "pi.json", payload, seed)
    if "csv" in cfg.output.formats:
        _write_csv(out / "pi.csv",
                   ["pi_closed_form", "pi_simulated", "se", "z_score", "n"],
                   [[pi, pi_hat, se, z, float(n)]], seed)
    status = "PASS" if passed else "FAIL"
    print(f"{status} all-updated probability: closed form {pi:.6f}, "
          f"simulated {pi_hat:.6f} (z={z:+.2f}, n={n})")
    return EXIT_OK if passed else EXIT_STATISTICAL


def _horizon(run, mu: float) -> float:
    """The time-average horizon: ``run.horizon``, or 200 mean cycles and at
    least 10 000."""
    if run.horizon is not None:
        return run.horizon
    return max(10_000.0, 200.0 * mu)


def cmd_stationary(args) -> int:
    cfg = _load(args)
    run = cfg.run
    if run.g is None:
        raise ConfigurationError("stationary needs run.g naming a test "
                                 "function", "run.g")
    model = _build(cfg.model)
    _check_observed(run, model)
    g = run.g
    seed = run.seed
    i = run.coordinate
    horizon = _horizon(run, model.cycle_means[i])
    # reject a short horizon before the cycle route pays for it
    require_horizon(model, i, horizon)
    rr = renewal_reward_estimate(model, i, g, run.n_cycles,
                                 substream(seed, 11))
    ta = time_average_estimate(model, i, g, horizon, substream(seed, 13))
    z = _z(abs(rr.value - ta.value), math.sqrt(rr.se ** 2 + ta.se ** 2))
    passed = bool(z <= Z_LIMIT)
    out = _out_dir(cfg)
    if "csv" in cfg.output.formats:
        _write_csv(out / "stationary.csv",
                   ["coordinate", "g", "renewal_reward", "rr_se",
                    "time_average", "ta_se", "z"],
                   [[float(i), g.label(), rr.value, rr.se, ta.value, ta.se,
                     z]], seed)
    if "json" in cfg.output.formats:
        _write_json(out / "stationary.json",
                    {"coordinate": i, "g": g.label(),
                     "renewal_reward": rr.value, "rr_se": rr.se,
                     "time_average": ta.value, "ta_se": ta.se,
                     "z": z if math.isfinite(z) else "inf",
                     "n_cycles": run.n_cycles, "horizon": horizon,
                     "passed": passed}, seed)
    status = "PASS" if passed else "FAIL"
    print(f"{status} stationary mean of {g.label()} on coordinate {i}: "
          f"cycle route {rr.value:.6f} (se {rr.se:.2g}), time-average route "
          f"{ta.value:.6f} (se {ta.se:.2g}), z={z:.2f}")
    return EXIT_OK if passed else EXIT_STATISTICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regen-verify",
        description="Simulate regenerative processes with dependent cycles "
                    "and verify product-form limits at separated "
                    "observation times.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--reps", type=int, default=None,
                       help="override run.replications")
        p.add_argument("--out", default=None,
                       help="override output.directory")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate,
        "parse and validate a scenario, echoing its canonical form")
    add("verify-independence", cmd_verify_independence,
        "estimate the product-form gap over the scenario's time grid")
    add("status-pi", cmd_status_pi,
        "compare the closed-form all-updated probability with simulation")
    add("stationary", cmd_stationary,
        "compare the cycle-formula and time-average routes to a stationary "
        "mean")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # a ConfigurationError is a ValueError; operational preconditions
        # (replication floors, grid shape) are driven by user inputs too, so
        # reject them as configuration
        print(f"ERROR config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        print(f"ERROR budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # noqa: BLE001 - the CLI must map all failures
        print(f"ERROR internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
