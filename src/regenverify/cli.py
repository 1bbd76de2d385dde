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
from .asymptotics import (check, check_hypotheses, convergence_sweep,
                          final_gap_verdict, quantile_indicator_tuples,
                          require_replications)
from .config import (ScenarioConfig, canonical_json, load_scenario,
                     scenario_to_json)
from .engine import (Moments, RegenModel, default_burn_in, exp_neg,
                     renewal_reward_estimate, require_cycle_budget,
                     require_horizon, require_window_budget, sample_states,
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


def _report(cfg: ScenarioConfig, passed: bool, line: str, files: dict,
            fail: int = EXIT_STATISTICAL) -> int:
    """Write a command's files in the scenario's ``output.formats``, print
    its ``PASS``/``FAIL`` line and return its exit code.

    ``files`` maps a file name to its JSON payload, or, for a ``.csv``, to
    its header and rows. Every file carries the seed and the version; CSV
    floats have 17 significant digits, which round-trip exactly."""
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.run.seed
    for name, content in files.items():
        fmt = name.rsplit(".", 1)[1]
        if fmt not in cfg.output.formats:
            continue
        if fmt == "json":
            text = canonical_json({**content, "seed": seed,
                                   "version": __version__})
        else:
            header, rows = content
            text = "\n".join(
                [",".join(header)]
                + [",".join(c if isinstance(c, str) else f"{float(c):.17g}"
                            for c in row) for row in rows]
                + [f"# seed={seed}, version={__version__}"])
        (out / name).write_text(text + "\n", encoding="utf-8")
    print(f"{'PASS' if passed else 'FAIL'} {line}")
    return EXIT_OK if passed else fail


def _sweep_refusals(cfg: ScenarioConfig, model: RegenModel) -> float:
    """What verify-independence refuses before drawing: a short run, which
    is a configuration error whatever the schedule, and a window over
    ``require_window_budget`` for the pre-pass's rows at the burn-in or the
    run's replications at the last grid time, where every schedule is at
    its largest. Returns the burn-in: ``run.burn_in``, or
    ``default_burn_in``."""
    run = cfg.run
    require_replications(run.replications)
    burn = run.burn_in if run.burn_in is not None else default_burn_in(model)
    if run.test_functions == "quantile_indicators":
        require_window_budget(model, [burn] * model.dimension,
                              run.quantile_prepass)
    require_window_budget(model, cfg.schedule.values(run.t_grid[-1]),
                          run.replications)
    return burn


def _require_status(spec) -> None:
    """What status-pi refuses before building the model: another family."""
    if not isinstance(spec, StatusSpec):
        raise ConfigurationError("status-pi needs a status model",
                                 "model.kind")


def _status_refusals(run, model: RegenModel) -> float:
    """What status-pi refuses before drawing: a window over
    ``require_window_budget`` for the run's replications at the burn-in,
    which it returns."""
    burn = run.burn_in if run.burn_in is not None else default_burn_in(model)
    require_window_budget(model, [burn] * model.dimension, run.replications)
    return burn


def _stationary_refusals(run, model: RegenModel) -> float:
    """What stationary refuses before drawing: a ``run.coordinate`` the
    model lacks, a ``run.g`` reading a component past that coordinate's
    state, a short horizon and a cycle route over budget. Returns the
    time-average horizon: ``run.horizon``, or 200 mean cycles and at least
    10 000."""
    i = run.coordinate
    if i >= model.dimension:
        raise ConfigurationError(
            f"coordinate {i} out of range for a "
            f"{model.dimension}-coordinate model", "run.coordinate")
    width = model.state_dims[i]
    if run.g.component >= width:
        raise ConfigurationError(
            f"component {run.g.component} out of range for coordinate "
            f"{i}, whose state has {width} component(s)", "run.g.component")
    horizon = run.horizon
    if horizon is None:
        horizon = max(10_000.0, 200.0 * model.cycle_means[i])
    require_horizon(model, i, horizon)
    require_cycle_budget(run.n_cycles)
    return horizon


def cmd_validate(args) -> int:
    cfg = _load(args)
    # a file with neither a schedule nor run.g is a status-pi scenario
    status = cfg.schedule is None and cfg.run.g is None
    if status:
        _require_status(cfg.model)
    model = _build(cfg.model)
    if cfg.schedule is not None:
        _sweep_refusals(cfg, model)
    if cfg.run.g is not None:
        _stationary_refusals(cfg.run, model)
    if status:
        _status_refusals(cfg.run, model)
    print(canonical_json(scenario_to_json(cfg)))
    return EXIT_OK


def cmd_verify_independence(args) -> int:
    cfg = _load(args)
    if cfg.schedule is None:
        raise ConfigurationError("verify-independence needs a schedule "
                                 "section", "schedule")
    model = _build(cfg.model)
    # reject a short run before the quantile pre-pass pays for it
    burn = _sweep_refusals(cfg, model)
    run = cfg.run
    seed = run.seed

    verdict = check_hypotheses(cfg.schedule, model.cycle_means)
    if not verdict.passed and not run.allow_hypothesis_fail:
        return _report(
            cfg, False, "hypothesis: schedule does not separate the "
            "coordinates (rerun with allow_hypothesis_fail for a negative "
            "control)",
            {"verdict.json": {"passed": False, "reason": "hypothesis_failed",
                              "hypothesis": verdict.to_json_dict()}},
            fail=EXIT_HYPOTHESIS)

    if run.test_functions == "exp_decay":
        f_tuples = [("exp", tuple(exp_neg() for _ in range(model.dimension)))]
    else:
        f_tuples = quantile_indicator_tuples(
            model, burn, seed, prepass=run.quantile_prepass)
    sweep = convergence_sweep(
        model, cfg.schedule, run.t_grid, f_tuples, run.replications, seed,
        allow_hypothesis_fail=True)

    finals = sweep.at_final_t()
    passed, per_tuple = final_gap_verdict(sweep)
    return _report(
        cfg, passed, f"product-form gap at t={sweep.t_grid[-1]:g}: worst gap "
        f"{max(g.gap for g in finals):.5f} over {len(finals)} test-function "
        "tuples",
        {"gap.csv": (["t", "f_tuple_id", "gap", "se", "n"],
                     [[g.t, g.f_id, g.gap, g.se, float(g.n)]
                      for g in sweep.gaps]),
         "verdict.json": {"passed": passed,
                          "hypothesis": verdict.to_json_dict(),
                          "final_t": sweep.t_grid[-1],
                          "per_tuple": per_tuple,
                          "replications": run.replications,
                          "t_grid": list(sweep.t_grid)}})


def cmd_status_pi(args) -> int:
    cfg = _load(args)
    _require_status(cfg.model)
    model = _build(cfg.model)
    run = cfg.run
    # refuse before the closed form's quadrature pays for it
    burn = _status_refusals(run, model)
    pi = pi_closed_form(cfg.model)
    n = run.replications
    # folds 1 where every source has completed its current update
    [totals] = sample_states(
        model, [burn] * model.dimension, n, run.seed, base_key=(3,),
        reduce=lambda states: [Moments.of([np.logical_and.reduce(
            [x[:, 0] > x[:, 1] for x in states])])])
    pi_hat = float(totals.mean[0])
    # the null value is known, so the check uses the exact binomial SE
    se = math.sqrt(pi * (1.0 - pi) / n)
    z = _z(pi_hat - pi, se)
    passed = check(abs(pi_hat - pi), se)["ok"]
    return _report(
        cfg, passed, f"all-updated probability: closed form {pi:.6f}, "
        f"simulated {pi_hat:.6f} (z={z:+.2f}, n={n})",
        {"pi.json": {"pi_closed_form": pi, "pi_simulated": pi_hat, "se": se,
                     "z_score": z if math.isfinite(z) else "inf",
                     "replications": n, "burn_in": burn, "passed": passed},
         "pi.csv": (["pi_closed_form", "pi_simulated", "se", "z_score", "n"],
                    [[pi, pi_hat, se, z, float(n)]])})


def cmd_stationary(args) -> int:
    cfg = _load(args)
    run = cfg.run
    if run.g is None:
        raise ConfigurationError("stationary needs run.g naming a test "
                                 "function", "run.g")
    model = _build(cfg.model)
    # reject a short horizon before the cycle route pays for it
    horizon = _stationary_refusals(run, model)
    g = run.g
    i = run.coordinate
    rr = renewal_reward_estimate(model, i, g, run.n_cycles,
                                 substream(run.seed, 11))
    ta = time_average_estimate(model, i, g, horizon, substream(run.seed, 13))
    diff = abs(rr.value - ta.value)
    se = math.sqrt(rr.se ** 2 + ta.se ** 2)
    z = _z(diff, se)
    passed = check(diff, se)["ok"]
    return _report(
        cfg, passed, f"stationary mean of {g.label()} on coordinate {i}: "
        f"cycle route {rr.value:.6f} (se {rr.se:.2g}), time-average route "
        f"{ta.value:.6f} (se {ta.se:.2g}), z={z:.2f}",
        {"stationary.csv": (["coordinate", "g", "renewal_reward", "rr_se",
                             "time_average", "ta_se", "z"],
                            [[float(i), g.label(), rr.value, rr.se, ta.value,
                              ta.se, z]]),
         "stationary.json": {"coordinate": i, "g": g.label(),
                             "renewal_reward": rr.value, "rr_se": rr.se,
                             "time_average": ta.value, "ta_se": ta.se,
                             "z": z if math.isfinite(z) else "inf",
                             "n_cycles": run.n_cycles, "horizon": horizon,
                             "passed": passed}})


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
