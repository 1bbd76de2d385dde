"""Scenario configs (parse / serialize round trips, error paths) and the
command-line runner (exit codes, output files, determinism)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from regenverify import cli
from regenverify.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_HYPOTHESIS,
                             EXIT_OK, EXIT_STATISTICAL, main)
from regenverify.config import (canonical_json, load_scenario, loads_scenario,
                                parse_scenario, scenario_to_json)
from regenverify.errors import ConfigurationError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EXP = {"kind": "exponential", "rate": 1.0}


def roundtrip(obj: dict) -> str:
    cfg = parse_scenario(obj)
    first = canonical_json(scenario_to_json(cfg))
    second = canonical_json(scenario_to_json(loads_scenario(first)))
    assert first == second
    return first


def refuse(*args, **kwargs):
    """Stands in for a stage that must not run before a rejection."""
    raise AssertionError("a stage ran before the run was rejected")


def write_config(tmp_path: Path, obj: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def small_sweep_scenario(rates=(1.0, 0.5), out="out", *,
                         allow_fail=False) -> dict:
    return {
        "model": {
            "kind": "clearing",
            "coordinates": [
                {"cycle_length": {"kind": "exponential", "rate": r}}
                for r in rates],
            "dependence": {"kind": "comonotone"},
        },
        "schedule": {"coordinates": [{"family": "affine", "a": 1.0},
                                     {"family": "affine", "a": 1.0}]},
        "run": {"seed": 7, "replications": 2000, "t_grid": [5.0, 25.0, 100.0],
                "quantile_prepass": 2000, "burn_in": 200.0,
                "allow_hypothesis_fail": allow_fail},
        "output": {"directory": out, "formats": ["csv", "json"]},
    }


# ---------------------------------------------------------------------------
# parse / serialize round trips


def test_roundtrip_levy_gaussian_copula_power_schedule():
    roundtrip({
        "model": {
            "kind": "levy_queue",
            "coordinates": [
                {"restart_level": EXP, "jump_rate": 0.4,
                 "jump_size": {"kind": "gamma", "shape": 2.0, "rate": 4.0}},
                {"restart_level": {"kind": "shifted_uniform",
                                   "lo": 0.5, "hi": 1.5}},
            ],
            "dependence": {"kind": "gaussian_copula",
                           "correlation": [[1.0, 0.5], [0.5, 1.0]]},
        },
        "schedule": {"coordinates": [
            {"family": "power", "a": 1.0, "p": 2.0},
            {"family": "power", "a": 2.0, "p": 1.0}]},
        "run": {"seed": 1, "replications": 5000, "t_grid": [2.0, 4.0, 8.0],
                "horizon": 5000.0, "g": {"kind": "identity"}},
    })


def test_roundtrip_clearing_lattice_common_shock():
    roundtrip({
        "model": {
            "kind": "clearing",
            "coordinates": [
                {"cycle_length": {"kind": "lattice", "span": 0.5,
                                  "weights": {"1": 0.25, "3": 0.75}},
                 "drift": 0.0, "jump_rate": 1.0, "jump_size": EXP},
                {"cycle_length": EXP},
            ],
            "dependence": {"kind": "common_shock",
                           "shock": {"kind": "gamma", "shape": 1.5,
                                     "rate": 3.0}},
        },
        "run": {"seed": 2, "g": {"kind": "indicator", "threshold": 0.5}},
    })


def test_roundtrip_status_and_age_residual():
    roundtrip({
        "model": {
            "kind": "status",
            "sources": [
                {"inter_update": EXP,
                 "update_size": {"kind": "deterministic", "value": 0.5},
                 "capacity": 2.0},
            ],
        },
        "run": {"seed": 3, "burn_in": 50.0,
                "g": {"kind": "exponential", "component": 1}},
    })
    roundtrip({
        "model": {"kind": "age_residual", "cycle_length": EXP, "copies": 3},
        "schedule": {"coordinates": [{"a": 3.0}, {"a": 2.0}, {"a": 1.0}]},
        "run": {"seed": 4, "test_functions": "exp_decay"},
    })


def test_roundtrip_jackson():
    roundtrip({
        "model": {"kind": "jackson", "arrival_rates": [0.5, 0.0],
                  "service_rates": [1.0, 1.0],
                  "routing": [[0.0, 1.0], [0.0, 0.0]]},
        "schedule": {"coordinates": [{"a": 3.0, "b": 1.0}, {"a": 2.0}]},
        "run": {"seed": 5},
        "output": {"directory": "elsewhere", "formats": ["json"]},
    })


def test_null_values_match_omitted_fields():
    explicit = parse_scenario({
        "model": {"kind": "age_residual", "cycle_length": EXP,
                  "copies": None},
        "run": {"seed": 6, "horizon": None, "g": None},
    })
    implicit = parse_scenario({
        "model": {"kind": "age_residual", "cycle_length": EXP},
        "run": {"seed": 6},
    })
    assert (canonical_json(scenario_to_json(explicit))
            == canonical_json(scenario_to_json(implicit)))


# ---------------------------------------------------------------------------
# error paths carry JSON paths


@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o["run"].pop("seed"), "run.seed"),
    (lambda o: o.update(extra=1), "$"),
    (lambda o: o["model"].update(kind="mystery"), "model.kind"),
    (lambda o: o["model"]["coordinates"][0].update(color="red"),
     "model.coordinates[0]"),
    (lambda o: o["run"].update(t_grid=[5.0, 5.0, 9.0]), "run.t_grid"),
    # older scenario files may still set this retired field
    (lambda o: o["run"].update(bootstrap_resamples=400),
     "bootstrap_resamples"),
    (lambda o: o["schedule"]["coordinates"].pop(), "schedule.coordinates"),
    (lambda o: o["model"].update(dependence={
        "kind": "gaussian_copula", "correlation": [[1.0]]}), "dependence"),
    # spec-level checks name the coordinate, not just the section
    (lambda o: o["model"]["coordinates"][1].update(drift=-1.0),
     "model.coordinates[1]: drift"),
    (lambda o: o["schedule"]["coordinates"][0].update(a=0.0),
     "schedule.coordinates[0]: schedule slope"),
    (lambda o: o["model"].update(dependence={
        "kind": "gaussian_copula",
        "correlation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
     "model.dependence: correlation matrix is 3x3"),
    (lambda o: o["model"].update(dependence={
        "kind": "gaussian_copula", "correlation": [[1.0, 0.5], [0.5]]}),
     "model.dependence: correlation matrix must be square"),
    (lambda o: o["model"]["coordinates"][0]["cycle_length"].pop("rate"),
     "model.coordinates[0].cycle_length.rate: missing required field"),
    (lambda o: o["model"]["dependence"].update(kind="common_shock"),
     "model.dependence.shock: missing required field"),
])
def test_errors_name_the_offending_path(mutate, fragment):
    obj = small_sweep_scenario()
    mutate(obj)
    with pytest.raises(ConfigurationError) as err:
        parse_scenario(obj)
    assert fragment in str(err.value)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_t_grid_entries_must_be_finite(literal, tmp_path, capsys):
    text = json.dumps(small_sweep_scenario(out=str(tmp_path / "res")))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("25.0", literal), encoding="utf-8")
    for command in ("validate", "verify-independence"):
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert ("run.t_grid[1]: expected a finite number"
                in capsys.readouterr().err)


MUTANTS = (None, "x", True, [], {}, -1, 0, float("nan"), float("inf"))


def _mutants(obj):
    """Copies of ``obj`` with one change each: a key or array entry deleted
    or set to each of MUTANTS, or an unknown key added to an object."""
    if isinstance(obj, dict):
        yield {**obj, "zz_unknown": 1}
        slots = list(obj)
    else:
        slots = range(len(obj)) if isinstance(obj, list) else ()
    for key in slots:
        def put(value, drop=False):
            if isinstance(obj, dict):
                out = {k: v for k, v in obj.items() if k != key}
                if not drop:
                    out[key] = value
                return out
            return obj[:key] + ([] if drop else [value]) + obj[key + 1:]
        yield put(None, drop=True)
        for value in MUTANTS:
            yield put(value)
        for inner in _mutants(obj[key]):
            yield put(inner)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in CONFIG_DIR.glob("*.json")))
def test_mutated_configs_reject_or_echo_strict_json(name):
    base = json.loads((CONFIG_DIR / name).read_text())
    for mutant in _mutants(base):
        try:
            cfg = parse_scenario(mutant)
        except ConfigurationError:
            continue
        echo = canonical_json(scenario_to_json(cfg))
        json.loads(echo, parse_constant=_no_constant)
        assert canonical_json(scenario_to_json(loads_scenario(echo))) == echo


def test_unknown_g_kind_lists_choices():
    obj = small_sweep_scenario()
    obj["run"]["g"] = {"kind": "cubic"}
    with pytest.raises(ConfigurationError) as err:
        parse_scenario(obj)
    assert "expected one of" in str(err.value)
    assert "identity" in str(err.value)


def test_lattice_weight_keys_must_be_integers():
    with pytest.raises(ConfigurationError) as err:
        parse_scenario({
            "model": {"kind": "age_residual",
                      "cycle_length": {"kind": "lattice", "span": 1.0,
                                       "weights": {"a": 1.0}}},
            "run": {"seed": 1},
        })
    assert "weights" in str(err.value)


def test_invalid_json_text_rejected():
    with pytest.raises(ConfigurationError) as err:
        loads_scenario("{not json")
    assert "not valid JSON" in str(err.value)


# ---------------------------------------------------------------------------
# CLI: validate


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in CONFIG_DIR.glob("*.json")))
def test_bundled_configs_validate(name, capsys):
    rc = main(["validate", "--config", str(CONFIG_DIR / name)])
    assert rc == EXIT_OK
    echoed = "\n".join(line for line in capsys.readouterr().out.splitlines()
                       if not line.startswith("WARN:"))
    reparsed = loads_scenario(echoed)
    assert canonical_json(scenario_to_json(reparsed)) == echoed.strip()


def test_validate_rejects_unstable_levy(tmp_path, capsys):
    path = write_config(tmp_path, {
        "model": {"kind": "levy_queue",
                  "coordinates": [{"restart_level": EXP, "jump_rate": 1.2,
                                   "jump_size": EXP}]},
        "schedule": {"coordinates": [{"a": 1.0}]},
        "run": {"seed": 1},
    })
    rc = main(["validate", "--config", str(path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unstable" in err and "1.2" in err


def test_validate_warns_on_arithmetic_cycles(tmp_path, capsys):
    path = write_config(tmp_path, {
        "model": {"kind": "age_residual",
                  "cycle_length": {"kind": "deterministic", "value": 1.0},
                  "copies": 1},
        "run": {"seed": 1},
    })
    rc = main(["validate", "--config", str(path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "WARN:" in out and "arithmetic" in out


def test_missing_config_file(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG
    assert "ERROR config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: status-pi and stationary


def test_status_pi_outputs(tmp_path, capsys):
    rc = main(["status-pi", "--config", str(CONFIG_DIR / "status_pi.json"),
               "--reps", "20000", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS all-updated probability")
    payload = json.loads((tmp_path / "pi.json").read_text())
    for key in ("pi_closed_form", "pi_simulated", "se", "z_score",
                "replications", "burn_in", "passed", "seed", "version"):
        assert key in payload
    assert payload["passed"] is True
    assert abs(payload["pi_simulated"] - payload["pi_closed_form"]) \
        <= 3.0 * payload["se"]
    csv_lines = (tmp_path / "pi.csv").read_text().splitlines()
    assert csv_lines[0] == "pi_closed_form,pi_simulated,se,z_score,n"
    assert csv_lines[-1].startswith("# seed=20260814, version=")


def test_status_pi_rejects_other_models(tmp_path, capsys):
    path = write_config(tmp_path, small_sweep_scenario(out=str(tmp_path)))
    rc = main(["status-pi", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "status" in capsys.readouterr().err


def test_stationary_two_routes_agree(tmp_path, capsys):
    path = write_config(tmp_path, {
        "model": {"kind": "clearing",
                  "coordinates": [{"cycle_length": EXP}],
                  "dependence": {"kind": "independent"}},
        "run": {"seed": 9, "n_cycles": 2000, "horizon": 2000.0,
                "g": {"kind": "identity"}},
        "output": {"directory": str(tmp_path / "res")},
    })
    rc = main(["stationary", "--config", str(path)])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "res" / "stationary.json").read_text())
    assert payload["passed"] is True
    assert payload["z"] <= 3.0
    header = (tmp_path / "res" / "stationary.csv").read_text().splitlines()[0]
    assert header == ("coordinate,g,renewal_reward,rr_se,time_average,"
                      "ta_se,z")


def test_stationary_event_budget_exits_5(tmp_path, capsys, monkeypatch):
    from regenverify import models
    monkeypatch.setattr(models, "MAX_EVENTS_PER_CYCLE", 2)
    path = write_config(tmp_path, {
        "model": {"kind": "levy_queue",
                  "coordinates": [{"restart_level": EXP, "jump_rate": 0.9,
                                   "jump_size": EXP}],
                  "dependence": {"kind": "independent"}},
        "run": {"seed": 9, "n_cycles": 2000, "horizon": 2000.0,
                "g": {"kind": "identity"}},
        "output": {"directory": str(tmp_path / "res")},
    })
    assert main(["stationary", "--config", str(path)]) == EXIT_BUDGET
    assert "2 jumps" in capsys.readouterr().err


def test_verify_independence_cycle_budget_exits_5(tmp_path, capsys,
                                                  monkeypatch):
    from regenverify import engine
    monkeypatch.setattr(engine, "DEFAULT_CYCLE_BUDGET", 100)
    obj = small_sweep_scenario(out=str(tmp_path / "res"))
    path = write_config(tmp_path, obj)
    assert main(["verify-independence", "--config", str(path)]) == EXIT_BUDGET
    assert "100 cycles" in capsys.readouterr().err


def test_verify_independence_jackson_event_budget_exits_5(tmp_path, capsys,
                                                        monkeypatch):
    from regenverify import models
    monkeypatch.setattr(models, "MAX_EVENTS_PER_CYCLE", 1000)
    # the tandem steps at total rate 2.5 and is read at t^3 = 1000
    path = write_config(tmp_path, {
        "model": {"kind": "jackson", "arrival_rates": [0.5, 0.0],
                  "service_rates": [1.0, 1.0],
                  "routing": [[0.0, 1.0], [0.0, 0.0]]},
        "schedule": {"coordinates": [{"family": "power", "a": 1.0, "p": 3.0},
                                     {"family": "power", "a": 1.0, "p": 2.0}]},
        "run": {"seed": 7, "replications": 1000, "t_grid": [2.0, 3.0, 10.0],
                "quantile_prepass": 1000, "burn_in": 20.0},
        "output": {"directory": str(tmp_path / "res")},
    })
    assert main(["verify-independence", "--config", str(path)]) == EXIT_BUDGET
    assert "1000 events" in capsys.readouterr().err


def test_verify_independence_jackson_work_budget_exits_5(tmp_path, capsys):
    # a full chunk of 16384 rows on the tandem (total rate 2.5) read at
    # t = 244141 takes 16384 * 2.5 * 244141 > 10^10 expected row-steps;
    # t = 244140 would be admitted and run for minutes
    path = write_config(tmp_path, {
        "model": {"kind": "jackson", "arrival_rates": [0.5, 0.0],
                  "service_rates": [1.0, 1.0],
                  "routing": [[0.0, 1.0], [0.0, 0.0]]},
        "schedule": {"coordinates": [{"family": "affine", "a": 1.0},
                                     {"family": "affine", "a": 0.5}]},
        "run": {"seed": 7, "replications": 16384,
                "t_grid": [10.0, 20.0, 244141.0],
                "quantile_prepass": 1000, "burn_in": 20.0},
        "output": {"directory": str(tmp_path / "res")},
    })
    assert main(["verify-independence", "--config", str(path)]) == EXIT_BUDGET
    assert "10000000000 row-steps" in capsys.readouterr().err


def test_stationary_short_horizon_rejected_before_cycle_route(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "renewal_reward_estimate", refuse)
    obj = json.loads((CONFIG_DIR / "levy_stationary.json").read_text())
    obj["run"].update(horizon=5.0, n_cycles=1_000_000)
    obj["output"]["directory"] = str(tmp_path / "res")
    rc = main(["stationary", "--config", str(write_config(tmp_path, obj))])
    assert rc == EXIT_CONFIG
    assert ("horizon must cover at least 100 mean cycles"
            in capsys.readouterr().err)


def test_stationary_requires_g(tmp_path, capsys):
    obj = small_sweep_scenario(out=str(tmp_path))
    path = write_config(tmp_path, obj)
    rc = main(["stationary", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "run.g" in capsys.readouterr().err


def test_stationary_coordinate_out_of_range(tmp_path, capsys):
    path = write_config(tmp_path, {
        "model": {"kind": "clearing", "coordinates": [{"cycle_length": EXP}],
                  "dependence": {"kind": "independent"}},
        "run": {"seed": 9, "coordinate": 5, "g": {"kind": "identity"}},
        "output": {"directory": str(tmp_path)},
    })
    rc = main(["stationary", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "coordinate" in capsys.readouterr().err


def one_coordinate_clearing(tmp_path, **run) -> Path:
    return write_config(tmp_path, {
        "model": {"kind": "clearing", "coordinates": [{"cycle_length": EXP}],
                  "dependence": {"kind": "independent"}},
        "run": {"seed": 9, **run},
        "output": {"directory": str(tmp_path / "res")},
    })


def test_stationary_component_out_of_range(tmp_path, capsys):
    # the clearing state has one component, so x7 would read a constant 0
    path = one_coordinate_clearing(
        tmp_path, g={"kind": "identity", "component": 7})
    rc = main(["stationary", "--config", str(path)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "run.g.component" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("run, path", [
    ({"coordinate": 5, "g": {"kind": "identity"}}, "run.coordinate"),
    ({"g": {"kind": "identity", "component": 1}}, "run.g.component"),
], ids=["coordinate", "component"])
def test_validate_checks_what_stationary_reads(tmp_path, capsys, run, path):
    config = one_coordinate_clearing(tmp_path, **run)
    assert main(["validate", "--config", str(config)]) == EXIT_CONFIG
    assert path in capsys.readouterr().err


def test_validate_ignores_coordinate_without_g(tmp_path, capsys):
    # a verify-independence file reads every coordinate and has no run.g
    obj = small_sweep_scenario(out=str(tmp_path))
    obj["run"]["coordinate"] = 5
    path = write_config(tmp_path, obj)
    assert main(["validate", "--config", str(path)]) == EXIT_OK


# ---------------------------------------------------------------------------
# CLI: verify-independence


def test_verify_independence_positive(tmp_path, capsys):
    path = write_config(tmp_path,
                        small_sweep_scenario(out=str(tmp_path / "pos")))
    rc = main(["verify-independence", "--config", str(path)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS product-form gap")

    gap_lines = (tmp_path / "pos" / "gap.csv").read_text().splitlines()
    assert gap_lines[0] == "t,f_tuple_id,gap,se,n"
    assert len(gap_lines) == 1 + 9 + 1  # header, 3 t x 3 tuples, metadata
    assert gap_lines[-1].startswith("# seed=7, version=")

    verdict = json.loads((tmp_path / "pos" / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["hypothesis"]["passed"] is True
    assert verdict["final_t"] == 100.0
    assert len(verdict["per_tuple"]) == 3
    assert all(row["ok"] for row in verdict["per_tuple"])
    assert "trend" in verdict and "trend_ok" in verdict


def test_verify_independence_levy_default_bank(tmp_path, capsys):
    # two comonotone M/G/1 queues with vacations and the default quantile
    # bank, whose pre-pass samples at burn-in 1000
    path = write_config(tmp_path, {
        "model": {
            "kind": "levy_queue",
            "coordinates": [
                {"restart_level": EXP, "jump_rate": 0.5, "jump_size": EXP},
                {"restart_level": {"kind": "exponential", "rate": 0.5},
                 "jump_rate": 0.25, "jump_size": EXP}],
            "dependence": {"kind": "comonotone"},
        },
        "schedule": {"coordinates": [{"family": "affine", "a": 1.0},
                                     {"family": "affine", "a": 1.0}]},
        "run": {"seed": 3, "replications": 1000,
                "t_grid": [10.0, 20.0, 40.0], "quantile_prepass": 2000},
        "output": {"directory": str(tmp_path / "levy"),
                   "formats": ["csv", "json"]},
    })
    rc = main(["verify-independence", "--config", str(path)])
    assert rc == EXIT_OK, capsys.readouterr().out
    gap_lines = (tmp_path / "levy" / "gap.csv").read_text().splitlines()
    assert gap_lines[0] == "t,f_tuple_id,gap,se,n"
    rows = [line.split(",") for line in gap_lines[1:-1]]
    assert sorted((float(r[0]), r[1]) for r in rows) == sorted(
        (t, q) for t in (10.0, 20.0, 40.0) for q in ("q25", "q50", "q75"))
    assert all(float(r[4]) == 1000.0 for r in rows)


def test_verify_independence_gate_blocks_equal_means(tmp_path, capsys):
    path = write_config(
        tmp_path, small_sweep_scenario(rates=(1.0, 1.0),
                                       out=str(tmp_path / "neg")))
    rc = main(["verify-independence", "--config", str(path)])
    assert rc == EXIT_HYPOTHESIS
    assert "FAIL hypothesis" in capsys.readouterr().out
    verdict = json.loads((tmp_path / "neg" / "verdict.json").read_text())
    assert verdict["passed"] is False
    assert verdict["reason"] == "hypothesis_failed"
    assert verdict["hypothesis"]["witness"] == [0, 1]


def test_verify_independence_override_reports_failure(tmp_path, capsys):
    path = write_config(
        tmp_path, small_sweep_scenario(rates=(1.0, 1.0),
                                       out=str(tmp_path / "ctl"),
                                       allow_fail=True))
    rc = main(["verify-independence", "--config", str(path)])
    assert rc == EXIT_STATISTICAL
    assert capsys.readouterr().out.startswith("FAIL product-form gap")
    verdict = json.loads((tmp_path / "ctl" / "verdict.json").read_text())
    assert verdict["passed"] is False
    # identical coordinates: every indicator-pair gap sits near 1/4
    assert any(row["gap"] > 0.1 for row in verdict["per_tuple"])


def test_verify_independence_requires_schedule(tmp_path, capsys):
    obj = small_sweep_scenario(out=str(tmp_path))
    del obj["schedule"]
    path = write_config(tmp_path, obj)
    rc = main(["verify-independence", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "schedule" in capsys.readouterr().err


def test_short_run_rejected_before_prepass(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "quantile_indicator_tuples", refuse)
    path = CONFIG_DIR / "clearing_comonotone.json"
    rc = main(["verify-independence", "--config", str(path), "--reps", "500",
               "--out", str(tmp_path / "res")])
    assert rc == EXIT_CONFIG
    assert ("ERROR config: need at least 1000 replications"
            in capsys.readouterr().err)


def test_two_point_grid_rejected_before_prepass(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(cli, "quantile_indicator_tuples", refuse)
    obj = small_sweep_scenario(out=str(tmp_path / "res"))
    obj["run"]["t_grid"] = [5.0, 25.0]
    path = write_config(tmp_path, obj)
    for command in ("validate", "verify-independence"):
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "run.t_grid" in capsys.readouterr().err


def test_seed_override_changes_results(tmp_path, capsys):
    path = write_config(tmp_path,
                        small_sweep_scenario(out=str(tmp_path / "a")))
    assert main(["verify-independence", "--config", str(path)]) == EXIT_OK
    assert main(["verify-independence", "--config", str(path), "--seed",
                 "8", "--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    a = (tmp_path / "a" / "gap.csv").read_text()
    b = (tmp_path / "b" / "gap.csv").read_text()
    assert a != b
    assert b.splitlines()[-1].startswith("# seed=8,")


def test_cli_override_values_are_validated(tmp_path, capsys):
    path = write_config(tmp_path, small_sweep_scenario(out=str(tmp_path)))
    rc = main(["verify-independence", "--config", str(path), "--reps", "0"])
    assert rc == EXIT_CONFIG
    assert "--reps" in capsys.readouterr().err
    rc = main(["verify-independence", "--config", str(path), "--seed", "-3"])
    assert rc == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    # above the flag floor but below the sweep's operational minimum
    rc = main(["verify-independence", "--config", str(path), "--reps",
               "500"])
    assert rc == EXIT_CONFIG
    assert "1000" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path,
                        small_sweep_scenario(out=str(tmp_path / "r1")))
    assert main(["verify-independence", "--config", str(path)]) == EXIT_OK
    assert main(["verify-independence", "--config", str(path), "--out",
                 str(tmp_path / "r2")]) == EXIT_OK
    capsys.readouterr()
    for name in ("gap.csv", "verdict.json"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())


def test_thread_count_does_not_change_outputs(tmp_path, child_env):
    path = write_config(tmp_path,
                        small_sweep_scenario(out="unused"))
    outs = {}
    for threads in ("1", "4"):
        dest = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "regenverify", "verify-independence",
             "--config", str(path), "--out", str(dest)],
            capture_output=True, text=True, env=child_env(threads),
            cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        outs[threads] = ((dest / "gap.csv").read_bytes(),
                         (dest / "verdict.json").read_bytes())
    assert outs["1"] == outs["4"]


def test_cli_import_leaves_scipy_stats_unloaded(child_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, regenverify.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=child_env("1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# runs argv lists through cli.main in one fresh interpreter and prints the
# scipy modules loaded before and after them
COLD_CLI = """\
import json, sys
from regenverify import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
report = {"numpy.random": "numpy.random" in sys.modules,
          "before": scipy_modules()}
report["codes"] = [cli.main(argv) for argv in json.loads(sys.argv[1])]
report["after"] = scipy_modules()
print(json.dumps(report))
"""


def cold_cli(child_env, *runs: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CLI, json.dumps(runs)],
        capture_output=True, text=True, env=child_env("1"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_runs_without_loading_scipy(tmp_path, child_env):
    report = cold_cli(
        child_env,
        ["stationary", "--config", str(CONFIG_DIR / "levy_stationary.json"),
         "--out", str(tmp_path / "levy")],
        ["verify-independence", "--config",
         str(CONFIG_DIR / "clearing_comonotone.json"), "--reps", "1000",
         "--out", str(tmp_path / "clearing")])
    assert report == {"numpy.random": True, "before": [],
                      "codes": [EXIT_OK, EXIT_OK], "after": []}


def test_cli_loads_scipy_where_a_run_needs_it(tmp_path, child_env):
    gamma = small_sweep_scenario(out="unused")
    gamma["model"]["coordinates"] = [
        {"cycle_length": {"kind": "gamma", "shape": 2.0, "rate": 2.0}},
        {"cycle_length": {"kind": "gamma", "shape": 3.0, "rate": 1.0}}]
    copula = small_sweep_scenario(out="unused")
    copula["model"]["dependence"] = {"kind": "gaussian_copula",
                                     "correlation": [[1.0, 0.6], [0.6, 1.0]]}
    status = {
        "model": {"kind": "status",
                  "sources": [{"inter_update": EXP,
                               "update_size": {"kind": "shifted_uniform",
                                               "lo": 0.2, "hi": 0.8},
                               "capacity": 1.0},
                              {"inter_update": {"kind": "exponential",
                                                "rate": 0.7},
                               "update_size": {"kind": "deterministic",
                                               "value": 1.0},
                               "capacity": 1.0}],
                  "dependence": {"kind": "common_shock",
                                 "shock": {"kind": "exponential",
                                           "rate": 2.0}}},
        "run": {"seed": 7, "replications": 500, "burn_in": 50.0},
        "output": {"directory": "unused"},
    }
    # comonotone gamma laws go through the gamma quantile, the copula
    # through Phi, and pi's closed form through both quadratures
    for name, command, obj, module in (
            ("gamma", "verify-independence", gamma, "scipy.special"),
            ("copula", "verify-independence", copula, "scipy.special"),
            ("status", "status-pi", status, "scipy.integrate")):
        path = write_config(tmp_path, obj, f"{name}.json")
        report = cold_cli(child_env, [command, "--config", str(path),
                                      "--out", str(tmp_path / name)])
        assert report["before"] == [], name
        assert report["codes"] == [EXIT_OK], name
        assert module in report["after"], name
