"""JSON scenario configs: parse, validate, serialise.

Every parse error carries the dotted path of the offending field
(``model.coordinates[1].cycle_length.rate``) and parsing the serialised form
of a config reproduces it exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .asymptotics import ScheduleCoordinate, ScheduleSpec
from .engine import StateFunction, exp_neg, identity, indicator_le
from .errors import ConfigurationError
from .models import (AgeResidualSpec, ClearingCoordinate, ClearingSpec,
                     JacksonSpec, LevyQueueCoordinate, LevyQueueSpec,
                     StatusSource, StatusSpec)
from .randomness import DependenceSpec, MarginalSpec

MODEL_KINDS = ("levy_queue", "clearing", "status", "jackson", "age_residual")
TEST_FUNCTION_BANKS = ("quantile_indicators", "exp_decay")
G_KINDS = ("identity", "indicator", "exponential")
OUTPUT_FORMATS = ("csv", "json")


# ---------------------------------------------------------------------------
# primitive readers


def _expect_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError("expected a JSON object", path)
    return obj


def _expect_array(obj, path: str, min_len: int = 0) -> list:
    if not isinstance(obj, list):
        raise ConfigurationError("expected a JSON array", path)
    if len(obj) < min_len:
        raise ConfigurationError(f"expected at least {min_len} entries", path)
    return obj


def _get(obj: dict, key: str, path: str, required: bool = True,
         default=None):
    if key not in obj or obj[key] is None:
        if required:
            raise ConfigurationError("missing required field",
                                     f"{path}.{key}")
        return default
    return obj[key]


def _number(obj: dict, key: str, path: str, required: bool = True,
            default=None) -> float | None:
    raw = _get(obj, key, path, required, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigurationError("expected a number", f"{path}.{key}")
    if not math.isfinite(raw):
        raise ConfigurationError("expected a finite number", f"{path}.{key}")
    return float(raw)


def _integer(obj: dict, key: str, path: str, required: bool = True,
             default=None) -> int | None:
    raw = _get(obj, key, path, required, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigurationError("expected an integer", f"{path}.{key}")
    return int(raw)


def _string(obj: dict, key: str, path: str, choices=None,
            required: bool = True, default=None) -> str | None:
    raw = _get(obj, key, path, required, default)
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise ConfigurationError("expected a string", f"{path}.{key}")
    if choices is not None and raw not in choices:
        raise ConfigurationError(
            f"expected one of {', '.join(choices)}; got {raw!r}",
            f"{path}.{key}")
    return raw


def _boolean(obj: dict, key: str, path: str, default: bool) -> bool:
    raw = _get(obj, key, path, required=False, default=default)
    if not isinstance(raw, bool):
        raise ConfigurationError("expected a boolean", f"{path}.{key}")
    return raw


def _no_extras(obj: dict, path: str, allowed) -> None:
    extras = sorted(set(obj) - set(allowed))
    if extras:
        raise ConfigurationError(
            f"unknown field(s): {', '.join(extras)}", path)


def _validated(spec, path: str):
    try:
        return spec.validate()
    except ConfigurationError as exc:
        if exc.path is not None:
            raise
        raise ConfigurationError(str(exc), path) from exc


# ---------------------------------------------------------------------------
# marginals and dependence


def parse_marginal(obj, path: str) -> MarginalSpec:
    obj = _expect_object(obj, path)
    kind = _string(obj, "kind", path,
                   choices=("exponential", "gamma", "deterministic",
                            "lattice", "shifted_uniform"))
    if kind == "exponential":
        _no_extras(obj, path, ("kind", "rate"))
        spec = MarginalSpec.exponential(_number(obj, "rate", path))
    elif kind == "gamma":
        _no_extras(obj, path, ("kind", "shape", "rate"))
        spec = MarginalSpec.gamma(_number(obj, "shape", path),
                                  _number(obj, "rate", path))
    elif kind == "deterministic":
        _no_extras(obj, path, ("kind", "value"))
        spec = MarginalSpec.deterministic(_number(obj, "value", path))
    elif kind == "lattice":
        _no_extras(obj, path, ("kind", "span", "weights"))
        span = _number(obj, "span", path)
        raw = _expect_object(_get(obj, "weights", path), f"{path}.weights")
        weights = {}
        for key, val in raw.items():
            try:
                mult = int(key)
            except ValueError:
                raise ConfigurationError(
                    f"weight keys must be integer multipliers, got {key!r}",
                    f"{path}.weights")
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigurationError("expected a number",
                                         f"{path}.weights.{key}")
            weights[mult] = float(val)
        spec = MarginalSpec.lattice(span, weights)
    else:
        _no_extras(obj, path, ("kind", "lo", "hi"))
        spec = MarginalSpec.shifted_uniform(_number(obj, "lo", path),
                                            _number(obj, "hi", path))
    return _validated(spec, path)


def marginal_to_json(spec: MarginalSpec) -> dict:
    k = spec.kind
    if k == "exponential":
        return {"kind": k, "rate": spec.rate}
    if k == "gamma":
        return {"kind": k, "shape": spec.shape, "rate": spec.rate}
    if k == "deterministic":
        return {"kind": k, "value": spec.value}
    if k == "lattice":
        return {"kind": k, "span": spec.span,
                "weights": {str(n): w for n, w in spec.weights}}
    return {"kind": k, "lo": spec.lo, "hi": spec.hi}


def parse_dependence(obj, path: str, dimension: int) -> DependenceSpec:
    if obj is None:
        return DependenceSpec.independent()
    obj = _expect_object(obj, path)
    kind = _string(obj, "kind", path,
                   choices=("independent", "comonotone", "common_shock",
                            "gaussian_copula"))
    if kind == "independent" or kind == "comonotone":
        _no_extras(obj, path, ("kind",))
        spec = DependenceSpec(kind)
    elif kind == "common_shock":
        _no_extras(obj, path, ("kind", "shock"))
        spec = DependenceSpec.common_shock(
            parse_marginal(_get(obj, "shock", path), f"{path}.shock"))
    else:
        _no_extras(obj, path, ("kind", "correlation"))
        rows = _expect_array(_get(obj, "correlation", path),
                             f"{path}.correlation", 1)
        matrix = []
        for r, row in enumerate(rows):
            row = _expect_array(row, f"{path}.correlation[{r}]", 1)
            vals = []
            for c, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigurationError(
                        "expected a number", f"{path}.correlation[{r}][{c}]")
                vals.append(float(v))
            matrix.append(tuple(vals))
        spec = DependenceSpec.gaussian_copula(matrix)
    try:
        return spec.validate(dimension)
    except ConfigurationError as exc:
        if exc.path is not None:
            raise
        raise ConfigurationError(str(exc), path) from exc


def dependence_to_json(spec: DependenceSpec) -> dict:
    if spec.kind == "common_shock":
        return {"kind": spec.kind, "shock": marginal_to_json(spec.shock)}
    if spec.kind == "gaussian_copula":
        return {"kind": spec.kind,
                "correlation": [list(row) for row in spec.correlation]}
    return {"kind": spec.kind}


# ---------------------------------------------------------------------------
# models


def parse_model(obj, path: str = "model"):
    obj = _expect_object(obj, path)
    kind = _string(obj, "kind", path, choices=MODEL_KINDS)
    if kind == "levy_queue":
        _no_extras(obj, path, ("kind", "coordinates", "dependence"))
        rows = _expect_array(_get(obj, "coordinates", path),
                             f"{path}.coordinates", 1)
        coords = []
        for k, row in enumerate(rows):
            p = f"{path}.coordinates[{k}]"
            row = _expect_object(row, p)
            _no_extras(row, p, ("restart_level", "jump_rate", "jump_size"))
            rate = _number(row, "jump_rate", p, required=False, default=0.0)
            size = row.get("jump_size")
            coords.append(LevyQueueCoordinate(
                restart_level=parse_marginal(_get(row, "restart_level", p),
                                             f"{p}.restart_level"),
                jump_rate=rate,
                jump_size=(parse_marginal(size, f"{p}.jump_size")
                           if size is not None else None)))
        dep = parse_dependence(obj.get("dependence"), f"{path}.dependence",
                               len(coords))
        return _validated(LevyQueueSpec(tuple(coords), dep), path)
    if kind == "clearing":
        _no_extras(obj, path, ("kind", "coordinates", "dependence"))
        rows = _expect_array(_get(obj, "coordinates", path),
                             f"{path}.coordinates", 1)
        coords = []
        for k, row in enumerate(rows):
            p = f"{path}.coordinates[{k}]"
            row = _expect_object(row, p)
            _no_extras(row, p,
                       ("cycle_length", "drift", "jump_rate", "jump_size"))
            size = row.get("jump_size")
            coords.append(ClearingCoordinate(
                cycle_length=parse_marginal(_get(row, "cycle_length", p),
                                            f"{p}.cycle_length"),
                drift=_number(row, "drift", p, required=False, default=1.0),
                jump_rate=_number(row, "jump_rate", p, required=False,
                                  default=0.0),
                jump_size=(parse_marginal(size, f"{p}.jump_size")
                           if size is not None else None)))
        dep = parse_dependence(obj.get("dependence"), f"{path}.dependence",
                               len(coords))
        return _validated(ClearingSpec(tuple(coords), dep), path)
    if kind == "status":
        _no_extras(obj, path, ("kind", "sources", "dependence"))
        rows = _expect_array(_get(obj, "sources", path),
                             f"{path}.sources", 1)
        sources = []
        for k, row in enumerate(rows):
            p = f"{path}.sources[{k}]"
            row = _expect_object(row, p)
            _no_extras(row, p, ("inter_update", "update_size", "capacity"))
            sources.append(StatusSource(
                inter_update=parse_marginal(_get(row, "inter_update", p),
                                            f"{p}.inter_update"),
                update_size=parse_marginal(_get(row, "update_size", p),
                                           f"{p}.update_size"),
                capacity=_number(row, "capacity", p, required=False,
                                 default=1.0)))
        dep = parse_dependence(obj.get("dependence"), f"{path}.dependence",
                               len(sources))
        return _validated(StatusSpec(tuple(sources), dep), path)
    if kind == "jackson":
        _no_extras(obj, path,
                   ("kind", "arrival_rates", "service_rates", "routing"))
        arr = _number_array(obj, "arrival_rates", path)
        srv = _number_array(obj, "service_rates", path)
        rows = _expect_array(_get(obj, "routing", path), f"{path}.routing", 1)
        routing = []
        for r, row in enumerate(rows):
            row = _expect_array(row, f"{path}.routing[{r}]", 1)
            vals = []
            for c, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigurationError(
                        "expected a number", f"{path}.routing[{r}][{c}]")
                vals.append(float(v))
            routing.append(tuple(vals))
        return _validated(JacksonSpec(tuple(arr), tuple(srv),
                                      tuple(routing)), path)
    _no_extras(obj, path, ("kind", "cycle_length", "copies"))
    return _validated(AgeResidualSpec(
        cycle_length=parse_marginal(_get(obj, "cycle_length", path),
                                    f"{path}.cycle_length"),
        copies=_integer(obj, "copies", path, required=False, default=2)),
        path)


def _number_array(obj: dict, key: str, path: str) -> list[float]:
    rows = _expect_array(_get(obj, key, path), f"{path}.{key}", 1)
    out = []
    for k, v in enumerate(rows):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigurationError("expected a number",
                                     f"{path}.{key}[{k}]")
        out.append(float(v))
    return out


def model_to_json(spec) -> dict:
    if isinstance(spec, LevyQueueSpec):
        return {"kind": "levy_queue",
                "coordinates": [
                    {"restart_level": marginal_to_json(c.restart_level),
                     "jump_rate": c.jump_rate,
                     "jump_size": (marginal_to_json(c.jump_size)
                                   if c.jump_size is not None else None)}
                    for c in spec.coordinates],
                "dependence": dependence_to_json(spec.dependence)}
    if isinstance(spec, ClearingSpec):
        return {"kind": "clearing",
                "coordinates": [
                    {"cycle_length": marginal_to_json(c.cycle_length),
                     "drift": c.drift,
                     "jump_rate": c.jump_rate,
                     "jump_size": (marginal_to_json(c.jump_size)
                                   if c.jump_size is not None else None)}
                    for c in spec.coordinates],
                "dependence": dependence_to_json(spec.dependence)}
    if isinstance(spec, StatusSpec):
        return {"kind": "status",
                "sources": [
                    {"inter_update": marginal_to_json(s.inter_update),
                     "update_size": marginal_to_json(s.update_size),
                     "capacity": s.capacity}
                    for s in spec.sources],
                "dependence": dependence_to_json(spec.dependence)}
    if isinstance(spec, JacksonSpec):
        return {"kind": "jackson",
                "arrival_rates": list(spec.arrival_rates),
                "service_rates": list(spec.service_rates),
                "routing": [list(r) for r in spec.routing]}
    return {"kind": "age_residual",
            "cycle_length": marginal_to_json(spec.cycle_length),
            "copies": spec.copies}


# ---------------------------------------------------------------------------
# schedule


def parse_schedule(obj, path: str = "schedule") -> ScheduleSpec:
    obj = _expect_object(obj, path)
    _no_extras(obj, path, ("coordinates",))
    rows = _expect_array(_get(obj, "coordinates", path),
                         f"{path}.coordinates", 1)
    coords = []
    for k, row in enumerate(rows):
        p = f"{path}.coordinates[{k}]"
        row = _expect_object(row, p)
        family = _string(row, "family", p, choices=SCHEDULE_FAMILY_CHOICES,
                         required=False, default="affine")
        if family == "affine":
            _no_extras(row, p, ("family", "a", "b"))
            coords.append(ScheduleCoordinate(
                "affine", _number(row, "a", p),
                b=_number(row, "b", p, required=False, default=0.0)))
        else:
            _no_extras(row, p, ("family", "a", "p"))
            coords.append(ScheduleCoordinate(
                "power", _number(row, "a", p),
                p=_number(row, "p", p, required=False, default=1.0)))
    spec = ScheduleSpec(tuple(coords))
    return _validated(spec, path)


SCHEDULE_FAMILY_CHOICES = ("affine", "power")


def schedule_to_json(spec: ScheduleSpec) -> dict:
    rows = []
    for c in spec.coordinates:
        if c.family == "affine":
            rows.append({"family": "affine", "a": c.a, "b": c.b})
        else:
            rows.append({"family": "power", "a": c.a, "p": c.p})
    return {"coordinates": rows}


# ---------------------------------------------------------------------------
# run and output sections


@dataclass(frozen=True)
class TestFunctionConfig:
    """One named test function from the bundled bank."""

    kind: str
    threshold: float | None = None
    component: int = 0

    def realize(self) -> StateFunction:
        if self.kind == "identity":
            return identity(self.component)
        if self.kind == "indicator":
            return indicator_le(self.threshold, self.component)
        return exp_neg(self.component)


def parse_g(obj, path: str) -> TestFunctionConfig:
    obj = _expect_object(obj, path)
    _no_extras(obj, path, ("kind", "threshold", "component"))
    kind = _string(obj, "kind", path, choices=G_KINDS)
    threshold = _number(obj, "threshold", path, required=(kind == "indicator"))
    component = _integer(obj, "component", path, required=False, default=0)
    if component < 0:
        raise ConfigurationError("component must be >= 0",
                                 f"{path}.component")
    return TestFunctionConfig(kind, threshold, component)


def g_to_json(cfg: TestFunctionConfig) -> dict:
    out: dict = {"kind": cfg.kind, "component": cfg.component}
    if cfg.threshold is not None:
        out["threshold"] = cfg.threshold
    return out


@dataclass(frozen=True)
class RunConfig:
    seed: int
    replications: int = 10_000
    t_grid: tuple[float, ...] = (10.0, 100.0, 1000.0)
    n_cycles: int = 10_000
    horizon: float | None = None
    burn_in: float | None = None
    allow_hypothesis_fail: bool = False
    test_functions: str = "quantile_indicators"
    quantile_prepass: int = 10_000
    gap_floor: float = 0.02
    coordinate: int = 0
    g: TestFunctionConfig | None = None


RUN_FIELDS = ("seed", "replications", "t_grid", "n_cycles", "horizon",
              "burn_in", "allow_hypothesis_fail", "test_functions",
              "quantile_prepass", "gap_floor", "coordinate", "g")


def parse_run(obj, path: str = "run") -> RunConfig:
    obj = _expect_object(obj, path)
    _no_extras(obj, path, RUN_FIELDS)
    seed = _integer(obj, "seed", path)
    if seed < 0:
        raise ConfigurationError("seed must be >= 0", f"{path}.seed")
    reps = _integer(obj, "replications", path, required=False, default=10_000)
    if reps < 1:
        raise ConfigurationError("replications must be >= 1",
                                 f"{path}.replications")
    grid_raw = _get(obj, "t_grid", path, required=False,
                    default=[10.0, 100.0, 1000.0])
    grid_list = _expect_array(grid_raw, f"{path}.t_grid", 1)
    grid = []
    for k, v in enumerate(grid_list):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigurationError("expected a number",
                                     f"{path}.t_grid[{k}]")
        grid.append(float(v))
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] <= 0.0:
        raise ConfigurationError("t_grid must be positive and strictly "
                                 "increasing", f"{path}.t_grid")
    n_cycles = _integer(obj, "n_cycles", path, required=False, default=10_000)
    if n_cycles < 100:
        raise ConfigurationError("n_cycles must be >= 100",
                                 f"{path}.n_cycles")
    horizon = _number(obj, "horizon", path, required=False)
    if horizon is not None and horizon <= 0.0:
        raise ConfigurationError("horizon must be positive",
                                 f"{path}.horizon")
    burn_in = _number(obj, "burn_in", path, required=False)
    if burn_in is not None and burn_in <= 0.0:
        raise ConfigurationError("burn_in must be positive",
                                 f"{path}.burn_in")
    prepass = _integer(obj, "quantile_prepass", path, required=False,
                       default=10_000)
    if prepass < 100:
        raise ConfigurationError("quantile_prepass must be >= 100",
                                 f"{path}.quantile_prepass")
    gap_floor = _number(obj, "gap_floor", path, required=False, default=0.02)
    if gap_floor < 0.0:
        raise ConfigurationError("gap_floor must be >= 0",
                                 f"{path}.gap_floor")
    coordinate = _integer(obj, "coordinate", path, required=False, default=0)
    if coordinate < 0:
        raise ConfigurationError("coordinate must be >= 0",
                                 f"{path}.coordinate")
    g_raw = obj.get("g")
    return RunConfig(
        seed=seed, replications=reps, t_grid=tuple(grid), n_cycles=n_cycles,
        horizon=horizon, burn_in=burn_in,
        allow_hypothesis_fail=_boolean(obj, "allow_hypothesis_fail", path,
                                       False),
        test_functions=_string(obj, "test_functions", path,
                               choices=TEST_FUNCTION_BANKS, required=False,
                               default="quantile_indicators"),
        quantile_prepass=prepass, gap_floor=gap_floor, coordinate=coordinate,
        g=parse_g(g_raw, f"{path}.g") if g_raw is not None else None)


def run_to_json(cfg: RunConfig) -> dict:
    out = {
        "seed": cfg.seed,
        "replications": cfg.replications,
        "t_grid": list(cfg.t_grid),
        "n_cycles": cfg.n_cycles,
        "allow_hypothesis_fail": cfg.allow_hypothesis_fail,
        "test_functions": cfg.test_functions,
        "quantile_prepass": cfg.quantile_prepass,
        "gap_floor": cfg.gap_floor,
        "coordinate": cfg.coordinate,
    }
    if cfg.horizon is not None:
        out["horizon"] = cfg.horizon
    if cfg.burn_in is not None:
        out["burn_in"] = cfg.burn_in
    if cfg.g is not None:
        out["g"] = g_to_json(cfg.g)
    return out


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


def parse_output(obj, path: str = "output") -> OutputConfig:
    if obj is None:
        return OutputConfig()
    obj = _expect_object(obj, path)
    _no_extras(obj, path, ("directory", "formats"))
    directory = _string(obj, "directory", path, required=False, default="out")
    raw = _get(obj, "formats", path, required=False,
               default=["csv", "json"])
    fmts = _expect_array(raw, f"{path}.formats", 1)
    for k, f in enumerate(fmts):
        if f not in OUTPUT_FORMATS:
            raise ConfigurationError(
                f"expected one of {', '.join(OUTPUT_FORMATS)}; got {f!r}",
                f"{path}.formats[{k}]")
    return OutputConfig(directory=directory, formats=tuple(fmts))


def output_to_json(cfg: OutputConfig) -> dict:
    return {"directory": cfg.directory, "formats": list(cfg.formats)}


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class ScenarioConfig:
    model: object
    run: RunConfig
    schedule: ScheduleSpec | None = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def with_overrides(self, seed: int | None = None,
                       replications: int | None = None,
                       directory: str | None = None) -> "ScenarioConfig":
        run = self.run
        if seed is not None:
            run = replace(run, seed=int(seed))
        if replications is not None:
            run = replace(run, replications=int(replications))
        out = self.output
        if directory is not None:
            out = replace(out, directory=directory)
        return replace(self, run=run, output=out)


def parse_scenario(obj) -> ScenarioConfig:
    obj = _expect_object(obj, "$")
    _no_extras(obj, "$", ("model", "run", "schedule", "output"))
    model = parse_model(_get(obj, "model", "$"), "model")
    run = parse_run(_get(obj, "run", "$"), "run")
    sched_raw = obj.get("schedule")
    schedule = (parse_schedule(sched_raw, "schedule")
                if sched_raw is not None else None)
    output = parse_output(obj.get("output"), "output")
    if schedule is not None:
        dim = model_dimension(model)
        if len(schedule.coordinates) != dim:
            raise ConfigurationError(
                f"schedule has {len(schedule.coordinates)} coordinates but "
                f"the model has {dim}", "schedule.coordinates")
    return ScenarioConfig(model=model, run=run, schedule=schedule,
                          output=output)


def model_dimension(spec) -> int:
    if isinstance(spec, (LevyQueueSpec, ClearingSpec)):
        return len(spec.coordinates)
    if isinstance(spec, StatusSpec):
        return len(spec.sources)
    if isinstance(spec, JacksonSpec):
        return len(spec.arrival_rates)
    return spec.copies


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    out = {"model": model_to_json(cfg.model), "run": run_to_json(cfg.run),
           "output": output_to_json(cfg.output)}
    if cfg.schedule is not None:
        out["schedule"] = schedule_to_json(cfg.schedule)
    return out


def loads_scenario(text: str) -> ScenarioConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"not valid JSON: {exc}", "$")
    return parse_scenario(obj)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}", "$")
    return loads_scenario(text)


def canonical_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
