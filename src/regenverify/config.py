"""JSON scenario configs: one reader and one writer for every section.

A section is a dataclass, and the dataclass alone states its fields, their
types and their defaults. :func:`_read` follows the type hints: a dataclass
is a JSON object keyed by its field names, where a field without a default
is required and null means omitted; ``tuple[X, ...]`` is a non-empty array;
``Literal`` is one of its strings; and every number must be finite. A
kind-tagged section (marginal, dependence, model, schedule coordinate, test
function) takes its class and the fields a file may set from :data:`TAGGED`,
whose kind lists live with the specs. Each object is validated by its own
``validate()`` as soon as it is read, so every error carries the dotted path
of the offending field (``model.coordinates[1].cycle_length.rate``).
:func:`_write` emits each section's settable fields that are not None, and
parsing the serialised form of a config reproduces it exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)
from functools import cache
from types import NoneType
from typing import Literal, get_args, get_origin, get_type_hints

from .asymptotics import (QUANTILE_PREPASS, SCHEDULE_FAMILIES,
                          ScheduleCoordinate, ScheduleSpec)
from .engine import STATE_FUNCTION_KINDS, StateFunction
from .errors import ConfigurationError, error_path, join_path
from .models import (MODEL_KINDS, ClearingSpec, JacksonSpec, LevyQueueSpec,
                     ModelSpec, StatusSpec)
from .randomness import (DEPENDENCE_KINDS, MARGINAL_KINDS, DependenceSpec,
                         MarginalSpec)


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class RunConfig:
    seed: int
    replications: int = 10_000
    t_grid: tuple[float, ...] = (10.0, 100.0, 1000.0)
    n_cycles: int = 10_000
    horizon: float | None = None
    burn_in: float | None = None
    allow_hypothesis_fail: bool = False
    test_functions: Literal["quantile_indicators",
                            "exp_decay"] = "quantile_indicators"
    quantile_prepass: int = QUANTILE_PREPASS
    coordinate: int = 0
    g: StateFunction | None = None

    def validate(self) -> "RunConfig":
        for name, floor in (("seed", 0), ("replications", 1),
                            ("n_cycles", 100), ("quantile_prepass", 100),
                            ("coordinate", 0)):
            if getattr(self, name) < floor:
                raise ConfigurationError(f"{name} must be >= {floor}", name)
        grid = self.t_grid
        if (len(grid) < 3 or grid[0] <= 0.0
                or any(b <= a for a, b in zip(grid, grid[1:]))):
            raise ConfigurationError("t_grid must be positive and strictly "
                                     "increasing with >= 3 points", "t_grid")
        for name in ("horizon", "burn_in"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigurationError(f"{name} must be positive", name)
        return self


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[Literal["csv", "json"], ...] = ("csv", "json")


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelSpec
    run: RunConfig
    schedule: ScheduleSpec | None = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> "ScenarioConfig":
        if self.schedule is not None:
            dim = model_dimension(self.model)
            if len(self.schedule.coordinates) != dim:
                raise ConfigurationError(
                    f"schedule has {len(self.schedule.coordinates)} "
                    f"coordinates but the model has {dim}",
                    "schedule.coordinates")
        return self

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


def model_dimension(spec) -> int:
    if isinstance(spec, (LevyQueueSpec, ClearingSpec)):
        return len(spec.coordinates)
    if isinstance(spec, StatusSpec):
        return len(spec.sources)
    if isinstance(spec, JacksonSpec):
        return len(spec.arrival_rates)
    return spec.copies


# Kind-tagged sections: the key that holds the tag, the tag an object may
# omit, and per tag the fields a file may set, either as names of the
# section's own fields or as a class whose fields are all settable.
TAGGED = {
    MarginalSpec: ("kind", None, MARGINAL_KINDS),
    DependenceSpec: ("kind", None, DEPENDENCE_KINDS),
    ModelSpec: ("kind", None, MODEL_KINDS),
    ScheduleCoordinate: ("family", "affine", SCHEDULE_FAMILIES),
    StateFunction: ("kind", None, dict.fromkeys(STATE_FUNCTION_KINDS)),
}

# lattice weights, written as {"multiplier": probability}
WEIGHTS = tuple[tuple[int, float], ...]
SCALARS = {int: "an integer", str: "a string", bool: "a boolean"}


@cache
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _optional(hint):
    """``X`` for ``X | None``, else ``hint``."""
    args = get_args(hint)
    if NoneType in args:
        return next(a for a in args if a is not NoneType)
    return hint


def _section(hint, tag):
    """The class a section of type ``hint`` with tag ``tag`` builds, and the
    fields a file may set on it."""
    key, _, kinds = TAGGED.get(hint, (None, None, {}))
    entry = kinds.get(tag)
    cls, names = (entry, None) if isinstance(entry, type) else (hint, entry)
    return cls, [f for f in fields(cls) if f.name != key
                 and (names is None or f.name in names)]


# ---------------------------------------------------------------------------
# reader


def _expect_object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError("expected a JSON object", path)
    return raw


def _read(hint, raw, path: str):
    """The value of type ``hint`` that the JSON value ``raw`` describes."""
    hint = _optional(hint)
    if hint in TAGGED or is_dataclass(hint):
        return _read_object(hint, raw, path)
    args = get_args(hint)
    if hint == WEIGHTS:
        weights = {}
        for key, val in _expect_object(raw, path).items():
            try:
                mult = int(key)
            except ValueError:
                raise ConfigurationError(
                    f"weight keys must be integer multipliers, got {key!r}",
                    path)
            weights[mult] = _read(float, val, f"{path}.{key}")
        return tuple(sorted(weights.items()))
    if get_origin(hint) is tuple:
        if not isinstance(raw, list):
            raise ConfigurationError("expected a JSON array", path)
        if not raw:
            raise ConfigurationError("expected at least 1 entries", path)
        return tuple(_read(args[0], v, f"{path}[{k}]")
                     for k, v in enumerate(raw))
    if get_origin(hint) is Literal:
        if _read(str, raw, path) not in args:
            raise ConfigurationError(
                f"expected one of {', '.join(args)}; got {raw!r}", path)
        return raw
    if hint is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigurationError("expected a number", path)
        if not math.isfinite(raw):
            raise ConfigurationError("expected a finite number", path)
        return float(raw)
    if not isinstance(raw, hint) or (hint is int and isinstance(raw, bool)):
        raise ConfigurationError(f"expected {SCALARS[hint]}", path)
    return raw


def _read_object(hint, raw, path: str):
    obj = _expect_object(raw, path)
    key, default, kinds = TAGGED.get(hint, (None, None, {}))
    tag = None
    if key is not None:
        tag = default if obj.get(key) is None else obj[key]
        if tag is None:
            raise ConfigurationError("missing required field", f"{path}.{key}")
        tag = _read(Literal[tuple(kinds)], tag, f"{path}.{key}")
    cls, settable = _section(hint, tag)
    # a model kind names its own class, which has no tag field
    values = {key: tag} if tag is not None and cls is hint else {}
    unknown = sorted(set(obj) - {key} - {f.name for f in settable})
    if unknown:
        raise ConfigurationError(f"unknown field(s): {', '.join(unknown)}",
                                 path)
    for f in settable:
        if obj.get(f.name) is not None:
            values[f.name] = _read(_hints(cls)[f.name], obj[f.name],
                                   join_path(path, f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            # the root's own fields read "$.model", its sections "model"
            raise ConfigurationError("missing required field",
                                     f"{path}.{f.name}")
    spec = cls(**values)
    if hasattr(spec, "validate"):
        with error_path(path):
            spec.validate()
    return spec


# ---------------------------------------------------------------------------
# writer


def _write(hint, value):
    """The JSON value that :func:`_read` turns back into ``value``."""
    hint = _optional(hint)
    if is_dataclass(value):
        out = {}
        tag = None
        if hint in TAGGED:
            key, _, kinds = TAGGED[hint]
            tag = getattr(value, key, None) or next(
                k for k, c in kinds.items() if c is type(value))
            out[key] = tag
        cls, settable = _section(hint, tag)
        for f in settable:
            val = getattr(value, f.name)
            if val is not None:
                out[f.name] = _write(_hints(cls)[f.name], val)
        return out
    if hint == WEIGHTS:
        return {str(n): w for n, w in value}
    if isinstance(value, tuple):
        return [_write(get_args(hint)[0], v) for v in value]
    return value


# ---------------------------------------------------------------------------
# scenario


def parse_scenario(obj) -> ScenarioConfig:
    return _read(ScenarioConfig, obj, "$")


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    return _write(ScenarioConfig, cfg)


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
