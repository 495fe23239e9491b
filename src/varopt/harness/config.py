"""Experiment configuration: a flat key = value text format with dotted
section names, assembled into validated component objects.

Example::

    problem.kind = quadratic
    problem.d = 4
    problem.N = 200
    map.name = quadratic
    schedule.family = linear
    schedule.params = {"beta0": -0.7, "gamma1": 1.0}
    schedule.delta_T = 3.3
    schedule.T = 4.0
    mesh.steps = 4
    model.kind = martingale
    model.sigma = 0.5
    model.n = 200
    model.m = 20
    optimizer.kind = mirror_sgd
    optimizer.mode = empirical
    seeds = [0, 1, 2]
    output = out/

Values are JSON where they parse as JSON, bare strings otherwise, and a
null numeric value reads as the setting's default.  A later line for a key
overrides an earlier one, so appending ``seeds = [17]`` runs other seeds;
the config alone fixes a run.  Every setting has one spelling, and a key
that build_experiment does not read is refused, as is a model.d that
disagrees with problem.d or, in empirical mode, a model.n that disagrees
with problem.N.  In empirical mode mirror_sgd and fosp_continuous read
the gradient model only for the model.m batch default and those two
checks, so model.sigma changes nothing there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..bregman import DomainError, MirrorMap, entropy_map, quadratic_map
from ..gradient_models import MartingaleGradientModel, StateSpaceGradientModel
from ..optimizers import OptimizerSpec, _mesh_times
from ..schedules import (
    Schedule,
    constant_schedule,
    linear_schedule,
    polynomial_schedule,
)
from .problems import ProblemInstance, generate_problem
from .rng import component_rng

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text",
           "load_config", "check_keys", "build_experiment"]


class ConfigError(ValueError):
    """The configuration failed validation."""


# The keys build_experiment reads, per section (None: a top-level value).
# schedule.params is passed to the family's builder, which refuses names
# it does not take.
_KEYS = {
    "problem": {"kind", "d", "N", "seed", "ridge"},
    "map": {"name", "m_diag"},
    "schedule": {"family", "params", "delta_T", "T"},
    "mesh": {"steps"},
    "model": {"kind", "sigma", "n", "m", "d", "dtilde", "A", "L", "b"},
    "optimizer": {"kind", "mode", "x0", "batch_m", "fosp_substeps"},
    "diagnostics": {"bound_constant"},
    "seeds": None,
    "output": None,
}
# Spellings that name a setting whose key is elsewhere.
_ELSEWHERE = {"optimizer.steps": "mesh.steps",
              "schedule.params.delta_T": "schedule.delta_T",
              "schedule.params.horizon_T": "schedule.T"}


def check_keys(cfg: dict) -> None:
    """ConfigError naming the first key of cfg that build_experiment does
    not read."""
    def refuse(key):
        hint = f"; the setting is {_ELSEWHERE[key]}" if key in _ELSEWHERE else ""
        raise ConfigError(f"unknown config key {key!r}{hint}")

    for section, value in cfg.items():
        if section not in _KEYS:
            refuse(section)
        keys = _KEYS[section]
        if keys is None:
            if isinstance(value, dict):
                raise ConfigError(f"{section} takes a value, not dotted keys")
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{section} takes dotted keys, not the value {value!r}")
        for key in value:
            if key not in keys:
                refuse(f"{section}.{key}")
    params = cfg.get("schedule", {}).get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"schedule.params must be a JSON object, got {params!r}")
    for key in ("delta_T", "horizon_T"):
        if key in params:
            refuse(f"schedule.params.{key}")


def parse_config_text(text: str) -> dict:
    """Parse 'dotted.key = value' lines into a nested dict."""
    root: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with a scalar")
        node[parts[-1]] = _json_or_string(value)
    return root


def _json_or_string(text: str):
    """text parsed as JSON, or text itself when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass
class ExperimentConfig:
    """Fully assembled experiment: every component validated."""

    problem: Optional[ProblemInstance]
    mirror: MirrorMap
    schedule: Schedule
    optimizer_spec: OptimizerSpec
    seeds: list
    steps: int
    output: str
    bound_constant: float = 10.0


_SCHEDULE_FAMILIES = {
    "constant": constant_schedule,
    "linear": linear_schedule,
    "polynomial": polynomial_schedule,
}


def _value(cfg, key: str, default, convert=float):
    """The value at the dotted key of cfg passed through convert, or
    default when the key is absent or null; ConfigError naming the key
    when the conversion fails or gives NaN or an infinity."""
    *sections, name = key.split(".")
    node = cfg
    for section in sections:
        node = node.get(section, {})
    value = node.get(name)
    if value is None:
        return default
    try:
        result = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} = {value!r} cannot be read: {exc}") from exc
    if (isinstance(result, float) and not math.isfinite(result)
            or isinstance(result, np.ndarray) and not np.isfinite(result).all()):
        raise ConfigError(f"{key} = {value!r} is not finite")
    return result


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _dimension(cfg, key: str, default: int) -> int:
    """_value of an int; ConfigError naming key unless it is >= 1."""
    value = _value(cfg, key, default, int)
    if value < 1:
        raise ConfigError(f"{key} = {value} must be >= 1")
    return value


def _vector(cfg, key: str, d: int):
    """_value of a float vector; ConfigError naming key unless its length is d."""
    value = _value(cfg, key, None, _floats)
    if value is not None and value.shape != (d,):
        raise ConfigError(f"{key} = {value.tolist()} does not have the dimension d = {d}")
    return value


def _build_mirror(cfg: dict, d: int) -> MirrorMap:
    name = cfg.get("map", {}).get("name", "quadratic")
    try:
        if name == "quadratic":
            return quadratic_map(m_diag=_vector(cfg, "map.m_diag", d))
        if name == "entropy":
            return entropy_map()
    except ValueError as exc:
        raise ConfigError(f"invalid map: {exc}") from exc
    if name == "custom":
        raise ConfigError("custom maps are library-embedding only, not configurable")
    raise ConfigError(f"unknown map name {name!r}")


def _build_schedule(cfg: dict) -> Schedule:
    section = cfg.get("schedule", {})
    family = section.get("family", "constant")
    builder = _SCHEDULE_FAMILIES.get(family)
    if builder is None:
        raise ConfigError(f"unknown schedule family {family!r}")
    params = {name: value for name in section.get("params", {})  # null: the default
              if (value := _value(cfg, f"schedule.params.{name}", None)) is not None}
    params.update(delta_T=_value(cfg, "schedule.delta_T", 0.0),
                  horizon_T=_value(cfg, "schedule.T", 1.0))
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def _build_model(cfg: dict, d: int):
    section = cfg.get("model")
    if not section:
        return None
    kind = section.get("kind")
    try:
        sigma = _value(cfg, "model.sigma", 1.0)
        if kind == "martingale":
            return MartingaleGradientModel(sigma=sigma, n=_value(cfg, "model.n", 1, int),
                                           m=_value(cfg, "model.m", 1, int), d=d)
        if kind == "state_space":
            dtilde = _dimension(cfg, "model.dtilde", 1)
            b = _value(cfg, "model.b", np.ones(dtilde), _floats)
            if b.shape != (dtilde,):
                raise ConfigError(f"model.b = {b.tolist()} does not have the length "
                                  f"model.dtilde = {dtilde}")
            a, l = (_value(cfg, f"model.{key}", np.eye(dtilde), _floats).reshape(dtilde, dtilde)
                    for key in ("A", "L"))
            return StateSpaceGradientModel(a_mat=a, l_mat=l, sigma=sigma, d=d, b_vec=b)
    except ValueError as exc:
        raise ConfigError(f"invalid gradient model: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Assemble and validate an experiment from a parsed config dict."""
    check_keys(cfg)
    prob_section = cfg.get("problem", {})
    opt_section = cfg.get("optimizer", {})
    mode = opt_section.get("mode", "empirical" if prob_section else "synthetic")
    if mode == "empirical" and not prob_section:
        raise ConfigError("optimizer.mode = empirical needs a problem: "
                          "set problem.kind, problem.d and problem.N")

    problem = None
    d = _dimension(cfg, "problem.d" if "d" in prob_section else "model.d", 2)
    if prob_section:
        kind = prob_section.get("kind", "quadratic")
        try:
            problem = generate_problem(
                kind, d=d, n=_value(cfg, "problem.N", 100, int),
                rng=component_rng(_value(cfg, "problem.seed", 0, int), "problem"),
                ridge=_value(cfg, "problem.ridge", 1e-2),
            )
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"invalid problem: {exc}") from exc

    mirror = _build_mirror(cfg, d)
    schedule = _build_schedule(cfg)
    # The run takes d from problem.d, and an empirical run its data size
    # from problem.N: the model's copies of them must agree.
    sources = [("model.d", "problem.d", d)] if "d" in prob_section else []
    if mode == "empirical":
        sources.append(("model.n", "problem.N", problem.n))
    for key, source, value in sources:
        given = _value(cfg, key, None, int)
        if given is not None and given != value:
            raise ConfigError(f"{key} = {given} disagrees with {source} = {value}")
    model = _build_model(cfg, d)

    batch_m = _value(cfg, "optimizer.batch_m", None, int)
    if batch_m is None and mode == "empirical":
        batch_m = _value(cfg, "model.m", problem.n, int)
    spec = OptimizerSpec(
        kind=opt_section.get("kind", "mirror_sgd"), mirror=mirror, schedule=schedule,
        model=model, mode=mode, x0=_vector(cfg, "optimizer.x0", d), batch_m=batch_m,
        fosp_substeps=_value(cfg, "optimizer.fosp_substeps", 4, int),
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid optimizer spec: {exc}") from exc
    if spec.x0 is not None:
        try:
            mirror.check_domain(spec.x0)
        except DomainError as exc:
            raise ConfigError(f"optimizer.x0 = {spec.x0.tolist()}: {exc}") from exc
    if mode == "empirical":
        # The energy diagnostic measures the distance to x* in the map's geometry.
        try:
            mirror.check_domain(problem.x_star)
        except DomainError as exc:
            raise ConfigError(f"map.name = {mirror.name} does not hold the minimizer of "
                              f"problem.kind = {problem.kind}: {exc}") from exc

    seeds = _value(cfg, "seeds", [0],
                   lambda v: [int(s) for s in (v if isinstance(v, list) else [v])])
    if not seeds or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds = {seeds} must be a non-empty list of distinct seeds")

    steps = _value(cfg, "mesh.steps", 100, int)
    try:
        _mesh_times(schedule, steps)
    except ValueError as exc:
        raise ConfigError(f"mesh.steps = {steps}: {exc}") from exc

    return ExperimentConfig(
        problem=problem, mirror=mirror, schedule=schedule, optimizer_spec=spec,
        seeds=seeds, steps=steps, output=str(cfg.get("output", "varopt_out")),
        bound_constant=_value(cfg, "diagnostics.bound_constant", 10.0),
    )
