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

Values are JSON where they parse as JSON, bare strings otherwise.  Every
setting has one spelling, and a key that build_experiment does not read
is refused.  The environment variable VAROPT_SEED, when set, overrides
the seed list.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..bregman import MirrorMap, entropy_map, quadratic_map
from ..gradient_models import MartingaleGradientModel, StateSpaceGradientModel
from ..optimizers import OPTIMIZER_KINDS, OptimizerSpec, _mesh_times
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
    "map": {"name", "m_diag", "lower", "upper"},
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
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with a scalar")
        node[parts[-1]] = parsed
    return root


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
    raw: dict = field(default_factory=dict)


_SCHEDULE_FAMILIES = {
    "constant": constant_schedule,
    "linear": linear_schedule,
    "polynomial": polynomial_schedule,
}


def _build_mirror(cfg: dict) -> MirrorMap:
    section = cfg.get("map", {})
    name = section.get("name", "quadratic")
    if name == "quadratic":
        m_diag = section.get("m_diag")
        return quadratic_map(m_diag=np.asarray(m_diag, dtype=float) if m_diag else None)
    if name == "entropy":
        return entropy_map(lower=float(section.get("lower", 0.05)),
                           upper=float(section.get("upper", 20.0)))
    if name == "custom":
        raise ConfigError("custom maps are library-embedding only, not configurable")
    raise ConfigError(f"unknown map name {name!r}")


def _build_schedule(cfg: dict) -> Schedule:
    section = cfg.get("schedule", {})
    family = section.get("family", "constant")
    builder = _SCHEDULE_FAMILIES.get(family)
    if builder is None:
        raise ConfigError(f"unknown schedule family {family!r}")
    params = dict(section.get("params", {}), delta_T=float(section.get("delta_T", 0.0)),
                  horizon_T=float(section.get("T", 1.0)))
    try:
        schedule = builder(**params)
        schedule.validate_finite()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc
    return schedule


def _build_model(cfg: dict, d: int):
    section = cfg.get("model")
    if not section:
        return None
    kind = section.get("kind")
    try:
        if kind == "martingale":
            return MartingaleGradientModel(
                sigma=float(section.get("sigma", 1.0)),
                n=int(section.get("n", 1)),
                m=int(section.get("m", 1)),
                d=d,
            )
        if kind == "state_space":
            dtilde = int(section.get("dtilde", 1))
            a = np.asarray(section.get("A", np.eye(dtilde).tolist()), dtype=float)
            l = np.asarray(section.get("L", np.eye(dtilde).tolist()), dtype=float)
            b = np.asarray(section.get("b", np.ones(dtilde).tolist()), dtype=float)
            return StateSpaceGradientModel(
                a_mat=a.reshape(dtilde, dtilde), l_mat=l.reshape(dtilde, dtilde),
                b_vec=b, sigma=float(section.get("sigma", 1.0)), d=d,
            )
    except ValueError as exc:
        raise ConfigError(f"invalid gradient model: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Assemble and validate an experiment from a parsed config dict."""
    check_keys(cfg)
    prob_section = cfg.get("problem", {})
    opt_section = cfg.get("optimizer", {})
    mode = opt_section.get("mode", "empirical" if prob_section else "synthetic")

    problem = None
    d = int(prob_section.get("d", cfg.get("model", {}).get("d", 2)))
    problem_seed = int(prob_section.get("seed", 0))
    if prob_section:
        kind = prob_section.get("kind", "quadratic")
        try:
            problem = generate_problem(
                kind, d=d, n=int(prob_section.get("N", 100)),
                rng=component_rng(problem_seed, "problem"),
                ridge=float(prob_section.get("ridge", 1e-2)),
            )
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"invalid problem: {exc}") from exc

    mirror = _build_mirror(cfg)
    schedule = _build_schedule(cfg)
    model = _build_model(cfg, d)

    kind = opt_section.get("kind", "mirror_sgd")
    if kind not in OPTIMIZER_KINDS:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    x0 = opt_section.get("x0")
    batch_m = opt_section.get("batch_m")
    if batch_m is None and mode == "empirical":
        batch_m = cfg.get("model", {}).get("m", problem.n if problem else None)
    spec = OptimizerSpec(
        kind=kind, mirror=mirror, schedule=schedule, model=model, mode=mode,
        x0=np.asarray(x0, dtype=float) if x0 is not None else None,
        batch_m=int(batch_m) if batch_m is not None else None,
        fosp_substeps=int(opt_section.get("fosp_substeps", 4)),
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid optimizer spec: {exc}") from exc

    seeds = cfg.get("seeds", [0])
    if isinstance(seeds, (int, float)):
        seeds = [int(seeds)]
    env_seed = os.environ.get("VAROPT_SEED")
    if env_seed is not None:
        try:
            seeds = [int(env_seed)]
        except ValueError:
            raise ConfigError(f"VAROPT_SEED must be an integer, got {env_seed!r}")
    seeds = [int(s) for s in seeds]

    steps = int(cfg.get("mesh", {}).get("steps", 100))
    if steps < 0:
        raise ConfigError("mesh.steps must be >= 0")
    try:
        _mesh_times(schedule, steps)
    except ValueError as exc:
        raise ConfigError(f"mesh.steps = {steps}: {exc}") from exc

    return ExperimentConfig(
        problem=problem, mirror=mirror, schedule=schedule, optimizer_spec=spec,
        seeds=seeds, steps=steps, output=str(cfg.get("output", "varopt_out")),
        bound_constant=float(cfg.get("diagnostics", {}).get("bound_constant", 10.0)),
        raw=cfg,
    )
