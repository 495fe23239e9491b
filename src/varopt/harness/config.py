"""Experiment configuration: a flat key = value text format with dotted
section names, assembled into validated component objects.

Example::

    schedule.family = constant
    schedule.params = {"beta0": -3.0}
    schedule.T = 4.0
    mesh.steps = 4
    model.kind = martingale
    seeds = [0, 1, 2]
    output = out/

Values are JSON where they parse as JSON, else bare strings, and a later
line for a key overrides an earlier one.  Every number and array is read
by one rule (_value): a JSON number that is not a bool, or nested lists of
them with exactly the key's shape, finite, integral for an integer key
(as 2e4 is) and at least the key's minimum; null reads as the default,
and anything else, a numeric string too, is refused naming the key.  Each
setting has one key, and a run reads the keys of its cell (_READS): any
other key is refused naming it and the cell, but model.sigma in an
empirical unfiltered run, which the benchmark's workload configs set.  So
the dimension is problem.d in an empirical run and model.d in a synthetic
one, which has no problem section.  A sweep or a comparison refuses a key
only when none of its runs reads it.  README.md has the rest.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..bregman import DomainError, MirrorMap, entropy_map, quadratic_map
from ..gradient_models import MartingaleGradientModel, StateSpaceGradientModel
from ..optimizers import _FILTERED_KINDS, OPTIMIZER_KINDS, OptimizerSpec, _mesh_times
from ..schedules import Schedule, constant_schedule, linear_schedule, polynomial_schedule
from .problems import ProblemInstance, generate_problem
from .rng import component_rng

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text",
           "load_config", "check_keys", "build_experiment"]


class ConfigError(ValueError):
    """The configuration failed validation."""


# The keys that a cell reads (see _cell); the family's builder checks schedule.params.
_READS = {row: keys.split() for row, keys in {
    (): "seeds output mesh.steps optimizer.kind optimizer.mode optimizer.x0 map.name "
        "schedule.family schedule.params schedule.delta_T schedule.T",
    ("map=quadratic",): "map.m_diag",
    ("mode=empirical",): "problem.kind problem.d problem.N problem.seed",
    ("mode=synthetic",): "model.d",
    ("problem=logistic",): "problem.ridge",
    ("model=martingale",): "model.kind model.sigma model.n model.m",
    ("model=state_space",): "model.kind model.sigma",
    ("mode=empirical", "model=state_space"): "model.n model.m",
    ("mode=synthetic", "model=state_space"): "model.dtilde model.A model.L model.b",
    ("kind=filtered", "model=state_space"): "model.dtilde model.A model.L model.b",
}.items()}
_KNOWN = {key for keys in _READS.values() for key in keys}
_SECTIONS = {key.partition(".")[0] for key in _KNOWN}
# Spellings that name a setting whose key is elsewhere.
_ELSEWHERE = {"optimizer.steps": "mesh.steps",
              "schedule.params.delta_T": "schedule.delta_T",
              "schedule.params.horizon_T": "schedule.T"}


def _cell(cfg: dict) -> tuple:
    """cfg's cell, its (mode, optimizer kind, model kind, map name, problem
    kind) with defaults (None: no model, no problem in synthetic mode), and the
    keys of the rows whose settings it has; all keys if the builder refuses it."""
    opt, problem = cfg.get("optimizer", {}), cfg.get("problem", {})
    mode = opt.get("mode", "empirical" if problem else "synthetic")
    kind, model = opt.get("kind", "mirror_sgd"), cfg.get("model", {}).get("kind")
    name = cfg.get("map", {}).get("name", "quadratic")
    problem = problem.get("kind", "quadratic") if mode == "empirical" and problem else None
    cell = mode, kind, model, name, problem
    if not (kind in OPTIMIZER_KINDS and model in ("martingale", "state_space", None)
            and name in ("quadratic", "entropy")
            and (mode == "synthetic" and model is not None
                 or mode == "empirical" and problem in ("quadratic", "logistic"))):
        return cell, _KNOWN
    has = {f"mode={mode}", f"kind={'' if kind in _FILTERED_KINDS else 'un'}filtered",
           f"model={model}", f"map={name}", f"problem={problem}"}
    return cell, {key for row, keys in _READS.items() if has.issuperset(row) for key in keys}


def check_keys(*cfgs: dict) -> list:
    """ConfigError naming the first key of the cfgs that no run reads, or
    that none of their cells reads; returns the cells.  A sweep or a
    comparison passes the config of each of its runs: a key that one of
    them reads is taken by all, and the others do not read it."""
    def refuse(key):
        hint = f"; the setting is {_ELSEWHERE[key]}" if key in _ELSEWHERE else ""
        raise ConfigError(f"unknown config key {key!r}{hint}")

    given = [[section if name is None else f"{section}.{name}" for section, value in cfg.items()
              for name in (value if isinstance(value, dict) else [None])] for cfg in cfgs]
    for key in (key for keys in given for key in keys if key not in _KNOWN):
        refuse(key if key.partition(".")[0] in _SECTIONS else key.partition(".")[0])
    for cfg in cfgs:
        params = cfg.get("schedule", {}).get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"schedule.params must be a JSON object, got {params!r}")
        for key in sorted(params.keys() & {"delta_T", "horizon_T"}):
            refuse(f"schedule.params.{key}")
    cells = [_cell(cfg) for cfg in cfgs]
    reads = set().union(*(keys for _, keys in cells))
    for key in (key for keys in given for key in keys if key not in reads):
        raise ConfigError(f"{key} is not read by " + " or ".join(dict.fromkeys(
            f"{mode} {kind} runs with {model or 'no'} models, the {name} map and "
            f"{problem or 'no'} problems" for (mode, kind, model, name, problem), _ in cells)))
    return [cell for cell, _ in cells]


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


_SCHEDULE_FAMILIES = {
    "constant": constant_schedule,
    "linear": linear_schedule,
    "polynomial": polynomial_schedule,
}


def _value(cfg, key: str, default, shape: tuple = (), integer: bool = False,
           minimum: Optional[int] = None, size: str = ""):
    """The number at the dotted key of cfg, or its float array of the given
    shape, whose lengths the key size sets, read by the module's one rule:
    default when the key is absent or null, else ConfigError naming it.  An
    integer key reads as an exact int, and an array of them as a list."""
    *sections, name = key.split(".", 2)     # a schedule.params name may hold a dot
    node = cfg
    for section in sections:
        node = node.get(section, {})
    value = node.get(name)
    if value is None:
        return default
    entries, fits = [value], True
    for length in shape:
        fits = fits and all(isinstance(v, list) and len(v) == length for v in entries)
        entries = [x for v in entries for x in (v if isinstance(v, list) else [v])]
    for x in entries:
        # A number, finite (in the float range for a float key), integral for an integer key.
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or not (integer and isinstance(x, int) or abs(x) <= sys.float_info.max)
                or integer and x != int(x)):
            raise ConfigError(f"{key} = {value!r} cannot be read: {x!r} is not "
                              + ("an integer" if integer else "a finite number"))
    numbers = [int(x) if integer else float(x) for x in entries]
    if minimum is not None and min(numbers, default=minimum) < minimum:
        raise ConfigError(f"{key} = {value} must be >= {minimum}")
    if not fits:
        shown = json.loads(json.dumps(value), parse_int=float)      # its numbers as floats
        raise ConfigError(f"{key} = {shown} does not have the "
                          f"{'length' if len(shape) == 1 else 'shape'} "
                          + " x ".join([size] * len(shape)) + " = " + " x ".join(map(str, shape)))
    if not shape:
        return numbers[0]
    return numbers if integer else np.array(numbers).reshape(shape)


def _build_mirror(cfg: dict, dim: str, d: int, name) -> MirrorMap:
    try:
        if name == "quadratic":
            return quadratic_map(m_diag=_value(cfg, "map.m_diag", None, shape=(d,), size=dim))
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
        raise ConfigError(f"invalid schedule for schedule.family = {family}: {exc}") from exc


def _build_model(cfg: dict, d: int, batch: Optional[tuple]):
    """The gradient model; an empirical run passes batch = (problem.N, the
    batch size), which a martingale model takes as its (n, m)."""
    section = cfg.get("model")
    if not section:
        return None
    kind = section.get("kind")
    try:
        sigma = _value(cfg, "model.sigma", 1.0)
        if kind == "martingale":
            n, m = batch or (_value(cfg, "model.n", 1, integer=True),
                             _value(cfg, "model.m", 1, integer=True))
            return MartingaleGradientModel(sigma=sigma, n=n, m=m, d=d)
        if kind == "state_space":
            dtilde = _value(cfg, "model.dtilde", 1, integer=True, minimum=1)
            b = _value(cfg, "model.b", np.ones(dtilde), shape=(dtilde,), size="model.dtilde")
            a, l = (_value(cfg, f"model.{key}", np.eye(dtilde), shape=(dtilde, dtilde),
                           size="model.dtilde") for key in ("A", "L"))
            return StateSpaceGradientModel(a_mat=a, l_mat=l, sigma=sigma, d=d, b_vec=b)
    except ValueError as exc:
        raise ConfigError(f"invalid gradient model: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Assemble and validate an experiment from a parsed config dict."""
    return _experiment(cfg, *check_keys(cfg))


def _experiment(cfg: dict, cell: tuple) -> ExperimentConfig:
    """build_experiment of cfg, whose keys check_keys has checked."""
    mode, kind, _, map_name, problem_kind = cell
    if kind == "fosp_continuous" and map_name == "quadratic":
        raise ConfigError("optimizer.kind = fosp_continuous is mirror_sgd on the quadratic map, "
                          "where its Euler substeps add up to one mirror_sgd step: use mirror_sgd")
    if mode == "empirical" and not cfg.get("problem"):
        raise ConfigError("optimizer.mode = empirical needs a problem: "
                          "set problem.kind, problem.d and problem.N")

    problem = None
    dim = "problem.d" if mode == "empirical" else "model.d"
    d = _value(cfg, dim, 2, integer=True, minimum=1)
    if mode == "empirical":
        try:
            problem = generate_problem(
                problem_kind, d=d, n=_value(cfg, "problem.N", 100, integer=True, minimum=1),
                rng=component_rng(_value(cfg, "problem.seed", 0, integer=True, minimum=0),
                                  "problem"),
                ridge=_value(cfg, "problem.ridge", 1e-2),
            )
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"invalid problem: {exc}") from exc

    mirror = _build_mirror(cfg, dim, d, map_name)
    schedule = _build_schedule(cfg)
    # An empirical run takes its data size from problem.N: the model's copy must agree.
    given = _value(cfg, "model.n", None, integer=True) if mode == "empirical" else None
    if given is not None and given != problem.n:
        raise ConfigError(f"model.n = {given} disagrees with problem.N = {problem.n}")
    batch_m = _value(cfg, "model.m", problem.n, integer=True) if mode == "empirical" else None
    if batch_m is not None and not 1 <= batch_m <= problem.n:
        raise ConfigError(f"model.m = {batch_m} is not a batch size in "
                          f"[1, problem.N = {problem.n}]")
    model = _build_model(cfg, d, (problem.n, batch_m) if mode == "empirical" else None)

    spec = OptimizerSpec(kind=kind, mirror=mirror, schedule=schedule, model=model, mode=mode,
                         x0=_value(cfg, "optimizer.x0", None, shape=(d,), size=dim),
                         batch_m=batch_m)
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

    seeds = cfg.get("seeds")
    seeds = (_value(cfg, "seeds", None, shape=(len(seeds),), integer=True)
             if isinstance(seeds, list) else [_value(cfg, "seeds", 0, integer=True)])
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise ConfigError(f"seeds = {seeds} must be a non-empty list of distinct seeds >= 0")

    steps = _value(cfg, "mesh.steps", 100, integer=True)
    try:
        _mesh_times(schedule, steps)
    except ValueError as exc:
        raise ConfigError(f"mesh.steps = {steps}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"mesh.steps = {steps}: the mesh does not fit in memory: {exc}") from exc

    return ExperimentConfig(
        problem=problem, mirror=mirror, schedule=schedule, optimizer_spec=spec,
        seeds=seeds, steps=steps, output=str(cfg.get("output", "varopt_out")),
    )
