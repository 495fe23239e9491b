"""Experiment orchestration: seeded runs, ensembles, sweeps, CSV output.

All output files are written by a single collector in seed order with
full-precision (17 significant digit) decimal floats, so a fixed
(config, seeds) pair produces byte-identical artifacts.
"""

from __future__ import annotations

import copy
import csv
import itertools
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import diagnostics as diag
from ..bregman import NumericalError
from ..optimizers import _NUMERICAL_FAILURES, run_ensemble
from .config import ConfigError, ExperimentConfig, build_experiment, check_keys

__all__ = ["RunArtifacts", "run_experiment", "sweep", "compare"]

_FMT = "%.17g"
# Rows converted to Python floats at a time when writing a CSV: the whole
# block at once would raise the peak memory of a run by its size.
_CSV_ROWS = 64


def _fmt(value: float) -> str:
    return _FMT % value


@dataclass
class RunArtifacts:
    """In-memory results of one experiment plus the files it wrote."""

    config: ExperimentConfig
    trajectories: list
    report: Optional[diag.EnsembleReport]
    supermartingale: Optional[diag.SupermartingaleReport]
    rate_bound: Optional[diag.RateBoundReport]
    files: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    @property
    def final_gaps(self) -> np.ndarray:
        return np.array([t.loss_gap[-1] for t in self.trajectories])

    @property
    def mean_final_gap(self) -> float:
        """Mean of the finite final gaps; NaN when none is finite."""
        gaps = self.final_gaps
        finite = gaps[np.isfinite(gaps)]
        return float(finite.mean()) if len(finite) else float("nan")


def _write_csv(path: str, header: list, block: np.ndarray, fmt=_FMT) -> None:
    """The header line, then one line per row of the float block, each
    value formatted by fmt (one format or one per column)."""
    fmts = [fmt] * block.shape[1] if isinstance(fmt, str) else fmt
    line = ",".join(fmts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(block), _CSV_ROWS):
            fh.writelines(line % tuple(row)
                          for row in block[start:start + _CSV_ROWS].tolist())


def _padded(values, rows: int, cols: int) -> np.ndarray:
    """values as a (rows, cols) block, NaN below its own rows."""
    out = np.full((rows, cols), np.nan)
    if values is not None:
        values = np.asarray(values, dtype=float).reshape(-1, cols)
        out[:len(values)] = values
    return out


def _write_trajectory_csv(path: str, traj) -> None:
    rows, d = traj.x_path.shape
    phi = traj.phi_path
    phi_cols = 0 if phi is None else 1 if np.ndim(phi) == 1 else np.shape(phi)[1]
    header = (["k", "t"] + [f"x{i}" for i in range(d)] + ["loss_gap", "qv"]
              + [f"phi{j}" for j in range(phi_cols)] + ["filter_norm"])
    block = np.column_stack([np.arange(rows), traj.times, traj.x_path, traj.loss_gap,
                             traj.qv_path, _padded(phi, rows, phi_cols),
                             _padded(traj.filter_mean_norm, rows, 1)])
    _write_csv(path, header, block, ["%d"] + [_FMT] * (block.shape[1] - 1))


def _write_diagnostics_csv(path: str, report: diag.EnsembleReport,
                           rate: diag.RateBoundReport) -> None:
    header = ["t", "mean_energy", "se_energy", "mean_gap", "bound_value", "ratio"]
    block = np.column_stack([report.times, report.mean_energy, report.se_energy,
                             report.mean_gap, rate.bound_value, rate.ratio])
    _write_csv(path, header, block)


def run_experiment(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """One trajectory per seed plus aggregated diagnostics.

    Per-seed failures are recorded in the artifact's error map without
    aborting the remaining seeds.
    """
    spec = config.optimizer_spec
    trajectories = run_ensemble(spec, config.problem, config.steps, config.seeds)
    errors = {t.seed: t.error for t in trajectories if t.error is not None}

    report = None
    supermartingale = None
    rate = None
    complete = [t for t in trajectories if t.error is None and t.steps == config.steps]
    empirical = spec.mode == "empirical" and config.problem is not None
    if complete and empirical and config.steps > 0:
        gap_paths = np.stack([t.loss_gap for t in complete])
        energy_paths = diag._energy_paths(
            config.mirror, config.schedule, complete[0].times,
            np.stack([t.x_path for t in complete]), np.stack([t.nu_path for t in complete]),
            gap_paths, config.problem.x_star)
        qv_paths = np.stack([t.qv_path[:-1] for t in complete])
        report = diag.ensemble_report(complete[0].times[:-1], energy_paths,
                                      gap_paths[:, :-1], qv_paths)
        supermartingale = diag.supermartingale_check(energy_paths)
        rate = diag.rate_bound_check(report, config.schedule,
                                     bound_constant=config.bound_constant)

    artifacts = RunArtifacts(config=config, trajectories=trajectories,
                             report=report, supermartingale=supermartingale,
                             rate_bound=rate, errors=errors)
    if write:
        _write_artifacts(artifacts)
    return artifacts


def _write_artifacts(artifacts: RunArtifacts) -> None:
    config = artifacts.config
    os.makedirs(config.output, exist_ok=True)
    for seed, traj in zip(config.seeds, artifacts.trajectories):
        path = os.path.join(config.output, f"trajectory_seed{seed}.csv")
        _write_trajectory_csv(path, traj)
        artifacts.files.append(path)
    if artifacts.report is not None:
        path = os.path.join(config.output, "diagnostics.csv")
        _write_diagnostics_csv(path, artifacts.report, artifacts.rate_bound)
        artifacts.files.append(path)
    path = os.path.join(config.output, "summary.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_summary_text(artifacts))
    artifacts.files.append(path)


def _summary_text(artifacts: RunArtifacts) -> str:
    config = artifacts.config
    lines = [
        f"optimizer = {config.optimizer_spec.kind}",
        f"mode = {config.optimizer_spec.mode}",
        f"steps = {config.steps}",
        f"seeds = {','.join(str(s) for s in config.seeds)}",
    ]
    mean_gap = artifacts.mean_final_gap
    if not np.isnan(mean_gap):
        lines.append(f"mean_final_gap = {_fmt(mean_gap)}")
    for seed, traj in zip(config.seeds, artifacts.trajectories):
        status = traj.error if traj.error else "ok"
        lines.append(f"seed {seed}: final_gap = {_fmt(float(traj.loss_gap[-1]))} [{status}]")
    if artifacts.supermartingale is not None:
        sm = artifacts.supermartingale
        lines.append(f"supermartingale_pass = {sm.passed} "
                     f"(max increase {_fmt(sm.max_increase)})")
    if artifacts.rate_bound is not None:
        rb = artifacts.rate_bound
        lines.append(f"rate_bound_pass = {rb.passed} "
                     f"(max ratio {_fmt(rb.max_ratio)} vs {_fmt(rb.bound_constant)})")
    return "\n".join(lines) + "\n"


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def sweep(raw_cfg: dict, grid: dict, output: Optional[str] = None) -> str:
    """Cross-product sweep over config values.

    grid maps dotted config keys to value lists; a key that
    build_experiment does not read, or whose first value it cannot take
    in that place, is a ConfigError before any cell runs.  Writes one
    summary CSV with a row per grid cell and returns its path.  A cell
    that fails with a configuration error or a numerical failure is
    recorded in its row as "error:{Type}: {message}" (newlines folded)
    instead of aborting the sweep; any other exception propagates.  When
    no cell ran, the CSV is written and the sweep raises ConfigError if
    every cell failed with one, else NumericalError, naming the CSV and
    the first failure (a numerical one, if any).
    """
    keys = sorted(grid.keys())
    for key in keys:
        for value in grid[key][:1]:
            probe: dict = {}
            _set_dotted(probe, key, value)
            check_keys(probe)
    values = [grid[k] for k in keys]
    base_output = output or str(raw_cfg.get("output", "varopt_out"))
    os.makedirs(base_output, exist_ok=True)
    rows = [keys + ["n_seeds", "n_failed", "mean_final_gap"]]
    failures = []
    for combo in itertools.product(*values):
        cfg = copy.deepcopy(raw_cfg)
        for key, value in zip(keys, combo):
            _set_dotted(cfg, key, value)
        row = [str(v) for v in combo]
        try:
            experiment = build_experiment(cfg)
            artifacts = run_experiment(experiment, write=False)
            row += [str(len(experiment.seeds)), str(len(artifacts.errors)),
                    _fmt(artifacts.mean_final_gap)]
        except _NUMERICAL_FAILURES as exc:     # a ConfigError is a ValueError
            failure = f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}"
            row += ["0", "all", f"error:{failure}"]
            failures.append((exc, failure))
        rows.append(row)
    path = os.path.join(base_output, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if len(failures) == len(rows) - 1:
        numerical = [failure for exc, failure in failures if not isinstance(exc, ConfigError)]
        first = numerical[0] if numerical else failures[0][1]
        text = f"every sweep cell failed ({path}); first: {first}"
        raise NumericalError(text) if numerical else ConfigError(text)
    return path


def compare(raw_cfg: dict, kinds: Sequence[str]) -> str:
    """Run the same config under several optimizer kinds on identical
    seeds; returns the path of the comparison summary CSV."""
    base_output = str(raw_cfg.get("output", "varopt_out"))
    os.makedirs(base_output, exist_ok=True)
    lines = ["optimizer,n_seeds,n_failed,mean_final_gap"]
    for kind in kinds:
        cfg = copy.deepcopy(raw_cfg)
        _set_dotted(cfg, "optimizer.kind", kind)
        cfg["output"] = os.path.join(base_output, f"compare_{kind}")
        experiment = build_experiment(cfg)
        artifacts = run_experiment(experiment, write=True)
        lines.append(",".join([kind, str(len(experiment.seeds)),
                               str(len(artifacts.errors)), _fmt(artifacts.mean_final_gap)]))
    path = os.path.join(base_output, "compare.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
