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
from .config import ConfigError, ExperimentConfig, _experiment, check_keys

__all__ = ["RunArtifacts", "run_experiment", "sweep", "compare"]

_FMT = "%.17g"
# Rows converted to Python floats at a time when writing a CSV: the whole
# block at once would raise the peak memory of a run by its size.
_CSV_ROWS = 32


def _fmt(value: float) -> str:
    return _FMT % value


def _failure(exc: BaseException) -> str:
    """The "{Type}: {message}" line of an exception, newlines folded."""
    return f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}"


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
    diagnostics_error: Optional[str] = None

    @property
    def mean_final_gap(self) -> float:
        """Mean of the final gaps of the seeds that did not fail; NaN when
        every seed failed."""
        gaps = np.array([t.loss_gap[-1] for t in self.trajectories if t.error is None])
        return float(gaps.mean()) if len(gaps) else float("nan")


def _write_csv(path: str, header: list, block: np.ndarray) -> None:
    """The header line, then one line per row of the float block, each
    value formatted by _FMT, which writes an integral value below 1e17,
    such as a step index, as the integer."""
    line = ",".join([_FMT] * block.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(block), _CSV_ROWS):
            chunk = block[start:start + _CSV_ROWS]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


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
    phi_cols = 1 if phi.ndim == 1 else phi.shape[1]
    header = (["k", "t"] + [f"x{i}" for i in range(d)] + ["loss_gap"]
              + [f"phi{j}" for j in range(phi_cols)] + ["filter_norm"])
    block = np.column_stack([np.arange(rows), traj.times, traj.x_path, traj.loss_gap,
                             _padded(phi, rows, phi_cols),
                             _padded(traj.filter_mean_norm, rows, 1)])
    _write_csv(path, header, block)


def _write_diagnostics_csv(path: str, report: diag.EnsembleReport,
                           rate: diag.RateBoundReport) -> None:
    header = ["t", "mean_energy", "se_energy", "mean_gap", "bound_value", "ratio"]
    block = np.column_stack([report.times, report.mean_energy, report.se_energy,
                             report.mean_gap, rate.bound_value, rate.ratio])
    _write_csv(path, header, block)


def run_experiment(config: ExperimentConfig, write: bool = True) -> RunArtifacts:
    """One trajectory per seed plus aggregated diagnostics.

    Per-seed failures are recorded in the artifact's error map without
    aborting the remaining seeds; a numerical failure of the diagnostics
    over the seeds without one is recorded as diagnostics_error, with no
    report, supermartingale or rate-bound result.
    """
    spec = config.optimizer_spec
    trajectories = run_ensemble(spec, config.problem, config.steps, config.seeds)
    errors = {t.seed: t.error for t in trajectories if t.error is not None}

    report = supermartingale = rate = diagnostics_error = None
    complete = [t for t in trajectories if t.error is None]
    if complete and spec.mode == "empirical" and config.steps > 0:
        try:
            report, supermartingale, rate = _diagnostics(config, complete)
        except _NUMERICAL_FAILURES as exc:
            diagnostics_error = _failure(exc)

    artifacts = RunArtifacts(config=config, trajectories=trajectories,
                             report=report, supermartingale=supermartingale,
                             rate_bound=rate, errors=errors,
                             diagnostics_error=diagnostics_error)
    if write:
        _write_artifacts(artifacts)
    return artifacts


def _diagnostics(config: ExperimentConfig, complete: list):
    """The ensemble report, supermartingale check and rate-bound check of
    the energy paths and brackets of the complete trajectories of an
    empirical run."""
    energy_paths, bracket_paths = diag.energy_path(
        config.optimizer_spec.mirror, config.schedule, complete, config.problem.x_star)
    report = diag.ensemble_report(complete[0].times[:-1], energy_paths,
                                  np.stack([t.loss_gap[:-1] for t in complete]), bracket_paths)
    return (report, diag.supermartingale_check(energy_paths),
            diag.rate_bound_check(report, config.schedule))


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
    if artifacts.diagnostics_error is not None:
        lines.append(f"diagnostics failed: {artifacts.diagnostics_error}")
    if artifacts.supermartingale is not None:
        sm = artifacts.supermartingale
        lines.append(f"supermartingale_pass = {sm.passed} "
                     f"(max increase {_fmt(sm.max_increase)})")
    if artifacts.rate_bound is not None:
        rb = artifacts.rate_bound
        lines.append(f"rate_bound_pass = {rb.passed} (max ratio {_fmt(rb.max_ratio)})")
    return "\n".join(lines) + "\n"


def _set_dotted(cfg: dict, settings: dict) -> dict:
    """cfg, with each dotted key of settings set to its value in place."""
    for dotted, value in settings.items():
        node = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return cfg


def _run_cells(raw_cfg: dict, header: list, cells: list, base_output: str,
               command: str, write: bool) -> str:
    """Run one experiment per (labels, settings) cell, settings mapping
    dotted config keys to values, and write {command}.csv in base_output,
    one row per cell; returns its path.  check_keys takes every cell's
    config before base_output is made: it refuses a key only when no cell
    reads it, and each cell leaves unread the keys that only others read.
    A cell failing with a config failure (a ConfigError, or an OSError such
    as a file where its output goes) or a numerical one gets the row
    "error:{Type}: {message}" (newlines folded); any other exception
    propagates.  When no cell ran, the CSV is written and ConfigError is
    raised if every cell failed with a config failure, else NumericalError,
    naming the CSV and the first failure (a numerical one, if any)."""
    cfgs = [_set_dotted(copy.deepcopy(raw_cfg), settings) for _, settings in cells]
    keyed = check_keys(*cfgs)
    os.makedirs(base_output, exist_ok=True)
    rows = [header + ["n_seeds", "n_failed", "mean_final_gap"]]
    failures = []
    for (labels, _), cfg, cell in zip(cells, cfgs, keyed):
        row = list(labels)
        try:
            experiment = _experiment(cfg, cell)
            artifacts = run_experiment(experiment, write=write)
            row += [str(len(experiment.seeds)), str(len(artifacts.errors)),
                    _fmt(artifacts.mean_final_gap)]
        except (*_NUMERICAL_FAILURES, OSError) as exc:     # a ConfigError is a ValueError
            failure = _failure(exc)
            row += ["0", "all", f"error:{failure}"]
            failures.append((isinstance(exc, (ConfigError, OSError)), failure))
        rows.append(row)
    path = os.path.join(base_output, f"{command}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if failures and len(failures) == len(cells):
        numerical = [failure for config, failure in failures if not config]
        first = numerical[0] if numerical else failures[0][1]
        text = f"every {command} cell failed ({path}); first: {first}"
        raise NumericalError(text) if numerical else ConfigError(text)
    return path


def sweep(raw_cfg: dict, grid: dict) -> str:
    """Cross-product sweep over config values.

    grid maps dotted config keys to value lists; a key that no grid cell
    reads, or a value that check_keys refuses, is a ConfigError before any
    cell runs.  Writes one summary CSV with a row per grid cell, a failed
    cell included (see _run_cells), in the config's output directory, and
    returns its path.
    """
    keys = sorted(grid.keys())
    cells = [([str(v) for v in combo], dict(zip(keys, combo)))
             for combo in itertools.product(*(grid[k] for k in keys))]
    base_output = str(raw_cfg.get("output", "varopt_out"))
    return _run_cells(raw_cfg, keys, cells, base_output, "sweep", write=False)


def compare(raw_cfg: dict, kinds: Sequence[str]) -> str:
    """Run the same config under several optimizer kinds on identical
    seeds, each in compare_{kind}; returns the path of the comparison
    summary CSV, a failed kind included (see _run_cells).  A kind named
    twice is a ConfigError before any directory is made."""
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ConfigError(f"{kind} is named twice, and both runs would write compare_{kind}")
    base_output = str(raw_cfg.get("output", "varopt_out"))
    cells = [([kind], {"optimizer.kind": kind,
                       "output": os.path.join(base_output, f"compare_{kind}")})
             for kind in kinds]
    return _run_cells(raw_cfg, ["optimizer"], cells, base_output, "compare", write=True)
