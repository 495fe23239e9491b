"""Command-line interface.

Subcommands: run, sweep, compare, selftest.  Exit codes of run, sweep and
compare: 0 when every seed of the run succeeded or any cell ran, 2 for a
configuration error (every cell's, when no cell ran), among them a mesh
too large to allocate, which names mesh.steps, 3 for a failed seed or
diagnostic, every ArithmeticError, ValueError, RuntimeError or
RuntimeWarning the library raises and any other MemoryError.  sweep and
compare record a failed cell as a CSV row.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..optimizers import _NUMERICAL_FAILURES
from .config import ConfigError, _json_or_string, build_experiment, load_config
from .runner import compare, run_experiment, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_grid(spec: str) -> dict:
    """Grid syntax: 'key=v1,v2;other.key=v3,v4'.  A clause's values are one
    JSON array when they parse as one ('optimizer.x0=[1,1],[2,2]'), else
    they are split at every comma into JSON values or bare strings.  A key
    may head one clause only."""
    grid = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigError(f"bad grid clause {clause!r}")
        key, values = clause.split("=", 1)
        try:
            parsed = json.loads(f"[{values}]")
        except json.JSONDecodeError:
            parsed = [_json_or_string(token.strip()) for token in values.split(",")]
        if not parsed:
            raise ConfigError(f"grid clause {clause!r} has no values")
        if key.strip() in grid:
            raise ConfigError(f"grid key {key.strip()} is given in two clauses")
        grid[key.strip()] = parsed
    if not grid:
        raise ConfigError("empty parameter grid")
    return grid


def _cmd_run(args) -> int:
    config = build_experiment(load_config(args.config))
    artifacts = run_experiment(config)
    for path in artifacts.files:
        print(path)
    for seed, err in sorted(artifacts.errors.items()):
        print(f"seed {seed} failed: {err}", file=sys.stderr)
    if artifacts.diagnostics_error is not None:
        print(f"diagnostics failed: {artifacts.diagnostics_error}", file=sys.stderr)
    return EXIT_NUMERICAL if artifacts.errors or artifacts.diagnostics_error else EXIT_OK


def _cmd_sweep(args) -> int:
    raw = load_config(args.config)
    grid = _parse_grid(args.grid)
    print(sweep(raw, grid))
    return EXIT_OK


def _cmd_compare(args) -> int:
    raw = load_config(args.config)
    kinds = [k.strip() for k in args.optimizers.split(",") if k.strip()]
    if not kinds:
        raise ConfigError("--optimizers needs at least one optimizer kind")
    print(compare(raw, kinds))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varopt",
        description="Stochastic-optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="e.g. 'model.m=10,50;mesh.steps=10,20'")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="same seeds, several optimizers")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--optimizers", required=True, help="comma-separated kinds")
    p_cmp.set_defaults(func=_cmd_compare)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
