"""Every config key changes the run or is refused.

For a fixed list of cells (stream mode, optimizer kind, model kind, map,
problem), every key of the config table but those that pick the cell is
perturbed in turn on a small run of that cell.  The perturbed config must
be refused naming the key (the CLI's exit 2) or change the run's outputs,
and a refused config, built without check_keys, must still be refused by
the builder or give the unperturbed outputs: a refused key is unread.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from varopt.harness import ConfigError, build_experiment, run_experiment
from varopt.harness.config import _KNOWN, _cell, _experiment
from varopt.harness.runner import _set_dotted
from varopt.optimizers import _FILTERED_KINDS, OPTIMIZER_KINDS

# One perturbed value per key, for a d = 2 run whose state-space model
# has the default dtilde = 1.  "polynomial" takes no alpha0, so its
# refusal must name schedule.family.
_PERTURBED = {
    "seeds": [0, 2],
    "mesh.steps": 2,
    "optimizer.x0": [0.5, 1.5],
    "schedule.family": "polynomial",
    "schedule.params": {"alpha0": math.log(20.0), "beta0": math.log(0.01)},
    "schedule.delta_T": 0.5,
    "schedule.T": 1.5,
    "map.m_diag": [2.0, 0.5],
    "problem.kind": "logistic",
    "problem.d": 3,
    "problem.N": 31,
    "problem.seed": 1,
    "problem.ridge": 0.05,
    "model.d": 3,
    "model.sigma": 0.3,
    "model.n": 5,
    "model.m": 3,
    "model.dtilde": 2,
    "model.A": [[0.5]],
    "model.L": [[2.0]],
    "model.b": [0.5],
}
# The keys that pick the cell: each of their values is a cell of the list,
# or a cell that the builder refuses with its own message.
_CELL_KEYS = {"optimizer.mode", "optimizer.kind", "model.kind", "map.name"}
_EXEMPT = {"output"}     # it names a directory and changes no result


def _unperturbed(mode, kind, model):
    """The perturbed keys that the cell does not test: problem.kind, which
    picks the cell of an empirical run, and model.sigma in an empirical
    unfiltered run with a model.  There the model gives only the batch
    size, and model.sigma is accepted unread, since the benchmark's
    workload configs set it.  (The agreement key model.n set equal to
    problem.N changes nothing either; the value above disagrees with it.)"""
    skipped = [] if mode == "synthetic" else ["problem.kind"]
    if mode == "empirical" and model and kind not in _FILTERED_KINDS:
        skipped.append("model.sigma")
    return skipped


# (mode, kind, model kind, map name, problem: kind and seed, "d" for a
# synthetic run that sets its dimension, model.d = 2, or None).  The
# entropy map runs empirically on problem seeds whose minimizer, and the
# perturbed problems' minimizers, lie in its orthant.  fosp_continuous runs
# on the entropy map: the builder refuses it on the quadratic map, where it
# is mirror_sgd.
_CELLS = [
    ("synthetic", "mirror_sgd", "martingale", "quadratic", None),
    ("synthetic", "mirror_sgd", "state_space", "entropy", None),
    ("synthetic", "fosp_continuous", "martingale", "entropy", None),
    ("synthetic", "fosp_continuous", "state_space", "entropy", None),
    ("synthetic", "kalman_gd", "state_space", "quadratic", None),
    ("synthetic", "generalized_momentum", "state_space", "entropy", None),
    # Polyak's heavy ball: generalized momentum at the default dtilde = 1.
    pytest.param(("synthetic", "generalized_momentum", "state_space", "quadratic", None),
                 id="synthetic-polyak_momentum-state_space-quadratic-None"),
    ("synthetic", "mirror_sgd", "martingale", "entropy", "d"),
    ("synthetic", "kalman_gd", "state_space", "quadratic", "d"),
    ("empirical", "mirror_sgd", "martingale", "quadratic", ("quadratic", 0)),
    ("empirical", "mirror_sgd", "state_space", "quadratic", ("logistic", 0)),
    ("empirical", "mirror_sgd", None, "entropy", ("quadratic", 11)),
    ("empirical", "fosp_continuous", "martingale", "entropy", ("quadratic", 24)),
    ("empirical", "fosp_continuous", "state_space", "entropy", ("quadratic", 24)),
    ("empirical", "fosp_continuous", None, "entropy", ("quadratic", 11)),
    ("empirical", "kalman_gd", "state_space", "quadratic", ("logistic", 0)),
    ("empirical", "generalized_momentum", "state_space", "quadratic", ("quadratic", 0)),
    pytest.param(("empirical", "generalized_momentum", "state_space", "quadratic",
                  ("logistic", 0)),
                 id="empirical-polyak_momentum-state_space-quadratic-logistic"),
]


def _base(mode, kind, model, map_name, problem) -> dict:
    """A 3-step, 2-seed run of the cell with a constant schedule, whose
    weight exp(alpha + beta) = 0.1 keeps Phi positive."""
    cfg = {"map": {"name": map_name},
           "schedule": {"family": "constant",
                        "params": {"alpha0": math.log(10.0), "beta0": math.log(0.01)},
                        "T": 1.0},
           "mesh": {"steps": 3}, "optimizer": {"kind": kind, "mode": mode}, "seeds": [0, 1]}
    if problem not in (None, "d"):
        cfg["problem"] = {"kind": problem[0], "d": 2, "N": 30, "seed": problem[1]}
    if model is not None:
        cfg["model"] = {"kind": model}
        if problem == "d":
            cfg["model"]["d"] = 2
        if model == "martingale" and mode == "synthetic":
            cfg["model"].update(n=4, m=2)
    return cfg


def _outputs(cfg: dict, checked: bool = True) -> list:
    """The bytes of every path of every seed's trajectory, of a run built
    with or without check_keys."""
    cfg = copy.deepcopy(cfg)
    experiment = build_experiment(cfg) if checked else _experiment(cfg, _cell(cfg)[0])
    artifacts = run_experiment(experiment, write=False)
    return [(t.seed, t.error) + tuple(
        np.asarray([] if path is None else path, dtype=float).tobytes()
        for path in (t.times, t.x_path, t.loss_gap, t.phi_path, t.filter_mean_norm))
        for t in artifacts.trajectories]


def test_every_key_is_perturbed_or_exempt():
    assert set(_PERTURBED) | _CELL_KEYS | _EXEMPT == _KNOWN


@pytest.mark.parametrize("cell", _CELLS, ids=lambda cell: "-".join(
    str(part[0] if isinstance(part, tuple) else part) for part in cell))
def test_every_key_changes_the_run_or_is_refused(cell):
    mode, kind, model, _, _ = cell
    base = _base(*cell)
    outputs = _outputs(base)
    assert all(error is None for _, error, *_ in outputs)
    skipped = _unperturbed(mode, kind, model)
    failures = []
    for key, value in _PERTURBED.items():
        if key in skipped:
            continue
        perturbed = _set_dotted(copy.deepcopy(base), {key: value})
        try:
            if _outputs(perturbed) == outputs:
                failures.append(f"{key} = {value!r} is accepted and changes nothing")
        except ConfigError as exc:
            if key not in str(exc):
                failures.append(f"{key} = {value!r} is refused without its name: {exc}")
            try:
                if _outputs(perturbed, checked=False) != outputs:
                    failures.append(f"{key} = {value!r} is refused and changes the run")
            except ConfigError:
                pass
    assert not failures


# The distinct (mode, model kind, map name, problem) of _CELLS.
_KIND_CELLS = list(dict.fromkeys(
    (mode, model, map_name, problem) for mode, _, model, map_name, problem
    in (getattr(cell, "values", (cell,))[0] for cell in _CELLS)))


@pytest.mark.parametrize("cell", _KIND_CELLS, ids=lambda cell: "-".join(
    str(part[0] if isinstance(part, tuple) else part) for part in cell))
def test_no_two_kinds_give_one_result(cell):
    # Every kind that the builder admits on the cell runs seed 0 for 5
    # steps, and no two of them give the same iterates.  On the quadratic
    # map fosp_continuous is mirror_sgd, and the builder refuses it, naming
    # mirror_sgd.
    mode, model, map_name, problem = cell
    paths = {}
    for kind in OPTIMIZER_KINDS:
        cfg = _set_dotted(_base(mode, kind, model, map_name, problem),
                          {"seeds": [0], "mesh.steps": 5})
        try:
            experiment = build_experiment(cfg)
        except ConfigError as exc:
            if kind == "fosp_continuous" and map_name == "quadratic":
                assert "mirror_sgd" in str(exc)
            continue
        (trajectory,) = run_experiment(experiment, write=False).trajectories
        assert trajectory.error is None
        paths[kind] = trajectory.x_path
    assert "mirror_sgd" in paths
    assert map_name == "entropy" or "fosp_continuous" not in paths
    for a, b in itertools.combinations(paths, 2):
        x, y = paths[a], paths[b]
        scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
        assert np.abs(x - y).max() / scale > 1e-12, f"{a} and {b} give one result"
