"""Problems, configs, the experiment runner and the CLI."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varopt import OptimizerSpec, quadratic_map, run_ensemble
from varopt import diagnostics as diag_module
from varopt.harness import (
    ConfigError,
    build_experiment,
    component_rng,
    generate_problem,
    load_config,
    parse_config_text,
    run_experiment,
    sweep,
)
from varopt.harness import config as config_module
from varopt.harness import problems as problems_module
from varopt.harness import runner
from varopt.harness.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from varopt.harness.runner import compare
from varopt.optimizers import _FILTERED_KINDS, _NUMERICAL_FAILURES, OPTIMIZER_KINDS

from shared_oracles import scaling_linear

BASE_CONFIG = """
# quadratic mini-batch SGD on a scaling schedule
problem.kind = quadratic
problem.d = 3
problem.N = 50
map.name = quadratic
schedule.family = linear
schedule.params = {"alpha0": 2.302585092994046, "beta0": -0.7, "gamma1": 10.0}
schedule.delta_T = 19.3
schedule.T = 2.0
mesh.steps = 20
model.kind = martingale
model.sigma = 0.5
model.n = 50
model.m = 10
optimizer.kind = mirror_sgd
optimizer.mode = empirical
seeds = [0, 1, 2]
"""

# BASE_CONFIG on the entropy map, on a problem seed whose minimizer lies in
# its orthant.  There fosp_continuous is not mirror_sgd, as it is on the
# quadratic map, where the builder refuses it.
_ENTROPY_CONFIG = BASE_CONFIG + "map.name = entropy\nproblem.seed = 9\n"

# BASE_CONFIG with beta0 = 0.5: Phi turns negative and the run diverges.
_BETA0_HALF = BASE_CONFIG + ('schedule.params = {"alpha0": 2.302585092994046, "beta0": 0.5, '
                             '"gamma1": 10.0}\n')

# kalman_gd on the simulated state-space stream of a 3-dimensional latent state.
KALMAN_CONFIG = """
map.name = quadratic
schedule.family = constant
schedule.params = {"alpha0": 3.2188758248682006, "beta0": -7.824046010856292}
schedule.T = 20.0
mesh.steps = 10
model.kind = state_space
model.d = 4
model.dtilde = 3
model.A = [[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]]
model.b = [1.0, 0.5, 0.25]
model.sigma = 0.5
optimizer.kind = kalman_gd
optimizer.mode = synthetic
seeds = [0, 1]
"""


# Every seed runs, and then the energy diagnostic's displaced point
# X + exp(-alpha) nu rounds to -2.2e-16, outside the entropy map's orthant.
_ENTROPY_EDGE = {
    "problem.kind": "quadratic", "problem.d": 1, "problem.N": 40, "problem.seed": 29,
    "map.name": "entropy", "schedule.family": "polynomial",
    "schedule.params": {"p": 1.0, "c": 0.1, "t_min": 0.05},
    "schedule.delta_T": 2.05225468807837, "schedule.T": 2.0, "mesh.steps": 1,
    "model.kind": "state_space", "model.sigma": 2.0,
    "optimizer.kind": "mirror_sgd", "optimizer.mode": "empirical", "seeds": [0, 1],
}


# fosp_continuous from X_0 = 1 on the entropy map: seed 0 leaves the float
# range at step 0, and seed 1 ends at x = (1.1e137, 1.6e172), finite, whose
# logistic loss overflows.
_HUGE_ITERATE = {
    "problem.kind": "logistic", "problem.d": 2, "problem.N": 24, "problem.seed": 57,
    "map.name": "entropy", "schedule.family": "constant",
    "schedule.params": {"alpha0": 1.8688, "beta0": 1.7220},
    "schedule.delta_T": 9.5107, "schedule.T": 1.582, "mesh.steps": 1,
    "model.kind": "martingale", "model.sigma": 0.0, "model.n": 24, "model.m": 2,
    "optimizer.kind": "fosp_continuous", "optimizer.mode": "empirical", "seeds": [0, 1],
}
_FILES_WITHOUT_DIAGNOSTICS = ["summary.txt", "trajectory_seed0.csv", "trajectory_seed1.csv"]

# Every seed of BASE_CONFIG fails at step 0: the loss gap of X_0 overflows.
_HUGE_X0 = "optimizer.x0 = [1e200, 1e200, 1e200]\n"


# The logistic losses of a fixed stack, written as the hex of their bytes.
_LOSS_STACK_SCRIPT = """
import sys
from varopt.harness import component_rng, generate_problem
problem = generate_problem("logistic", d=16, n=3001, rng=component_rng(25, "problem"))
xs = component_rng(26, "problem").standard_normal((9, 16))
sys.stdout.write(problem.loss(xs).tobytes().hex())
"""

# x* and f* of three logistic problems, one line of hex bytes each: the
# benchmark's size, one below a chunk and one wide problem ending in an
# overlapped chunk.
_NEWTON_SCRIPT = """
import sys
import numpy as np
from varopt.harness import component_rng, generate_problem
for d, n in ((16, 20000), (5, 501), (40, 3001)):
    problem = generate_problem("logistic", d=d, n=n, rng=component_rng(27, "problem"))
    sys.stdout.write(np.append(problem.x_star, problem.f_star).tobytes().hex() + "\\n")
"""

# `varopt run` on the config file argv[1] in a process whose address space
# is capped at 3 GiB, so that an allocation past it fails at once instead of
# paging the host.
_CAPPED_RUN_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from varopt.harness.cli import main
sys.exit(main(["run", sys.argv[1]]))
"""


def _child_run(script: str, *args: str, **extra_env) -> subprocess.CompletedProcess:
    """script run with args by a child Python on this checkout's sources;
    only the child gets extra_env, and no inherited OPENBLAS_CORETYPE."""
    src = str(Path(problems_module.__file__).resolve().parents[2])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env={**env, **extra_env},
                          capture_output=True, text=True, timeout=120)


def _child_stdout(script: str, **extra_env) -> str:
    """Stdout of _child_run(script), which must exit 0."""
    done = _child_run(script, **extra_env)
    done.check_returncode()
    return done.stdout


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", ""))
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _dotted_text(cfg: dict) -> str:
    """Config text of a dotted key -> value dict."""
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items())


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_dotted_keys_and_json_values(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg["problem"]["kind"] == "quadratic"
        assert cfg["schedule"]["params"]["gamma1"] == 10.0
        assert cfg["seeds"] == [0, 1, 2]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# header\n\na.b = 1  # trailing\n")
        assert cfg == {"a": {"b": 1}}

    def test_bare_strings_kept(self):
        assert parse_config_text("x = not json\n") == {"x": "not json"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_scalar_conflict_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na.b = 2\n")

    def test_load_config_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/path.cfg")


class TestBuildExperiment:
    def test_valid_config_builds(self):
        exp = build_experiment(parse_config_text(BASE_CONFIG))
        assert exp.problem.n == 50
        assert exp.optimizer_spec.kind == "mirror_sgd"
        assert exp.seeds == [0, 1, 2]
        assert exp.steps == 20

    @pytest.mark.parametrize("override", [
        "map.name = sphere",
        "schedule.family = exotic",
        "optimizer.kind = adam",
        "model.kind = arma",
        "mesh.steps = -3",
        # Keys that build_experiment does not read, and the spellings of
        # settings whose key is elsewhere.
        "optimizer.fosp_substeps = 0",
        "optimizer.fosp_substeps = -3",
        "schedule.delta_t = 19.3",
        "problem.n = 50",
        "optimiser.kind = mirror_sgd",
        "output.dir = out",
        "optimizer.steps = 20",
        "schedule.params.delta_T = 19.3",
        "schedule.params.horizon_T = 2.0",
        "map.name = entropy\nmap.lower = 5\nmap.upper = 1",
        # A parameter name with a dot is a name the family does not take.
        'schedule.params = {"alpha0": 2.302585092994046, "beta0": -0.7, "gamma1": 10.0, '
        '"beta1.x": 5.0}',
        # Vectors whose length is not problem.d = 3.
        "optimizer.x0 = [1.0, 2.0]",
        "map.m_diag = [1.0, 2.0]",
    ])
    def test_invalid_values_rejected(self, override):
        raw = parse_config_text(BASE_CONFIG + override + "\n")
        with pytest.raises(ConfigError):
            build_experiment(raw)

    @pytest.mark.parametrize("override, key", [
        ("schedule.delta_t = 19.3", "'schedule.delta_t'"),
        ("optimizer.steps = 20", "'optimizer.steps'; the setting is mesh.steps"),
        ("schedule.params.horizon_T = 2.0",
         "'schedule.params.horizon_T'; the setting is schedule.T"),
        ("map.lower = 0.1", "'map.lower'"),
        # Fixed by model.m and by _FOSP_SUBSTEPS; the rate bound has no constant.
        ("optimizer.batch_m = 10", "'optimizer.batch_m'"),
        ("optimizer.fosp_substeps = 4", "'optimizer.fosp_substeps'"),
        ("diagnostics.bound_constant = 10", "'diagnostics'"),
    ])
    def test_unknown_key_is_named(self, override, key):
        raw = parse_config_text(BASE_CONFIG + override + "\n")
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            build_experiment(raw)

    # The harness wraps the library's own checks of the kind and the step
    # count instead of repeating them.
    @pytest.mark.parametrize("override, message", [
        ("optimizer.kind = adam", "invalid optimizer spec: unknown optimizer kind 'adam'; "
         "Polyak momentum is generalized_momentum with model.dtilde = 1"),
        ("mesh.steps = -3", "mesh.steps = -3: steps must be >= 0"),
    ])
    def test_library_checks_are_wrapped(self, override, message):
        raw = parse_config_text(BASE_CONFIG + override + "\n")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build_experiment(raw)

    # A misspelled setting of the cell is named by the builder, not taken
    # for a cell that does not read the keys given with it.
    @pytest.mark.parametrize("override, message", [
        ("model.kind = state_space\nmodel.A = [[0.5]]\noptimizer.kind = kalman_GD",
         "invalid optimizer spec: unknown optimizer kind 'kalman_GD'; "
         "Polyak momentum is generalized_momentum with model.dtilde = 1"),
        ("map.name = custom\nmap.m_diag = [1.0, 1.0, 1.0]",
         "custom maps are library-embedding only, not configurable"),
        ("problem.kind = logistc\nproblem.ridge = 0.1", "invalid problem: unknown problem kind "
         "'logistc'"),
        ("optimizer.mode = synth\nproblem.ridge = 0.1",
         "invalid optimizer spec: unknown stream mode 'synth'"),
    ], ids=["optimizer.kind", "map.name", "problem.kind", "optimizer.mode"])
    def test_misspelled_cell_is_named_by_the_builder(self, override, message):
        raw = parse_config_text(BASE_CONFIG + override + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_experiment(raw)

    def test_a_is_factored_once_per_entry_point(self, monkeypatch):
        # The model and phi_vector_path each take one Cholesky test of A;
        # eigvalsh sees only the stacked posterior covariances.
        calls = {"cholesky": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(m, *args, _name=name, _original=original, **kwargs):
                calls[_name] += np.ndim(m) == 2
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        artifacts = run_experiment(build_experiment(parse_config_text(KALMAN_CONFIG)),
                                   write=False)
        assert not artifacts.errors
        assert calls == {"cholesky": 2, "eigvalsh": 0}

    def test_null_value_reads_as_default(self):
        raw = parse_config_text(BASE_CONFIG + "model.m = null\n"
                                'schedule.params = {"alpha0": 2.302585092994046, '
                                '"beta0": null, "gamma1": 10.0}\n')
        exp = build_experiment(raw)
        assert exp.optimizer_spec.batch_m == 50   # problem.N
        assert exp.schedule.beta(0.0) == 0.0      # linear_schedule's beta0

    def test_integral_float_reads_as_an_integer(self):
        exp = build_experiment(parse_config_text(
            BASE_CONFIG + "problem.N = 5e1\nmodel.n = 50.0\nmesh.steps = 2e1\nseeds = [0, 1e0]\n"))
        assert (exp.problem.n, exp.steps, exp.seeds) == (50, 20, [0, 1])
        assert all(type(v) is int for v in (exp.problem.n, exp.steps, *exp.seeds))

    def test_mesh_past_horizon_rejected(self):
        raw = parse_config_text(BASE_CONFIG + "mesh.steps = 200\n")
        with pytest.raises(ConfigError):
            build_experiment(raw)

    def test_environment_does_not_change_the_seeds(self, monkeypatch):
        # The config alone fixes a run; a later line overrides the seeds.
        monkeypatch.setenv("VAROPT_SEED", "17")
        assert build_experiment(parse_config_text(BASE_CONFIG)).seeds == [0, 1, 2]
        assert build_experiment(parse_config_text(BASE_CONFIG + "seeds = [17]\n")).seeds == [17]


class TestProblems:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_minimizer_is_stationary(self, kind):
        problem = generate_problem(kind, d=4, n=60, rng=component_rng(0, "problem"))
        assert float(np.linalg.norm(problem.full_gradient(problem.x_star))) <= 1e-10

    def test_full_batch_reproduces_full_gradient_exactly(self):
        problem = generate_problem("logistic", d=3, n=40,
                                   rng=component_rng(1, "problem"))
        x = np.array([0.3, -0.2, 0.5])
        rng = component_rng(1, "batch")
        np.testing.assert_array_equal(
            problem.minibatch_gradients(x[None], 40, [rng])[0], problem.full_gradient(x))

    def test_minibatch_unbiased(self):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(2, "problem"))
        rng = component_rng(2, "batch")
        points = component_rng(3, "problem").standard_normal((5, 3))
        for x in points:
            draws = np.stack([problem.minibatch_gradients(x[None], 6, [rng])[0]
                              for _ in range(10_000)])
            mean = draws.mean(axis=0)
            se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
            assert np.all(np.abs(mean - problem.full_gradient(x)) <= 3.0 * se)

    def test_finite_population_variance_factor(self):
        problem = generate_problem("quadratic", d=2, n=40,
                                   rng=component_rng(4, "problem"))
        x = np.array([0.7, -1.1])
        m = 8
        rng = component_rng(4, "batch")
        draws = np.stack([problem.minibatch_gradients(x[None], m, [rng])[0]
                          for _ in range(10_000)])
        trace = float(np.sum(draws.var(axis=0, ddof=1)))
        grads = problem.per_sample_gradients(x)
        s2 = float(np.sum((grads - grads.mean(axis=0)) ** 2)) / (problem.n - 1)
        expected = s2 / m * (problem.n - m) / problem.n
        assert trace == pytest.approx(expected, rel=0.1)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("d,n", [(3, 40), (16, 500)])
    def test_minibatch_gradient_is_the_batch_rows(self, kind, d, n):
        # The batch gradient is computed on the m drawn rows only, and
        # equals the mean of those rows of the full per-sample array.
        problem = generate_problem(kind, d=d, n=n, rng=component_rng(6, "problem"))
        x = component_rng(7, "problem").standard_normal(d)
        full = problem.per_sample_gradients(x)
        for m in (1, 2, 3, 5, 17, n - 1):
            got = problem.minibatch_gradients(x[None], m, [component_rng(m, "batch")])[0]
            idx = component_rng(m, "batch").choice(n, size=m, replace=False)
            np.testing.assert_array_equal(got, full[idx].mean(axis=0))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("n_seeds", [1, 2, 7])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_stacked_minibatch_rows_are_the_one_row_calls(self, kind, n_seeds, scale):
        # Each row is drawn by its own generator and equals the one-row
        # call, and the mean of its batch's rows of the per-sample array,
        # bit for bit; m = n draws nothing and is the full gradient.
        n, d = 64, 5
        problem = generate_problem(kind, d=d, n=n, rng=component_rng(17, "problem"))
        xs = scale * component_rng(18, "problem").standard_normal((n_seeds, d))
        for m in (1, 2, 3, 5, 17, 64):
            got = problem.minibatch_gradients(
                xs, m, [component_rng(seed, "batch") for seed in range(n_seeds)])
            one_row = np.stack([
                problem.minibatch_gradients(x[None], m, [component_rng(seed, "batch")])[0]
                for seed, x in enumerate(xs)])
            np.testing.assert_array_equal(got, one_row, strict=True)
            if m < n:
                batch_rows = np.stack([
                    problem.per_sample_gradients(x)[
                        component_rng(seed, "batch").choice(n, size=m, replace=False)
                    ].mean(axis=0) for seed, x in enumerate(xs)])
                np.testing.assert_array_equal(got, batch_rows, strict=True)
        np.testing.assert_array_equal(
            got, np.stack([problem.full_gradient(x) for x in xs]), strict=True)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_chunked_gather_is_the_whole_gather(self, kind, monkeypatch):
        # A budget of 2 or 3 batches takes 7 seeds in chunks with a tail.
        n, d, m = 200, 4, 30
        problem = generate_problem(kind, d=d, n=n, rng=component_rng(19, "problem"))
        xs = component_rng(20, "problem").standard_normal((7, d))
        whole = problem.minibatch_gradients(xs, m, [component_rng(s, "batch") for s in range(7)])
        for batches in (1, 2, 3):
            monkeypatch.setattr(problems_module, "_LOSS_BLOCK", batches * m * d)
            chunked = problem.minibatch_gradients(
                xs, m, [component_rng(s, "batch") for s in range(7)])
            np.testing.assert_array_equal(chunked, whole, strict=True)

    def test_stacked_minibatch_memory_does_not_grow_with_seeds(self):
        # One batch of 5000 x 16 doubles (640 kB) fills the budget, so 16
        # seeds are gathered one at a time; all at once would take 10 MB.
        n, d, m = 20000, 16, 5000
        problem = generate_problem("logistic", d=d, n=n, rng=component_rng(21, "problem"))
        xs = component_rng(22, "problem").standard_normal((16, d))
        rngs = [component_rng(s, "batch") for s in range(16)]
        tracemalloc.start()
        try:
            problem.minibatch_gradients(xs, m, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * d * 8

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_stacked_loss_matches_pointwise(self, kind):
        # n = 14000 makes logistic loss blocks of 9 rows, so 11 rows span
        # two blocks and end in a partial one.
        problem = generate_problem(kind, d=4, n=14000, rng=component_rng(8, "problem"))
        xs = component_rng(9, "problem").standard_normal((11, 4))
        losses, gaps = problem.loss(xs), problem.loss_gap(xs)
        assert losses.shape == gaps.shape == (11,)
        if kind == "quadratic":
            reference = [0.5 * np.mean(np.sum((x - problem.z) ** 2, axis=1)) for x in xs]
        else:
            reference = [np.mean(np.logaddexp(0.0, -problem.labels * (problem.features @ x)))
                         + 0.5 * problem.ridge * x @ x for x in xs]
        np.testing.assert_allclose(losses, reference, rtol=1e-14)
        np.testing.assert_allclose(losses, [problem.loss(x) for x in xs], rtol=1e-14)
        np.testing.assert_allclose(gaps, [problem.loss_gap(x) for x in xs], rtol=1e-14)
        np.testing.assert_allclose(gaps, losses - problem.f_star, rtol=1e-12)

    def test_quadratic_gap_has_no_cancellation(self):
        # Centred data puts x* within 1e-16 of 0, so x* + 1e-7 rounds at
        # the 1e-23 level and the exact gap is 1/2 d 1e-14.  Subtracting
        # f(x*) ~ d/2 from f(x) would lose all but two digits of it.
        d = 3
        problem = generate_problem("quadratic", d=d, n=200,
                                   rng=component_rng(10, "problem"))
        problem.z = problem.z - problem.x_star
        problem.x_star = problem.z.mean(axis=0)
        problem.f_star = problem.loss(problem.x_star)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical",
                             batch_m=10, x0=problem.x_star + 1e-7)
        traj = run_ensemble(spec, problem, 0, [0])[0]
        assert traj.steps == 0
        assert traj.loss_gap.shape == (1,)
        assert traj.loss_gap[0] == pytest.approx(0.5 * d * 1e-14, rel=1e-12, abs=0)

    def test_quadratic_generation_computes_no_loss(self, monkeypatch):
        calls = []
        loss = problems_module.ProblemInstance.loss

        def counting(problem, x):
            calls.append(x)
            return loss(problem, x)

        monkeypatch.setattr(problems_module.ProblemInstance, "loss", counting)
        problem = generate_problem("quadratic", d=3, n=40, rng=component_rng(11, "problem"))
        assert calls == []
        # The first read of f(x*) is loss(x*) bit for bit; the second reads it back.
        expected = loss(problem, problem.x_star)
        assert problem.f_star.hex() == expected.hex()
        assert len(calls) == 1
        assert problem.f_star.hex() == expected.hex()
        assert len(calls) == 1

    def test_logistic_generation_fills_f_star(self, monkeypatch):
        problem = generate_problem("logistic", d=3, n=40, rng=component_rng(11, "problem"))
        assert "f_star" in vars(problem)
        monkeypatch.setattr(problems_module.ProblemInstance, "loss",
                            lambda problem, x: pytest.fail("f(x*) was not filled at generation"))
        assert problem.f_star == vars(problem)["f_star"]

    def test_failed_run_keeps_one_gap_per_iterate(self):
        problem = generate_problem("logistic", d=3, n=80, rng=component_rng(11, "problem"))
        draw = problem.minibatch_gradients
        steps = iter(range(20))

        def fails_at_step_4(xs, m, rngs):
            if next(steps) == 4:
                raise FloatingPointError("overflow")
            return draw(xs, m, rngs)

        problem.minibatch_gradients = fails_at_step_4
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical", batch_m=8)
        traj = run_ensemble(spec, problem, 20, [0])[0]
        assert traj.error.startswith("FloatingPointError at step 4:")
        assert traj.steps == 4
        np.testing.assert_array_equal(traj.loss_gap, problem.loss_gap(traj.x_path))
        assert np.all(np.isfinite(traj.loss_gap))

    # x0 = (1e200, 1) is finite and in the domain, but its logistic loss
    # overflows: with or without steps, every seed fails at X_0.
    @pytest.mark.parametrize("steps", [0, 3])
    def test_infinite_initial_gap_fails_every_seed_at_step_0(self, steps):
        problem = generate_problem("logistic", d=2, n=30, rng=component_rng(3, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical", batch_m=5,
                             x0=np.array([1e200, 1.0]))
        for traj in run_ensemble(spec, problem, steps, [0, 1]):
            assert traj.error == "FloatingPointError at step 0: loss gap is not finite"
            assert traj.steps == 0 and traj.loss_gap.tolist() == [np.inf]

    def test_logistic_loss_does_not_depend_on_the_block(self, monkeypatch):
        # Blocks of 2, 3, 5 and 12 rows; 62 rows leave tails of 0 or 2,
        # and 49 rows a tail of one row in blocks of 2, 3 and 12.  Chunks
        # of 64 and 128 data rows end in a chunk that overlaps its
        # neighbour; the default chunk takes all n at once.
        n = 500
        problem = generate_problem("logistic", d=5, n=n, rng=component_rng(13, "problem"))
        xs = component_rng(14, "problem").standard_normal((62, 5))
        for chunk in (64, 128, problems_module._LOSS_CHUNK):
            monkeypatch.setattr(problems_module, "_LOSS_CHUNK", chunk)
            monkeypatch.setattr(problems_module, "_LOSS_BLOCK", 1 << 17)
            whole = problem.loss(xs)
            for rows in (2, 3, 5, 12):
                monkeypatch.setattr(problems_module, "_LOSS_BLOCK", rows * chunk)
                np.testing.assert_array_equal(problem.loss(xs), whole, strict=True)
                np.testing.assert_array_equal(problem.loss(xs[:49]), whole[:49], strict=True)
            np.testing.assert_array_equal([problem.loss(x) for x in xs], whole)

    def test_small_logistic_loss_does_not_depend_on_the_block(self):
        # n = 501 < one chunk and 501 mod 8 = 5: a 501-column product would
        # round its last 5 margins by the block's row count on SkylakeX.
        problem = generate_problem("logistic", d=16, n=501, rng=component_rng(102, "problem"))
        xs = component_rng(202, "problem").standard_normal((62, 16))
        whole = problem.loss(xs)
        np.testing.assert_array_equal(
            np.concatenate([problem.loss(xs[i:i + 2]) for i in range(0, 62, 2)]), whole)
        np.testing.assert_array_equal([problem.loss(x) for x in xs], whole)

    def test_logistic_set_up_builds_no_data_sized_temporary(self):
        # The data is one (n, d) array; a Hessian product over all n rows
        # at once would add an (n, d) temporary beside it.  A first call
        # allocates numpy's one-time state, so one small problem goes first.
        generate_problem("logistic", d=2, n=10, rng=component_rng(0, "problem"))
        tracemalloc.start()
        try:
            problem = generate_problem("logistic", d=16, n=20000,
                                       rng=component_rng(17, "problem"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * problem.features.nbytes

    def test_wide_logistic_loss_does_not_depend_on_the_block(self):
        # d = 40 >= 32: a product of 2 rows by fewer than 601 columns would
        # go to OpenBLAS's small-matrix kernel on SkylakeX and round
        # differently from a larger block.  n = 3001 ends in an overlapped chunk.
        problem = generate_problem("logistic", d=40, n=3001, rng=component_rng(13, "problem"))
        xs = 0.1 * component_rng(14, "problem").standard_normal((62, 40))
        whole = problem.loss(xs)
        np.testing.assert_array_equal(
            np.concatenate([problem.loss(xs[i:i + 2]) for i in range(0, 62, 2)]), whole)
        np.testing.assert_array_equal([problem.loss(x) for x in xs], whole)

    # n a multiple of the chunk width, not a multiple, and below one chunk.
    @pytest.mark.parametrize("n", [4 * problems_module._LOSS_CHUNK, 20000, 3001, 500])
    def test_logistic_loss_is_the_exact_sum_to_rounding(self, n):
        problem = generate_problem("logistic", d=5, n=n, rng=component_rng(23, "problem"))
        xs = component_rng(24, "problem").standard_normal((7, 5))
        for x, got in zip(xs, problem.loss(xs)):
            terms = np.logaddexp(0.0, -problem.labels * (problem.features @ x))
            exact = math.fsum(terms) / n + 0.5 * problem.ridge * x @ x
            assert abs(got - exact) <= 1e-15 * abs(exact)

    def test_softplus_tail_is_the_max_form_bit_for_bit(self):
        margins = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 800.0, -800.0, np.nan,
                            0.5, -0.5, 709.0, -709.0, 1e-17, -1e-17])
        with np.errstate(over="raise", invalid="raise"):
            old = np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))
            new = problems_module._softplus_neg(margins.copy(), np.empty_like(margins))
        finite = ~np.isnan(old)
        np.testing.assert_array_equal(np.isnan(new), ~finite)
        np.testing.assert_array_equal(new[finite].view(np.uint64), old[finite].view(np.uint64))

    def test_logistic_loss_holds_two_block_buffers(self):
        # One (2000, n) product would need 320 MB.
        problem = generate_problem("logistic", d=3, n=20000, rng=component_rng(15, "problem"))
        xs = component_rng(16, "problem").standard_normal((2000, 3))
        tracemalloc.start()
        try:
            problem.loss(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * problems_module._LOSS_BLOCK * 8 + xs.shape[0] * 8

    @pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")
    def test_logistic_loss_agrees_across_blas_kernels(self):
        def losses(**extra):
            return np.frombuffer(bytes.fromhex(_child_stdout(_LOSS_STACK_SCRIPT, **extra)))

        default = losses()
        assert default.shape == (9,)
        for coretype in ("Sandybridge", "Prescott"):
            np.testing.assert_allclose(losses(OPENBLAS_CORETYPE=coretype), default,
                                       rtol=1e-15, atol=0)

    @pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")
    def test_newton_solution_agrees_across_blas_kernels(self):
        def solutions(**extra):
            return [np.frombuffer(bytes.fromhex(line))
                    for line in _child_stdout(_NEWTON_SCRIPT, **extra).split()]

        default = solutions()
        assert [len(row) for row in default] == [17, 6, 41]
        for coretype in ("Sandybridge", "Prescott"):
            for got, want in zip(solutions(OPENBLAS_CORETYPE=coretype), default, strict=True):
                x_err = np.max(np.abs(got[:-1] - want[:-1])) / np.max(np.abs(want[:-1]))
                assert x_err <= 1e-13, (coretype, len(want) - 1, x_err)
                assert abs(got[-1] - want[-1]) <= 1e-13 * abs(want[-1]), (coretype, got[-1])

    # The benchmark's size and one at n // 8 = 1125 rows start from the
    # solution on n // 8 rows; below 8 chunks the solve starts from zero.
    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="np.longdouble is float64")
    @pytest.mark.parametrize("d, n", [(16, 20000), (16, 9000), (5, 501), (40, 3001)])
    def test_newton_solution_is_exact_to_rounding(self, d, n):
        problem = generate_problem("logistic", d=d, n=n, rng=component_rng(29, "problem"))
        x_star = problem.x_star
        assert np.linalg.norm(problem.full_gradient(x_star)) <= problems_module._REFERENCE_TOL
        feats, labels = problem.features.astype(np.longdouble), problem.labels.astype(np.longdouble)
        x = x_star.astype(np.longdouble)
        for _ in range(3):
            p = 1 / (1 + np.exp(labels * (feats @ x)))
            grad = feats.T @ (-labels * p) / n + problem.ridge * x
            hess = (problem.features.T * (p * (1 - p)).astype(float)) @ problem.features
            x -= np.linalg.solve(hess / n + problem.ridge * np.eye(d), grad.astype(float))
        exact = x.astype(float)
        assert np.linalg.norm(x_star - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_newton_sub_solve_failure_names_its_rows(self, monkeypatch):
        monkeypatch.setattr(problems_module, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match="on 1024 rows did not converge"):
            generate_problem("logistic", d=4, n=8192, rng=component_rng(29, "problem"))

    def test_logistic_extreme_margins_do_not_overflow(self):
        # |margins| reach beyond 709, where exp(margin) overflows.
        problem = generate_problem("logistic", d=3, n=50, rng=component_rng(12, "problem"))
        x = np.array([400.0, -400.0, 400.0])
        feats, labels = problem.features, problem.labels
        margins = labels * (feats @ x)
        assert margins.max() > 1000 and margins.min() < -1000
        weights = -labels * np.exp(-np.logaddexp(0.0, margins))
        ref_grads = weights[:, None] * feats + problem.ridge * x
        ref_loss = np.mean(np.logaddexp(0.0, -margins)) + 0.5 * problem.ridge * x @ x
        with np.errstate(over="raise", invalid="raise"):
            grads = problem.per_sample_gradients(x)
            batch = problem.minibatch_gradients(x[None], 10, [component_rng(12, "batch")])[0]
            loss = problem.loss(x)
        assert np.all(np.isfinite(grads)) and np.all(np.isfinite(batch))
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)

    def test_invalid_requests(self):
        problem = generate_problem("quadratic", d=2, n=10,
                                   rng=component_rng(0, "problem"))
        with pytest.raises(ValueError):
            problem.minibatch_gradients(np.zeros((1, 2)), 0, [component_rng(0, "batch")])
        with pytest.raises(ValueError):
            generate_problem("svm", d=2, n=10, rng=component_rng(0, "problem"))
        with pytest.raises(ValueError):
            generate_problem("quadratic", d=100, n=10,
                             rng=component_rng(0, "problem"))


class TestRngStreams:
    def test_components_are_independent_and_reproducible(self):
        a1 = component_rng(5, "problem").standard_normal(4)
        a2 = component_rng(5, "problem").standard_normal(4)
        b = component_rng(5, "batch").standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert np.max(np.abs(a1 - b)) > 0

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            component_rng(0, "weather")


class TestRunExperiment:
    def test_runs_and_writes_artifacts(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/out\n")
        art = run_experiment(build_experiment(raw))
        names = {os.path.basename(p) for p in art.files}
        assert names == {"trajectory_seed0.csv", "trajectory_seed1.csv",
                         "trajectory_seed2.csv", "diagnostics.csv", "summary.txt"}
        assert not art.errors
        assert art.report is not None
        assert np.all(np.isfinite(art.final_gaps))

    def test_byte_determinism(self, tmp_path):
        contents = []
        for sub in ("a", "b"):
            raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/{sub}\n")
            art = run_experiment(build_experiment(raw))
            contents.append({os.path.basename(p): open(p, "rb").read()
                             for p in art.files})
        assert contents[0] == contents[1]

    # The writer's one format gives the bytes of savetxt's, and on the
    # integral k column, here up to 139**6 = 7.2e12, those of %d.
    @pytest.mark.parametrize("fmt", ["%.17g", ["%d"] + ["%.17g"] * 5], ids=["one", "per_column"])
    def test_csv_bytes_are_savetxt_bytes(self, tmp_path, fmt):
        # 140 rows span three of the writer's row chunks.
        block = np.tile([[0.0, np.nan, np.inf, -np.inf, -0.0, 0.1],
                         [12.0, 5e-324, -1e308, 1.0 / 3.0, 2.0 ** 60, -1.5]], (70, 1))
        block[:, 0] = np.arange(len(block)) ** 6.0
        header = ["k", "a", "b", "c", "d", "e"]
        runner._write_csv(tmp_path / "new.csv", header, block)
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="\n") as fh:
            np.savetxt(fh, block, fmt=fmt, delimiter=",", header=",".join(header), comments="")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # K = 0 runs the general path: its trajectory CSV has the columns of a
    # K = 1 run, phi and filter_norm included.
    @pytest.mark.parametrize("base", [BASE_CONFIG, KALMAN_CONFIG],
                             ids=["empirical-mirror_sgd", "synthetic-kalman_gd"])
    def test_zero_step_trajectory_has_the_columns_of_every_run(self, base, tmp_path):
        csvs = {}
        for steps in (0, 1):
            raw = parse_config_text(base + f"output = {tmp_path}/k{steps}\nmesh.steps = {steps}\n")
            art = run_experiment(build_experiment(raw))
            assert not art.errors
            csvs[steps] = (tmp_path / f"k{steps}" / "trajectory_seed0.csv").read_text().splitlines()
        assert len(csvs[0]) == 2 and len(csvs[1]) == 3
        assert csvs[0][0] == csvs[1][0]
        assert csvs[0][1].count(",") == csvs[0][0].count(",")

    def test_the_energy_pass_is_the_public_one(self, monkeypatch):
        # One call of diagnostics.energy_path takes every complete seed.
        calls = []
        energy_path = diag_module.energy_path

        def counted(*args):
            calls.append(args)
            return energy_path(*args)

        monkeypatch.setattr(diag_module, "energy_path", counted)
        art = run_experiment(build_experiment(parse_config_text(BASE_CONFIG)), write=False)
        assert art.report is not None
        assert len(calls) == 1

    def test_per_seed_failure_recorded(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/out\n" + _HUGE_X0)
        art = run_experiment(build_experiment(raw))
        assert set(art.errors) == {0, 1, 2}
        assert art.report is None

    # A seed whose first gradient raises fails at step 0 with the gap of
    # X_0 as its only gap; the mean final gap is over the other seeds.
    @pytest.mark.parametrize("failing", [{1}, {0, 1, 2}], ids=["one", "every"])
    def test_mean_final_gap_leaves_out_failed_seeds(self, failing, tmp_path, monkeypatch):
        draw = problems_module.ProblemInstance.minibatch_gradients

        def raising(self, xs, m, rngs):
            if any(rng.bit_generator.seed_seq.entropy in failing for rng in rngs):
                raise FloatingPointError("gradient raised")
            return draw(self, xs, m, rngs)

        monkeypatch.setattr(problems_module.ProblemInstance, "minibatch_gradients", raising)
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/out\n")
        art = run_experiment(build_experiment(raw))
        assert set(art.errors) == failing
        for seed in failing:
            assert art.errors[seed] == "FloatingPointError at step 0: gradient raised"
            assert len(art.trajectories[seed].loss_gap) == 1
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        ok = [t.loss_gap[-1] for t in art.trajectories if t.seed not in failing]
        if ok:
            assert art.mean_final_gap == np.mean(ok)
            assert f"mean_final_gap = {runner._fmt(np.mean(ok))}" in summary
        else:
            assert math.isnan(art.mean_final_gap)
            assert not any(line.startswith("mean_final_gap") for line in summary)


class TestSweepAndCompare:
    def test_sweep_grid(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/sw\n"
                                "seeds = [0]\n")
        path = sweep(raw, {"model.m": [10, 50], "problem.d": [2, 3]})
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "model.m,problem.d,n_seeds,n_failed,mean_final_gap"
        assert len(lines) == 5

    def test_sweep_records_cell_failure(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/sw\n"
                                "seeds = [0]\n")
        path = sweep(raw, {"mesh.steps": [10, 10_000]})
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 3
        assert "error:" in lines[2]

    def test_sweep_over_vectors_and_objects(self, tmp_path):
        # Every cell's keys are checked before any cell runs, and a value
        # with commas is one quoted CSV field.
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/sw\n"
                                "seeds = [0]\n")
        path = sweep(raw, {"optimizer.x0": [[1, 1, 1], [2, 2, 2]],
                           "schedule.params": [{"alpha0": 2.302585092994046, "beta0": -0.7,
                                                "gamma1": 10.0}]})
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["optimizer.x0", "schedule.params", "n_seeds", "n_failed",
                           "mean_final_gap"]
        assert [row[:4] for row in rows[1:]] == [
            ["[1, 1, 1]", rows[1][1], "1", "0"], ["[2, 2, 2]", rows[1][1], "1", "0"]]

    def test_sweep_refuses_unknown_grid_key(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/sw\n"
                                "seeds = [0]\n")
        with pytest.raises(ConfigError, match="'model.sigma2'"):
            sweep(raw, {"model.sigma2": [0.1, 1.0]})
        assert not (tmp_path / "sw").exists()

    # Every cell's keys are checked before any cell runs: a grid key that
    # no cell reads is refused naming the key and the cells.
    @pytest.mark.parametrize("base, key, values, cell", [
        (BASE_CONFIG, "problem.ridge", [0.1, 1.0], "empirical mirror_sgd runs with "
         "martingale models, the quadratic map and quadratic problems"),
        (KALMAN_CONFIG, "model.m", [10, 50], "synthetic kalman_gd runs with "
         "state_space models, the quadratic map and no problems"),
    ], ids=["problem.ridge-quadratic", "model.m-synthetic-state_space"])
    def test_sweep_refuses_a_grid_key_the_cell_does_not_read(self, base, key, values, cell,
                                                             tmp_path):
        raw = parse_config_text(base + f"output = {tmp_path}/sw\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{key} is not read by {cell}')}$"):
            sweep(raw, {key: values})
        assert not (tmp_path / "sw").exists()

    # A key that one cell reads is taken by the whole grid, in either order
    # of its values, and the cells that do not read it run without it.
    @pytest.mark.parametrize("extra, grid", [
        ("", {"optimizer.mode": ["synthetic", "empirical"]}),
        ("problem.ridge = 0.05\n", {"problem.kind": ["quadratic", "logistic"]}),
        ("problem.ridge = 0.05\n", {"problem.kind": ["logistic", "quadratic"]}),
    ], ids=["mode", "problem.kind", "problem.kind-reversed"])
    def test_sweep_takes_a_key_that_one_cell_reads(self, extra, grid, tmp_path):
        raw = parse_config_text(BASE_CONFIG + extra + f"output = {tmp_path}/sw\nseeds = [0]\n")
        with open(sweep(raw, grid), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        (values,) = grid.values()
        assert [row[:3] for row in rows] == [[value, "1", "0"] for value in values]

    def test_compare_runs_each_kind_with_the_keys_it_reads(self, tmp_path):
        # kalman_gd reads the state-space prior and mirror_sgd does not, so
        # mirror_sgd's row is the row of the config without model.A.
        rows = []
        for extra in ("model.A = [[0.5]]\n", ""):
            raw = parse_config_text(BASE_CONFIG + "model.kind = state_space\n" + extra
                                    + f"output = {tmp_path}/cmp\nseeds = [0]\n")
            with open(compare(raw, ["mirror_sgd", "kalman_gd"]), newline="") as fh:
                rows.append(list(csv.reader(fh))[1:])
        assert [row[:3] for row in rows[0]] == [["mirror_sgd", "1", "0"], ["kalman_gd", "1", "0"]]
        assert rows[0][0] == rows[1][0] and rows[0][1] != rows[1][1]

    def test_compare_refuses_a_key_that_no_kind_reads(self, tmp_path):
        raw = parse_config_text(_ENTROPY_CONFIG + "model.kind = state_space\n"
                                f"model.A = [[0.5]]\noutput = {tmp_path}/cmp\n")
        with pytest.raises(ConfigError, match="^model.A is not read by empirical mirror_sgd "
                           "runs .* or empirical fosp_continuous runs"):
            compare(raw, ["mirror_sgd", "fosp_continuous"])
        assert not (tmp_path / "cmp").exists()

    def test_compare_runs_kinds(self, tmp_path):
        raw = parse_config_text(_ENTROPY_CONFIG + f"output = {tmp_path}/cmp\n"
                                "seeds = [0]\n")
        path = compare(raw, ["mirror_sgd", "fosp_continuous"])
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "optimizer,n_seeds,n_failed,mean_final_gap"
        assert len(lines) == 3
        assert lines[1].startswith("mirror_sgd,1,0,")
        assert lines[2].startswith("fosp_continuous,1,0,")
        assert lines[1].split(",")[3] != lines[2].split(",")[3]


def _readme_example(index=0):
    """The README's example config, or its state-space example at index 1."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```ini\n(.*?)```", readme, re.S)[index]


def _at_minimizer_example():
    """The README example on a quadratic problem with d = 2 and N = 10, run
    from its exact minimizer with the full batch: the iterates stay at x*,
    so every mean gap and every rate bound B_t is 0."""
    problem = generate_problem("quadratic", d=2, n=10, rng=component_rng(0, "problem"))
    return _readme_example() + ("problem.d = 2\nproblem.N = 10\nmodel.n = 10\nmodel.m = 10\n"
                                f"optimizer.x0 = {json.dumps(problem.x_star.tolist())}\n")


def _config_docstring_example():
    """The indented block after 'Example::' in the config module docstring."""
    lines = []
    for line in config_module.__doc__.split("Example::\n", 1)[1].splitlines()[1:]:
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


class TestCli:
    @pytest.mark.parametrize("example", [_readme_example, _config_docstring_example],
                             ids=["readme", "config-docstring"])
    def test_documented_example_runs(self, example, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", _write_config(tmp_path, example())]) == EXIT_OK
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_state_space_readme_example_compares_three_kinds(self, tmp_path, monkeypatch,
                                                             capsys):
        # The README CLI block's compare line: three results, no failed cell.
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, _readme_example(1))
        kinds = ["mirror_sgd", "kalman_gd", "generalized_momentum"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == EXIT_OK
            assert main(["compare", cfg, "--optimizers", ",".join(kinds)]) == EXIT_OK
        with open(tmp_path / "out" / "kalman" / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:3] for row in rows] == [[kind, "3", "0"] for kind in kinds]
        assert len({row[3] for row in rows}) == 3

    def test_run_success(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "summary.txt" in out

    def test_missing_config_is_config_error(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == EXIT_CONFIG

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + "map.name = sphere\n")
        assert main(["run", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("override, key", [
        ("schedule.delta_T = abc", "schedule.delta_T"),
        ("schedule.T = abc", "schedule.T"),
        ("mesh.steps = abc", "mesh.steps"),
        ('seeds = [0, "a"]', "seeds"),
        ("problem.d = abc", "problem.d"),
        ("problem.N = abc", "problem.N"),
        ("problem.seed = abc", "problem.seed"),
        ("model.sigma = abc", "model.sigma"),
        ("optimizer.x0 = abc", "optimizer.x0"),
        ('schedule.params = {"beta0": "abc"}', "schedule.params.beta0"),
        ('schedule.family = polynomial\nschedule.params = {"p": "abc"}', "schedule.params.p"),
        ("model.sigma = NaN", "model.sigma"),
        ("schedule.delta_T = NaN", "schedule.delta_T"),
        ("schedule.T = -Infinity", "schedule.T"),
        ("mesh.steps = Infinity", "mesh.steps"),
        ("optimizer.x0 = [NaN, 1, 1]", "optimizer.x0"),
        ("map.name = entropy\noptimizer.x0 = [-1, 1, 1]", "optimizer.x0"),
        # An integer key refuses a fraction, a bool and, for a seed or
        # problem.N, a value out of range.
        ("mesh.steps = 5.9", "mesh.steps"),
        ("mesh.steps = true", "mesh.steps"),
        ("model.m = 10.5", "model.m"),
        ("seeds = [0.5, 1.5]", "seeds"),
        ("seeds = [-1, 2]", "seeds"),
        ("problem.seed = -1", "problem.seed"),
        ("problem.N = 0", "problem.N"),
        # A float or array key refuses a bool too.
        ("schedule.delta_T = false", "schedule.delta_T"),
        ("schedule.T = true", "schedule.T"),
        ("model.sigma = true", "model.sigma"),
        ("optimizer.x0 = [true, false, true]", "optimizer.x0"),
        ('schedule.params = {"beta0": true}', "schedule.params.beta0"),
        # A number spelled as a string is refused, whatever float() makes of it.
        ('model.sigma = "0.5"', "model.sigma"),
        ("model.sigma = 1_0", "model.sigma"),
        ('optimizer.x0 = ["0.5", "1", "1"]', "optimizer.x0"),
        ('map.m_diag = ["1", "2", "3"]', "map.m_diag"),
        ('mesh.steps = "5"', "mesh.steps"),
    ])
    def test_unreadable_value_is_config_error(self, override, key, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + override + "\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert f"{key} = " in capsys.readouterr().err

    def test_empirical_run_without_problem_is_config_error(self, tmp_path, capsys):
        text = "".join(line + "\n" for line in BASE_CONFIG.splitlines()
                       if not line.startswith("problem."))
        cfg = _write_config(tmp_path, text + f"output = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "optimizer.mode = empirical needs a problem" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_schedule_is_numerical_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n"
                            'schedule.params = {"gamma1": 400.0}\n'
                            "schedule.delta_T = 1.0\nschedule.T = 2.0\nmesh.steps = 2\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        assert "overflow" in capsys.readouterr().err

    def test_overflowing_weight_names_the_weight_and_its_time(self, tmp_path, capsys):
        # exp(alpha + beta + gamma) = exp(400 t) passes the float range
        # between the grid times 1 and 2 of the learning-rate path.
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n"
                            'schedule.params = {"gamma1": 400.0}\n'
                            "schedule.T = 2.0\nmesh.steps = 2\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: overflow: the schedule weight exp(alpha + beta + gamma) "
            "passes the float range first at t = 2\n")

    def test_mesh_overflow_is_config_error(self, tmp_path, capsys):
        # alpha turns negative, so exp(-alpha) overflows before the mesh
        # passes the horizon check.
        cfg = _write_config(tmp_path, BASE_CONFIG
                            + 'schedule.params = {"alpha0": 1.0, "alpha1": -0.2}\n'
                            "schedule.T = 3.0\nmesh.steps = 40\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "mesh.steps = 40: mesh recursion produced a non-finite time" in (
            capsys.readouterr().err)

    def test_overflowing_propagator_names_the_phi_interval(self, tmp_path, capsys):
        # The last interval, [t_9, T], is 1e6 wide: expm(A Delta) overflows
        # in matrix_exp's squaring, which the tier-1 filters make an error
        # unless the Phi stage runs it with overflow ignored.
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\n"
                            "schedule.T = 1e6\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert ("learning-rate path Phi: the exponential of interval 9, of width 1e+06, "
                "overflows the float range") in err
        assert "overflow encountered" not in err

    # A polynomial schedule takes Phi's local integrals from the quadrature.
    # Here the interval exponentials are finite, but the integrand
    # w(u) expm(A (u - e_i)) overflows on interval 2: under either warning
    # filter the run exits 3 with one line, and no warning fires.
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_overflowing_integrand_names_the_phi_interval(self, action, tmp_path, capsys):
        cfg = _write_config(tmp_path, textwrap.dedent("""\
            schedule.family = polynomial
            schedule.params = {"p": 2.0, "c": 1e300, "t_min": 0.5}
            schedule.T = 2.0
            mesh.steps = 3
            model.kind = state_space
            model.d = 2
            model.dtilde = 1
            model.A = [[160.0]]
            model.b = [1.0]
            optimizer.kind = kalman_gd
            optimizer.mode = synthetic
            """) + f"output = {tmp_path}/out\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["run", cfg]) == EXIT_NUMERICAL
        assert caught == []
        assert capsys.readouterr().err == (
            "numerical failure: learning-rate path Phi: the integrand of interval 2 "
            "overflows the float range at the node u = 1.33258\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_propagator_is_named_without_every_interval(self, tmp_path, capsys):
        # 100000 intervals of width 1e5, up to rounding: expm(A Delta)
        # overflows, and naming the first such interval exponentiates the
        # few distinct widths again, not a (K, 2 dtilde, 2 dtilde) stack of
        # 28.8 MB.
        steps = 100000
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\n"
                            f'schedule.params = {{"alpha0": {-math.log(1e5)!r}, "beta0": -7.8}}\n'
                            f"schedule.T = 2e10\nmesh.steps = {steps}\n")
        tracemalloc.start()
        try:
            assert main(["run", cfg]) == EXIT_NUMERICAL
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "numerical failure: learning-rate path Phi: the exponential of interval 0, of width "
            "100000, overflows the float range at stack index (0,)\n")
        assert peak < steps * 6 * 6 * 8

    # The linear family takes J_i from the Van Loan exponential: here
    # J_i / w(e_{i+1}) and the weight w(e_{i+1}) are finite, but their
    # product overflows on interval 0.  On the constant family the backward
    # recursion of b' M overflows from finite pieces at t_1 = 1, and so do
    # the decay exp(-gamma) at gamma0 = -710 and the terminal value
    # exp(delta_T) at delta_T = 710.  Under either warning filter the run
    # exits 3 with one line naming the stage, and no warning fires.
    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("schedule, stage", [
        ('schedule.family = linear\nschedule.params = {"beta0": 700.0, "beta1": -5.0}\n',
         "exp(-gamma) b' M passes the float range at the mesh time t = 0"),
        ('schedule.params = {"beta0": 0.0}\nschedule.delta_T = 700.0\n',
         "exp(-gamma) b' M passes the float range at the mesh time t = 1"),
        ('schedule.family = linear\nschedule.params = {"gamma0": -710.0}\n',
         "exp(-gamma) b' M passes the float range at the mesh time t = 1"),
        ("schedule.delta_T = 710.0\n",
         "the terminal value exp(delta_T) passes the float range at delta_T = 710"),
    ], ids=["J", "bM", "decay", "terminal"])
    def test_overflow_from_finite_pieces_names_the_phi_stage(self, schedule, stage, action,
                                                             tmp_path, capsys):
        cfg = _write_config(tmp_path, textwrap.dedent("""\
            schedule.T = 2.0
            mesh.steps = 2
            model.kind = state_space
            model.d = 2
            model.dtilde = 1
            model.A = [[20.0]]
            optimizer.kind = kalman_gd
            optimizer.mode = synthetic
            """) + schedule + f"output = {tmp_path}/out\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["run", cfg]) == EXIT_NUMERICAL
        assert caught == []
        assert capsys.readouterr().err == f"numerical failure: learning-rate path Phi: {stage}\n"
        assert not (tmp_path / "out").exists()

    def test_polyak_momentum_is_generalized_momentum_at_dtilde_1(self, tmp_path, capsys):
        # The heavy ball is generalized_momentum at model.dtilde = 1, not a kind.
        scalar = KALMAN_CONFIG + "model.dtilde = 1\nmodel.A = [[0.1]]\nmodel.b = [1.0]\n"
        cfg = _write_config(tmp_path, scalar + f"output = {tmp_path}/out\n"
                            "optimizer.kind = polyak_momentum\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown optimizer kind 'polyak_momentum'" in err
        assert "Polyak momentum is generalized_momentum with model.dtilde = 1" in err
        assert not (tmp_path / "out").exists()
        cfg = _write_config(tmp_path, scalar + f"output = {tmp_path}/out\n"
                            "optimizer.kind = generalized_momentum\n")
        assert main(["run", cfg]) == EXIT_OK

    def test_mesh_too_large_to_allocate_is_config_error(self, tmp_path):
        # 1e13 unit steps need a 72.8 TiB mesh, past the child's 3 GiB cap.
        cfg = _write_config(tmp_path, "schedule.family = constant\nschedule.T = 1e15\n"
                            "mesh.steps = 10000000000000\nmodel.kind = martingale\n"
                            f"optimizer.mode = synthetic\noutput = {tmp_path}/out\n")
        done = _child_run(_CAPPED_RUN_SCRIPT, cfg, OPENBLAS_NUM_THREADS="1")
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert done.stderr.startswith("configuration error: mesh.steps = 10000000000000: "
                                      "the mesh does not fit in memory")
        assert "Traceback" not in done.stderr

    def test_other_memory_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr("varopt.harness.cli.run_experiment", exhausted)
        assert main(["run", _write_config(tmp_path, BASE_CONFIG)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "out of memory: an allocation failed\n"

    def test_empirical_martingale_model_takes_n_from_the_problem(self, tmp_path):
        files = {}
        for name, text in (("base", BASE_CONFIG),
                           ("no_n", BASE_CONFIG.replace("model.n = 50\n", ""))):
            art = run_experiment(build_experiment(parse_config_text(
                text + f"output = {tmp_path}/{name}\n")))
            files[name] = {os.path.basename(p): Path(p).read_bytes() for p in art.files}
        assert "model.n" not in BASE_CONFIG.replace("model.n = 50\n", "")
        assert files["no_n"] == files["base"]

    @pytest.mark.parametrize("base, override, key", [
        (KALMAN_CONFIG, "model.d = 0", "model.d = 0"),
        (KALMAN_CONFIG, "model.d = -1", "model.d = -1"),
        (KALMAN_CONFIG, "model.dtilde = 0", "model.dtilde = 0"),
        (BASE_CONFIG, "problem.d = 0", "problem.d = 0"),
    ], ids=["model.d=0", "model.d=-1", "model.dtilde=0", "problem.d=0"])
    def test_dimension_below_one_is_config_error(self, base, override, key, tmp_path, capsys):
        cfg = _write_config(tmp_path, base + f"output = {tmp_path}/out\n{override}\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert f"{key} must be >= 1" in capsys.readouterr().err

    # A = 0 passes the model's own check, but the filtered kinds need A
    # positive definite; an empty or repeated seed list has no run; a
    # matrix is refused unless its nested lists are model.dtilde x
    # model.dtilde, even where its entries would fill that shape.
    @pytest.mark.parametrize("override, key", [
        ("model.A = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]", "model.A"),
        ("model.A = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]\n"
         "optimizer.kind = generalized_momentum", "model.A"),
        ("seeds = []", "seeds = []"),
        ("seeds = [1, 1]", "seeds = [1, 1]"),
        ("model.A = [[0.1], [0.05], [0.05], [0.05], [0.1], [0.05], [0.05], [0.05], [0.1]]",
         "model.A"),
        ("model.A = [0.1, 0.05, 0.05, 0.05, 0.1, 0.05, 0.05, 0.05, 0.1]", "model.A"),
        ("model.L = [[1, 0, 0, 0, 1, 0, 0, 0, 1]]", "model.L"),
        ("model.dtilde = 1\nmodel.b = [1.0]\nmodel.A = 0.5", "model.A"),
    ], ids=["A=0-kalman_gd", "A=0-generalized_momentum", "seeds=[]", "seeds=[1,1]",
            "A-9x1", "A-flat", "L-1x9", "A-scalar-dtilde=1"])
    def test_unrunnable_value_is_config_error(self, override, key, tmp_path, capsys):
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\n{override}\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_entropy_map_with_minimizer_outside_the_orthant_is_config_error(
            self, tmp_path, capsys):
        # x* = (-0.201, 0.087, -0.069): the energy diagnostic cannot measure
        # the distance to it in the entropy geometry.
        cfg = _write_config(tmp_path, "problem.kind = quadratic\nproblem.d = 3\n"
                            "problem.N = 50\nproblem.seed = 50\nmap.name = entropy\n"
                            "schedule.family = linear\n"
                            'schedule.params = {"alpha0": 2.3, "beta0": -0.7, '
                            '"beta1": 0.5, "gamma1": 1.0}\n'
                            "schedule.delta_T = 1.3\nschedule.T = 2\nmesh.steps = 1\n"
                            "model.kind = martingale\nmodel.n = 50\nmodel.m = 1\n"
                            "optimizer.kind = mirror_sgd\noptimizer.mode = empirical\n"
                            f"seeds = [0]\noutput = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "map.name = entropy" in err and "problem.kind = quadratic" in err
        assert not (tmp_path / "out").exists()

    def test_b_length_is_checked_against_dtilde(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\n"
                            "model.dtilde = 1\nmodel.b = [1, 2]\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.b = [1.0, 2.0] does not have the length model.dtilde = 1" in err
        assert "A must be" not in err

    # problem.d sets the dimension and problem.N the step's batch share, so
    # a model that states the dimension, a model.n other than problem.N or a
    # batch model.m outside [1, problem.N] is refused naming its key,
    # whatever the model kind.
    @pytest.mark.parametrize("override, message", [
        ("model.d = 3", "model.d is not read by empirical mirror_sgd runs with martingale "
         "models, the quadratic map and quadratic problems"),
        ("model.n = 400", "model.n = 400 disagrees with problem.N = 50"),
        ("model.m = 0", "model.m = 0 is not a batch size in [1, problem.N = 50]"),
        ("model.kind = state_space\noptimizer.kind = kalman_gd\nmodel.m = 51",
         "model.m = 51 is not a batch size in [1, problem.N = 50]"),
    ], ids=["model.d", "model.n", "model.m-martingale", "model.m-kalman_gd"])
    def test_model_disagreeing_with_the_problem_is_config_error(self, override, message,
                                                                tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n{override}\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_problem_dimension_in_a_synthetic_run_is_config_error(self, tmp_path, capsys):
        # A synthetic run generates no problem: its dimension is model.d.
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\nproblem.d = 4\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert ("problem.d is not read by synthetic kalman_gd runs with state_space models, "
                "the quadratic map and no problems") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthetic_run_without_a_model_is_config_error(self, tmp_path, capsys):
        text = "".join(line + "\n" for line in BASE_CONFIG.splitlines()
                       if not line.startswith("model."))
        cfg = _write_config(tmp_path, text + f"optimizer.mode = synthetic\noutput = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "synthetic mirror_sgd requires a gradient model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_stream_mode_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n"
                            "optimizer.mode = streaming\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "unknown stream mode 'streaming'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mesh_within_the_horizon_slack_runs(self, tmp_path, capsys):
        # Steps of 1e-10 put t_101 1.5e-10 and the last step time t_100
        # 5e-11 past T: the mesh and Phi take the same slack past T.
        cfg = _write_config(tmp_path, "schedule.family = constant\n"
                            'schedule.params = {"alpha0": 23.025850929940457}\n'
                            "schedule.delta_T = 5.0\nschedule.T = 9.95e-9\nmesh.steps = 101\n"
                            "model.kind = martingale\nmodel.n = 10\nmodel.m = 2\n"
                            f"seeds = [0, 1]\noutput = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "trajectory_seed0.csv").read_text().splitlines()
        assert len(rows) == 1 + 102

    # sigma^2 overflows a float: the kalman_gd gain pass and the steady
    # gain of generalized_momentum both refuse the infinite innovation variance.
    @pytest.mark.parametrize("kind", ["kalman_gd", "generalized_momentum"])
    def test_sigma_overflow_fails_every_seed(self, kind, tmp_path, capsys):
        cfg = _write_config(tmp_path, KALMAN_CONFIG + f"output = {tmp_path}/out\n"
                            f"model.sigma = 1e308\noptimizer.kind = {kind}\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        for seed in (0, 1):
            assert (f"seed {seed} failed: FilterDivergenceError at step 0: innovation "
                    "variance is not positive and finite (inf)") in err

    def test_seed_failure_is_numerical_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n" + _HUGE_X0)
        assert main(["run", cfg]) == EXIT_NUMERICAL

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n"
                            "seeds = [0]\n")
        assert main(["sweep", cfg, "--grid", "model.m=10,50"]) == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("sweep.csv")

    def test_sweep_subcommand_over_an_array(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _ENTROPY_CONFIG + f"output = {tmp_path}/sw\n"
                            "seeds = [0]\n")
        assert main(["sweep", cfg, "--grid",
                     "optimizer.x0=[1,1,1],[2,2,2];optimizer.kind=mirror_sgd,"
                     "fosp_continuous"]) == EXIT_OK
        with open(capsys.readouterr().out.strip(), newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:4] for row in rows[1:]] == [
            ["mirror_sgd", "[1, 1, 1]", "1", "0"], ["mirror_sgd", "[2, 2, 2]", "1", "0"],
            ["fosp_continuous", "[1, 1, 1]", "1", "0"],
            ["fosp_continuous", "[2, 2, 2]", "1", "0"]]

    def test_sweep_with_one_cell_run_exits_0(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n"
                            "seeds = [0]\n")
        assert main(["sweep", cfg, "--grid", "mesh.steps=10,10000"]) == EXIT_OK
        with open(capsys.readouterr().out.strip(), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:3] == ["10", "1", "0"]
        assert rows[2][:3] == ["10000", "0", "all"]
        assert rows[2][3].startswith("error:ConfigError: mesh.steps = 10000: mesh reaches t = ")

    def test_sweep_with_every_cell_a_config_error_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n"
                            "seeds = [0]\n")
        assert main(["sweep", cfg, "--grid", "mesh.steps=10000,20000"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"every sweep cell failed ({tmp_path}/sw/sweep.csv)" in err
        assert "first: ConfigError: mesh.steps = 10000: mesh reaches t = " in err
        with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:3] for row in rows[1:]] == [["10000", "0", "all"], ["20000", "0", "all"]]
        assert all(row[3].startswith(f"error:ConfigError: mesh.steps = {row[0]}: ")
                   and "past the schedule horizon" in row[3] for row in rows[1:])

    @pytest.mark.parametrize("grid", ["schedule.delta_T=1.0,2.0", "mesh.steps=2,10000"],
                             ids=["numerical", "numerical_and_config"])
    def test_sweep_with_every_cell_failed_numerically_exits_3(self, grid, tmp_path, capsys):
        # gamma1 = 400 overflows the weight: every cell with a valid mesh
        # fails numerically.
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n"
                            'schedule.params = {"gamma1": 400.0}\n'
                            "schedule.delta_T = 1.0\nschedule.T = 2.0\nmesh.steps = 2\n")
        assert main(["sweep", cfg, "--grid", grid]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "every sweep cell failed" in err and "first: FloatingPointError: overflow" in err

    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", cfg, "--grid", "nonsense"]) == EXIT_CONFIG

    def test_grid_clause_without_values_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", cfg, "--grid", "model.m="]) == EXIT_CONFIG
        assert "has no values" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _ENTROPY_CONFIG + f"output = {tmp_path}/cmp\n"
                            "seeds = [0]\n")
        assert main(["compare", cfg, "--optimizers",
                     "mirror_sgd,fosp_continuous"]) == EXIT_OK
        assert "error:" not in (tmp_path / "cmp" / "compare.csv").read_text()

    def test_compare_refuses_a_kind_named_twice(self, tmp_path, capsys):
        # Both runs would write compare_mirror_sgd, the second over the first.
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/cmp\n")
        assert main(["compare", cfg, "--optimizers", "mirror_sgd,mirror_sgd"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: mirror_sgd is named twice, and both runs would write "
            "compare_mirror_sgd\n")
        assert not (tmp_path / "cmp").exists()

    def test_grid_key_in_two_clauses_is_config_error(self, tmp_path, capsys):
        # The second clause would replace the first, dropping model.m = 10.
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n")
        assert main(["sweep", cfg, "--grid", "model.m=10;model.m=50"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: grid key model.m is given in two clauses\n")
        assert not (tmp_path / "sw").exists()

    # On a quadratic map the Euler substeps of fosp_continuous add up to the
    # mirror_sgd step, so the builder refuses the kind there, naming
    # mirror_sgd, before any output is made and with no warning.
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_fosp_continuous_on_the_quadratic_map_is_refused(self, action, tmp_path, capsys):
        cfg = _write_config(tmp_path, _readme_example() + f"output = {tmp_path}/out\n"
                            "optimizer.kind = fosp_continuous\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["run", cfg]) == EXIT_CONFIG
        assert caught == []
        assert capsys.readouterr().err == (
            "configuration error: optimizer.kind = fosp_continuous is mirror_sgd on the "
            "quadratic map, where its Euler substeps add up to one mirror_sgd step: use "
            "mirror_sgd\n")
        assert not (tmp_path / "out").exists()

    def test_compare_records_fosp_continuous_on_the_quadratic_map(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/cmp\nseeds = [0]\n")
        assert main(["compare", cfg, "--optimizers", "mirror_sgd,fosp_continuous"]) == EXIT_OK
        with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:3] == ["mirror_sgd", "1", "0"]
        assert rows[2][:3] == ["fosp_continuous", "0", "all"]
        assert rows[2][3].startswith("error:ConfigError: optimizer.kind = fosp_continuous is "
                                     "mirror_sgd on the quadratic map")
        assert not (tmp_path / "cmp" / "compare_fosp_continuous").exists()

    def test_compare_records_a_failed_kind(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/cmp\n")
        assert main(["compare", cfg, "--optimizers", "mirror_sgd,kalman_gd"]) == EXIT_OK
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[1].startswith("mirror_sgd,3,0,")
        assert lines[2] == ("kalman_gd,0,all,error:ConfigError: invalid optimizer spec: "
                            "kalman_gd requires a StateSpaceGradientModel")
        assert (tmp_path / "cmp" / "compare_mirror_sgd" / "summary.txt").exists()
        assert not (tmp_path / "cmp" / "compare_kalman_gd").exists()

    def test_compare_with_every_kind_a_config_error_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/cmp\n")
        assert main(["compare", cfg, "--optimizers",
                     "kalman_gd,generalized_momentum"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"every compare cell failed ({tmp_path}/cmp/compare.csv)" in err
        assert "first: ConfigError: invalid optimizer spec: kalman_gd requires" in err
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["kalman_gd", "0", "all"], ["generalized_momentum", "0", "all"]]

    # Outside this suite's warning filters the log of the point outside the
    # orthant warns, and the domain check of the divergence raises.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in log:RuntimeWarning")
    def test_energy_point_outside_the_orthant_is_numerical_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _dotted_text(_ENTROPY_EDGE) + f"output = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        assert "mirror map 'entropy'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log:RuntimeWarning")
    def test_failed_diagnostic_keeps_the_trajectories(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _dotted_text(_ENTROPY_EDGE) + f"output = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL
        failure = "DomainError: point outside the domain of mirror map 'entropy'"
        assert f"diagnostics failed: {failure}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "out")) == _FILES_WITHOUT_DIAGNOSTICS
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert [line.endswith("[ok]") for line in lines if line.startswith("seed ")] == [True] * 2
        assert lines[-1].startswith(f"diagnostics failed: {failure}")

    # The overflowing loss gives inf when RuntimeWarnings are ignored, as under
    # the CLI's default filters, and raises when they are errors; either way
    # seed 1 fails at the step of its infinite gap and the run writes its files.
    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_infinite_loss_gap_fails_its_seed(self, action, tmp_path):
        cfg = _write_config(tmp_path, _dotted_text(_HUGE_ITERATE) + f"output = {tmp_path}/out\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["run", cfg]) == EXIT_NUMERICAL
        assert sorted(os.listdir(tmp_path / "out")) == _FILES_WITHOUT_DIAGNOSTICS
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        seed_1 = [line for line in lines if line.startswith("seed 1: ")]
        assert len(seed_1) == 1
        assert seed_1[0].endswith("[FloatingPointError at step 1: loss gap is not finite]")
        assert not any(line.startswith(("supermartingale_pass", "rate_bound_pass"))
                       for line in lines)

    # gamma1 = 3 and beta0 = 0.5 make BASE_CONFIG diverge until the spread
    # of the energy increments overflows np.std.  Under either warning
    # filter the run exits 0, its supermartingale check fails with an
    # infinite excess and no numpy warning fires.
    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("text", [
        BASE_CONFIG + 'schedule.params = {"alpha0": 2.302585092994046, "beta0": -0.7, '
                      '"gamma1": 3.0}\n',
        _BETA0_HALF,
    ], ids=["gamma1=3", "beta0=0.5"])
    def test_diverging_run_fails_the_supermartingale_check(self, text, action, tmp_path):
        lines = self._summary(tmp_path, text, action)
        assert "supermartingale_pass = False (max increase inf)" in lines

    # The mean gap stays below exp(-beta) (mean energy_0 + mean bracket) on
    # the README example and BASE_CONFIG; with beta0 = 0.5 it does not.
    @pytest.mark.parametrize("text, passed", [
        (_readme_example(), True),
        (BASE_CONFIG, True),
        (_BETA0_HALF, False),
    ], ids=["readme", "base", "beta0=0.5"])
    def test_rate_bound_verdict(self, text, passed, tmp_path):
        lines = self._summary(tmp_path, text, "error")
        assert [line.split(" (")[0] for line in lines if line.startswith("rate_bound_pass")] == [
            f"rate_bound_pass = {passed}"]

    # Gap 0 over B_t = 0 is a ratio of 0, not NaN, under either filter.
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_run_at_the_minimizer_passes_the_rate_bound(self, action, tmp_path):
        lines = self._summary(tmp_path, _at_minimizer_example(), action)
        assert "rate_bound_pass = True (max ratio 0)" in lines
        assert "mean_final_gap = 0" in lines

    def _summary(self, tmp_path, text, action):
        """The summary.txt lines of a run of the config text that exits 0
        under the warning filter action, the sign warning of Phi ignored,
        with no other warning."""
        cfg = _write_config(tmp_path, text + f"output = {tmp_path}/out\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            warnings.filterwarnings("ignore", "learning-rate path has the opposite sign")
            assert main(["run", cfg]) == EXIT_OK
        assert caught == []
        return (tmp_path / "out" / "summary.txt").read_text().splitlines()

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_runtime_imports_only_numpy(self):
        # Importing the package and its CLI adds no top-level module outside
        # the standard library, numpy and varopt; site hooks that start-up
        # loads are in the baseline.
        added = _child_stdout(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import varopt, varopt.harness.cli\n"
            "names = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(names - set(sys.stdlib_module_names) - {'numpy', 'varopt'}))\n")
        assert added == "[]\n"


@st.composite
def _configs(draw):
    """A config over the space of kinds, stream modes, maps, schedule
    families, horizons, delta_T, sigma and dimensions, with at most 10
    steps and 50 data points, as dotted key -> value."""
    d, mode = draw(st.integers(1, 3)), draw(st.sampled_from(["empirical", "synthetic"]))
    kind = draw(st.sampled_from(OPTIMIZER_KINDS))
    family = draw(st.sampled_from(["constant", "linear", "polynomial"]))
    if family == "polynomial":
        params = {"p": draw(st.floats(0.5, 3.0)), "c": draw(st.floats(0.05, 2.0)),
                  "t_min": draw(st.floats(0.01, 0.5))}
    else:
        params = {"alpha0": draw(st.floats(0.5, 5.0)), "beta0": draw(st.floats(-3.0, 2.0))}
        if family == "linear":
            params.update(beta1=draw(st.floats(-1.0, 2.0)), gamma1=draw(st.floats(0.0, 3.0)))
    cfg = {"map.name": draw(st.sampled_from(["quadratic", "entropy"])),
           "schedule.family": family, "schedule.params": params,
           "schedule.delta_T": draw(st.floats(-3.0, 15.0)),
           "schedule.T": draw(st.floats(0.5, 5.0)), "mesh.steps": draw(st.integers(1, 10)),
           "optimizer.kind": kind, "optimizer.mode": mode, "seeds": [0, 1]}
    n, sigma = draw(st.integers(2, 50)), draw(st.floats(0.0, 3.0))
    if mode == "empirical":
        cfg.update({"problem.kind": draw(st.sampled_from(["quadratic", "logistic"])),
                    "problem.d": d, "problem.N": n, "problem.seed": draw(st.integers(0, 99))})
    if kind not in _FILTERED_KINDS and draw(st.booleans()):
        cfg.update({"model.kind": "martingale", "model.sigma": sigma, "model.n": n,
                    "model.m": draw(st.integers(1, n))})
    else:
        cfg.update({"model.kind": "state_space", "model.sigma": sigma})
    if mode == "synthetic":
        cfg["model.d"] = d
    # An empirical unfiltered run does not read the state-space prior.
    if cfg["model.kind"] == "state_space" and (mode == "synthetic" or kind in _FILTERED_KINDS):
        dtilde = draw(st.integers(1, 3))
        diagonal = lambda lo, hi: np.diag(draw(st.lists(st.floats(lo, hi), min_size=dtilde,
                                                        max_size=dtilde))).tolist()
        cfg.update({"model.dtilde": dtilde, "model.A": diagonal(0.05, 2.0),
                    "model.L": diagonal(0.1, 5.0),
                    "model.b": draw(st.lists(st.floats(0.05, 1.0), min_size=dtilde,
                                             max_size=dtilde))})
    return cfg


# "ignore" stands for the CLI's default warning filters, under which a numpy
# overflow at most prints a warning and the run goes on with inf; "error"
# raises it where it happens.
@pytest.mark.parametrize("action", ["error", "ignore"])
@given(cfg=_configs())
@example(cfg=_ENTROPY_EDGE)
@example(cfg=_HUGE_ITERATE)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_config_exits_0_2_or_3(action, cfg):
    """run, sweep and compare end in exit 0, 2 or 3; the iterates of every
    trajectory are finite, a failed seed's prefix included, and so are its
    loss gaps unless it carries an error."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        text = _dotted_text(cfg)
        path = _write_config(Path(tmp), text + f"output = {tmp}/out\n")
        for argv in (["run", path], ["sweep", path, "--grid", f"mesh.steps=1,{cfg['mesh.steps']}"],
                     ["compare", path, "--optimizers", f"mirror_sgd,{cfg['optimizer.kind']}"]):
            assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), argv
        try:
            artifacts = run_experiment(build_experiment(parse_config_text(text)), write=False)
        except _NUMERICAL_FAILURES:
            return
    for traj in artifacts.trajectories:
        assert np.isfinite(traj.x_path).all()       # a failed seed keeps its prefix
        assert (traj.error is not None or cfg["optimizer.mode"] == "synthetic"
                or np.isfinite(traj.loss_gap).all())
