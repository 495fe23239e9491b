"""Problems, configs, the experiment runner and the CLI."""

import math
import os
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from varopt import OptimizerSpec, linear_schedule, quadratic_map, run_optimizer
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
from varopt.harness.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from varopt.harness.runner import compare

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


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _scaling_linear(steps=20):
    """Linear schedule whose mesh has `steps` unit steps and whose
    learning-rate path is the constant exp(-0.7)."""
    return linear_schedule(beta0=-0.7, gamma1=1.0, delta_T=-0.7 + steps,
                           horizon_T=float(steps))


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
        "optimizer.fosp_substeps = 0",
        "optimizer.fosp_substeps = -3",
        # Keys that build_experiment does not read, and the spellings of
        # settings whose key is elsewhere.
        "schedule.delta_t = 19.3",
        "problem.n = 50",
        "optimiser.kind = mirror_sgd",
        "output.dir = out",
        "optimizer.steps = 20",
        "schedule.params.delta_T = 19.3",
        "schedule.params.horizon_T = 2.0",
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
    ])
    def test_unknown_key_is_named(self, override, key):
        raw = parse_config_text(BASE_CONFIG + override + "\n")
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            build_experiment(raw)

    def test_mesh_past_horizon_rejected(self):
        raw = parse_config_text(BASE_CONFIG + "mesh.steps = 200\n")
        with pytest.raises(ConfigError):
            build_experiment(raw)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("VAROPT_SEED", "17")
        exp = build_experiment(parse_config_text(BASE_CONFIG))
        assert exp.seeds == [17]
        monkeypatch.setenv("VAROPT_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            build_experiment(parse_config_text(BASE_CONFIG))


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
            problem.minibatch_gradient(x, 40, rng), problem.full_gradient(x))

    def test_minibatch_unbiased(self):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(2, "problem"))
        rng = component_rng(2, "batch")
        points = component_rng(3, "problem").standard_normal((5, 3))
        for x in points:
            draws = np.stack([problem.minibatch_gradient(x, 6, rng)
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
        draws = np.stack([problem.minibatch_gradient(x, m, rng)
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
            got = problem.minibatch_gradient(x, m, component_rng(m, "batch"))
            idx = component_rng(m, "batch").choice(n, size=m, replace=False)
            np.testing.assert_array_equal(got, full[idx].mean(axis=0))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_stacked_loss_matches_pointwise(self, kind):
        # n = 7000 makes logistic loss blocks of 9 rows, so 11 rows span
        # two blocks and end in a partial one.
        problem = generate_problem(kind, d=4, n=7000, rng=component_rng(8, "problem"))
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
                             schedule=_scaling_linear(), mode="empirical",
                             batch_m=10, x0=problem.x_star + 1e-7)
        traj = run_optimizer(spec, problem, 0, seed=0)
        assert traj.steps == 0
        assert traj.loss_gap.shape == (1,)
        assert traj.loss_gap[0] == pytest.approx(0.5 * d * 1e-14, rel=1e-12, abs=0)

    def test_failed_run_keeps_one_gap_per_iterate(self):
        problem = generate_problem("logistic", d=3, n=80, rng=component_rng(11, "problem"))
        draw = problem.minibatch_gradient
        steps = iter(range(20))

        def fails_at_step_4(x, m, rng):
            if next(steps) == 4:
                raise FloatingPointError("overflow")
            return draw(x, m, rng)

        problem.minibatch_gradient = fails_at_step_4
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=_scaling_linear(), mode="empirical", batch_m=8)
        traj = run_optimizer(spec, problem, 20, seed=0)
        assert traj.error.startswith("FloatingPointError at step 4:")
        assert traj.steps == 4
        np.testing.assert_array_equal(traj.loss_gap, problem.loss_gap(traj.x_path))
        assert np.all(np.isfinite(traj.loss_gap))

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
            batch = problem.minibatch_gradient(x, 10, component_rng(12, "batch"))
            loss = problem.loss(x)
        assert np.all(np.isfinite(grads)) and np.all(np.isfinite(batch))
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)

    def test_invalid_requests(self):
        problem = generate_problem("quadratic", d=2, n=10,
                                   rng=component_rng(0, "problem"))
        with pytest.raises(ValueError):
            problem.minibatch_gradient(np.zeros(2), 0, component_rng(0, "batch"))
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

    def test_per_seed_failure_recorded(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/out\n"
                                "optimizer.batch_m = 500\n")
        art = run_experiment(build_experiment(raw))
        assert set(art.errors) == {0, 1, 2}
        assert art.report is None


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

    def test_sweep_refuses_unknown_grid_key(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/sw\n"
                                "seeds = [0]\n")
        with pytest.raises(ConfigError, match="'model.sigma2'"):
            sweep(raw, {"model.sigma2": [0.1, 1.0]})
        assert not (tmp_path / "sw").exists()

    def test_compare_runs_kinds(self, tmp_path):
        raw = parse_config_text(BASE_CONFIG + f"output = {tmp_path}/cmp\n"
                                "seeds = [0]\n")
        path = compare(raw, ["mirror_sgd", "fosp_continuous"])
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "optimizer,n_seeds,n_failed,mean_final_gap"
        assert len(lines) == 3
        assert lines[1].startswith("mirror_sgd,")


def _readme_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


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
        monkeypatch.delenv("VAROPT_SEED", raising=False)
        assert main(["run", _write_config(tmp_path, example())]) == EXIT_OK
        assert (tmp_path / "out" / "summary.txt").exists()

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

    def test_seed_failure_is_numerical_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/out\n"
                            "optimizer.batch_m = 500\n")
        assert main(["run", cfg]) == EXIT_NUMERICAL

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/sw\n"
                            "seeds = [0]\n")
        assert main(["sweep", cfg, "--grid", "model.m=10,50"]) == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("sweep.csv")

    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", cfg, "--grid", "nonsense"]) == EXIT_CONFIG

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/cmp\n"
                            "seeds = [0]\n")
        assert main(["compare", cfg, "--optimizers",
                     "mirror_sgd,fosp_continuous"]) == EXIT_OK

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
