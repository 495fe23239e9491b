"""Variational quantities: Legendre identity, energy, action, QV, checks."""

import math

import numpy as np
import pytest

from varopt import (
    MartingaleGradientModel,
    OptimizerSpec,
    Trajectory,
    action_estimate,
    energy,
    energy_path,
    entropy_map,
    hamiltonian,
    lagrangian,
    linear_schedule,
    nu_from_momentum,
    qv_accumulate,
    quadratic_map,
    rate_bound_check,
    run_ensemble,
    run_optimizer,
    supermartingale_check,
)
from varopt.diagnostics import _energy_paths, ensemble_report
from varopt.harness import component_rng, generate_problem


def _scaling_linear(steps=20, beta0=-0.7, dt=1.0):
    c = 1.0 / dt
    horizon_T = steps * dt
    return linear_schedule(alpha0=math.log(c), beta0=beta0, gamma1=c,
                           delta_T=beta0 + c * horizon_T, horizon_T=horizon_T)


class TestLegendreIdentity:
    @pytest.mark.parametrize("mirror", [quadratic_map(), entropy_map()],
                             ids=["quadratic", "entropy"])
    def test_h_plus_l_equals_p_dot_nu(self, mirror):
        # The Hamiltonian is the Legendre transform of the Lagrangian in
        # nu, so at the maximizing velocity H + L = <p, nu*>.
        rng = np.random.default_rng(77)
        s = linear_schedule(alpha0=0.1, beta0=-0.3, gamma1=0.6, delta_T=0.5,
                            horizon_T=2.0)
        for _ in range(500):
            x = rng.uniform(0.5, 3.0, 3) if mirror.name == "entropy" \
                else rng.standard_normal(3)
            p = rng.standard_normal(3) * 0.5
            t = rng.uniform(0.0, 2.0)
            f_val = rng.uniform(0.0, 2.0)
            nu_star = nu_from_momentum(mirror, x, p, s.alpha(t), s.gamma(t))
            h_val = hamiltonian(mirror, f_val, s, t, x, p)
            l_val = lagrangian(mirror, f_val, s, t, x, nu_star)
            assert abs(h_val + l_val - float(p @ nu_star)) <= 1e-8

    def test_hamiltonian_dominates_potential(self):
        # The dual divergence term is non-negative.
        mirror = quadratic_map()
        s = _scaling_linear()
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(2)
            p = rng.standard_normal(2)
            t = rng.uniform(0.0, 5.0)
            f_val = rng.uniform(0.0, 1.0)
            floor = math.exp(s.gamma(t) + s.beta(t)) * f_val
            assert hamiltonian(mirror, f_val, s, t, x, p) >= floor - 1e-10


class TestQuadraticVariation:
    def test_accumulate_is_running_inner_product(self):
        acc = 0.0
        rng = np.random.default_rng(1)
        total = 0.0
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            acc = qv_accumulate(acc, a, b)
            total += float(a @ b)
        assert acc == pytest.approx(total)

    def test_qv_matches_brownian_oracle(self):
        # For the martingale stream the accumulated QV has a closed-form
        # expectation: sum_k exp(2(alpha+beta_k)) (m/n) sigma^2 d dt_k.
        sigma, n, m, d = 0.8, 60, 15, 4
        steps = 20
        s = _scaling_linear(steps=steps, beta0=-0.5)
        model = MartingaleGradientModel(sigma=sigma, n=n, m=m, d=d)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=s, model=model, mode="synthetic")
        vals = [run_optimizer(spec, None, steps, seed=sd).qv_path[-1]
                for sd in range(150)]
        dt = 1.0
        expected = sum(
            math.exp(2.0 * (s.alpha(t) + s.beta(t))) * (m / n) * sigma ** 2 * d * dt
            for t in np.arange(0, steps - 1, dt, dtype=float)
        )
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - expected) <= 4.0 * se


class TestEnergy:
    def _noiseless_trajectory(self, steps=15):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=_scaling_linear(steps=steps),
                             mode="empirical", batch_m=30)
        return problem, spec, run_optimizer(spec, problem, steps, seed=0)

    def test_noiseless_energy_monotone(self):
        problem, spec, traj = self._noiseless_trajectory()
        e = energy_path(spec.mirror, spec.schedule, traj, problem.x_star)
        assert np.all(np.diff(e) <= 1e-9)

    def test_energy_nonnegative_without_bracket_at_start(self):
        problem, spec, traj = self._noiseless_trajectory()
        e = energy_path(spec.mirror, spec.schedule, traj, problem.x_star)
        assert e[0] >= 0.0


    def test_energy_path_is_the_stepwise_energy(self):
        # Reference: the public one-point energy with the bracket summed
        # step by step; a non-identity M makes the bracket differ from QV.
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        mirror = quadratic_map(m_diag=[1.0, 2.0, 3.0])
        s = _scaling_linear(steps=15, beta0=-1.5)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=mirror, schedule=s,
                             mode="empirical", batch_m=5)
        traj = run_optimizer(spec, problem, 15, seed=3)
        expected, bracket, prev = [], 0.0, None
        for t, x, nu, gap in zip(traj.times, traj.x_path, traj.nu_path, traj.loss_gap):
            y = x + math.exp(-s.alpha(t)) * nu
            if prev is not None:
                bracket = qv_accumulate(bracket, mirror.grad_h(y) - mirror.grad_h(prev),
                                        y - prev)
            prev = y
            expected.append(energy(mirror, gap, s, t, x, nu, bracket, problem.x_star))
        assert bracket > 0.0
        # y above uses math.exp, which may round differently from np.exp.
        np.testing.assert_allclose(energy_path(mirror, s, traj, problem.x_star), expected,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("mirror", [
        quadratic_map(m_full=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]),
        entropy_map(),
    ], ids=["full-matrix", "entropy"])
    def test_stacked_energy_rows_are_the_single_paths(self, mirror):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=mirror,
                             schedule=_scaling_linear(steps=15, beta0=-1.5),
                             mode="empirical", batch_m=5, x0=np.ones(3))
        trajs = run_ensemble(spec, problem, 15, range(4))
        assert all(t.error is None for t in trajs)
        x_ref = np.full(3, 0.5)          # x* of the problem is not in the orthant
        stacked = _energy_paths(mirror, spec.schedule, trajs[0].times,
                                np.stack([t.x_path for t in trajs]),
                                np.stack([t.nu_path for t in trajs]),
                                np.stack([t.loss_gap for t in trajs]), x_ref)
        for row, traj in zip(stacked, trajs, strict=True):
            np.testing.assert_array_equal(
                row, energy_path(mirror, spec.schedule, traj, x_ref), strict=True)


class TestArrayTimes:
    @pytest.mark.parametrize("mirror", [quadratic_map(), quadratic_map(m_diag=[1.0, 2.0, 3.0]),
                                        entropy_map()], ids=["identity", "diagonal", "entropy"])
    def test_arrays_are_the_float_time_values(self, mirror):
        rng = np.random.default_rng(19)
        s = linear_schedule(alpha0=0.1, beta0=-0.3, gamma1=0.6, delta_T=0.5, horizon_T=2.0)
        k = 9
        ts, fs, brackets = rng.uniform(0.0, 2.0, (3, k))
        xs, x_star = rng.uniform(0.5, 3.0, (k, 3)), rng.uniform(0.5, 3.0, 3)
        nus, ps = 0.1 * rng.standard_normal((2, k, 3))
        t = lambda i: ts[i] if isinstance(i, slice) else float(ts[i])
        cases = [
            (lagrangian, lambda i: (mirror, fs[i], s, t(i), xs[i], nus[i])),
            (hamiltonian, lambda i: (mirror, fs[i], s, t(i), xs[i], ps[i])),
            (energy, lambda i: (mirror, fs[i], s, t(i), xs[i], nus[i], brackets[i], x_star)),
        ]
        for fn, args in cases:
            one = [fn(*args(i)) for i in range(k)]
            assert all(isinstance(v, float) for v in one)
            stacked = fn(*args(slice(None)))
            assert stacked.shape == (k,)
            np.testing.assert_array_equal(stacked, one)


class TestAction:
    def test_minimizer_rest_trajectory_has_zero_action(self):
        problem = generate_problem("quadratic", d=2, n=20,
                                   rng=component_rng(1, "problem"))
        s = _scaling_linear(steps=5)
        k = 5
        times = np.arange(k + 1, dtype=float)
        x_path = np.tile(problem.x_star, (k + 1, 1))
        traj = Trajectory(times=times, x_path=x_path,
                          nu_path=np.zeros((k, 2)),
                          loss_gap=np.zeros(k + 1), qv_path=np.zeros(k + 1))
        val = action_estimate(quadratic_map(), s, [traj], [0.0])
        assert abs(val) <= 1e-12

    def test_optimizer_path_beats_perturbed_path(self):
        # The noiseless optimizer trajectory approximately minimizes the
        # action; a mid-path bump must cost extra.
        problem = generate_problem("quadratic", d=2, n=20,
                                   rng=component_rng(2, "problem"))
        steps = 15
        s = _scaling_linear(steps=steps)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=s, mode="empirical", batch_m=20,
                             x0=np.array([2.0, -1.0]))
        traj = run_optimizer(spec, problem, steps, seed=0)

        def with_path(x_path):
            dts = np.diff(traj.times)
            nu = np.diff(x_path, axis=0) / dts[:, None]
            gap = np.array([problem.loss(x) - problem.f_star for x in x_path])
            t = Trajectory(times=traj.times, x_path=x_path, nu_path=nu,
                           loss_gap=gap, qv_path=np.zeros(len(x_path)))
            return action_estimate(spec.mirror, s, [t], [gap[-1]])

        base = with_path(traj.x_path)
        bumped = traj.x_path.copy()
        bumped[steps // 2] += np.array([0.4, -0.4])
        assert with_path(bumped) > base


class TestSupermartingaleCheck:
    def test_single_monotone_passes(self):
        path = np.linspace(5.0, 1.0, 30)[None, :]
        assert supermartingale_check(path).passed

    def test_single_increase_fails(self):
        path = np.array([[1.0, 0.5, 0.6, 0.4]])
        report = supermartingale_check(path)
        assert not report.passed
        assert report.max_increase == pytest.approx(0.1)

    def test_ensemble_noise_within_two_se_passes(self):
        rng = np.random.default_rng(3)
        base = np.linspace(4.0, 1.0, 25)
        paths = base[None, :] + 0.05 * rng.standard_normal((100, 25))
        assert supermartingale_check(paths).passed

    def test_ensemble_systematic_increase_fails(self):
        rng = np.random.default_rng(4)
        base = np.linspace(1.0, 4.0, 25)
        paths = base[None, :] + 0.01 * rng.standard_normal((100, 25))
        assert not supermartingale_check(paths).passed


class TestRateBoundCheck:
    def _report(self, times, gap):
        zeros = np.zeros((1, len(times)))
        return ensemble_report(times, zeros, gap[None, :], zeros)

    def test_gap_matching_rate_passes(self):
        s = _scaling_linear(steps=10, beta0=0.0)
        times = np.arange(10, dtype=float)
        beta = np.array([s.beta(t) for t in times])
        report = self._report(times, np.exp(-beta))
        check = rate_bound_check(report, s, bound_constant=10.0)
        assert check.passed
        np.testing.assert_allclose(check.ratio, 1.0, atol=1e-12)

    def test_oversized_gap_fails(self):
        s = _scaling_linear(steps=10, beta0=0.0)
        times = np.arange(10, dtype=float)
        report = self._report(times, 1e4 * np.ones(10))
        assert not rate_bound_check(report, s, bound_constant=10.0).passed


class TestTrajectoryValidation:
    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), x_path=np.zeros((2, 1)),
                       nu_path=np.zeros((2, 1)), loss_gap=np.zeros(3),
                       qv_path=np.zeros(3))

    def test_decreasing_qv_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), x_path=np.zeros((3, 1)),
                       nu_path=np.zeros((2, 1)), loss_gap=np.zeros(3),
                       qv_path=np.array([0.0, 1.0, 0.5]))
