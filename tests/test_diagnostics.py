"""Variational quantities: Legendre identity, energy, action, checks."""

import math
import warnings

import numpy as np
import pytest

from varopt import (
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
    quadratic_map,
    rate_bound_check,
    run_ensemble,
    supermartingale_check,
)
from varopt.diagnostics import ensemble_report
from varopt.harness import component_rng, generate_problem

from shared_oracles import scaling_linear


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
        s = scaling_linear()
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(2)
            p = rng.standard_normal(2)
            t = rng.uniform(0.0, 5.0)
            f_val = rng.uniform(0.0, 1.0)
            floor = math.exp(s.gamma(t) + s.beta(t)) * f_val
            assert hamiltonian(mirror, f_val, s, t, x, p) >= floor - 1e-10


class TestEnergy:
    def _noiseless_trajectory(self, steps=15):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(steps=steps),
                             mode="empirical", batch_m=30)
        return problem, spec, run_ensemble(spec, problem, steps, [0])[0]

    def test_noiseless_energy_monotone(self):
        problem, spec, traj = self._noiseless_trajectory()
        e = energy_path(spec.mirror, spec.schedule, [traj], problem.x_star)[0][0]
        assert np.all(np.diff(e) <= 1e-9)

    def test_energy_nonnegative_without_bracket_at_start(self):
        problem, spec, traj = self._noiseless_trajectory()
        e = energy_path(spec.mirror, spec.schedule, [traj], problem.x_star)[0][0]
        assert e[0] >= 0.0


    def test_energy_path_is_the_stepwise_energy(self):
        # Reference: the public one-point energy with the bracket summed
        # step by step; a non-identity M makes <grad h(Y) increments, Y
        # increments> differ from the squared Y increments.
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        mirror = quadratic_map(m_diag=[1.0, 2.0, 3.0])
        s = scaling_linear(steps=15, beta0=-1.5)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=mirror, schedule=s,
                             mode="empirical", batch_m=5)
        traj = run_ensemble(spec, problem, 15, [3])[0]
        expected, bracket, prev = [], 0.0, None
        for t, x, nu, gap in zip(traj.times, traj.x_path, traj.nu_path, traj.loss_gap):
            y = x + math.exp(-s.alpha(t)) * nu
            if prev is not None:
                bracket += float(np.dot(mirror.grad_h(y) - mirror.grad_h(prev), y - prev))
            prev = y
            expected.append(energy(mirror, gap, s, t, x, nu, bracket, problem.x_star))
        assert bracket > 0.0
        # y above uses math.exp, which may round differently from np.exp.
        np.testing.assert_allclose(energy_path(mirror, s, [traj], problem.x_star)[0][0], expected,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("mirror", [
        quadratic_map(m_full=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]),
        entropy_map(),
    ], ids=["full-matrix", "entropy"])
    def test_stacked_energy_rows_are_the_single_paths(self, mirror):
        problem = generate_problem("quadratic", d=3, n=30,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=mirror,
                             schedule=scaling_linear(steps=15, beta0=-1.5),
                             mode="empirical", batch_m=5, x0=np.ones(3))
        trajs = run_ensemble(spec, problem, 15, range(4))
        assert all(t.error is None for t in trajs)
        x_ref = np.full(3, 0.5)          # x* of the problem is not in the orthant
        stacked, _ = energy_path(mirror, spec.schedule, trajs, x_ref)
        for row, traj in zip(stacked, trajs, strict=True):
            np.testing.assert_array_equal(
                row, energy_path(mirror, spec.schedule, [traj], x_ref)[0][0], strict=True)


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
        s = scaling_linear(steps=5)
        k = 5
        times = np.arange(k + 1, dtype=float)
        x_path = np.tile(problem.x_star, (k + 1, 1))
        traj = Trajectory(times=times, x_path=x_path,
                          nu_path=np.zeros((k, 2)),
                          loss_gap=np.zeros(k + 1))
        val = action_estimate(quadratic_map(), s, [traj], [0.0])
        assert abs(val) <= 1e-12

    def test_optimizer_path_beats_perturbed_path(self):
        # The noiseless optimizer trajectory approximately minimizes the
        # action; a mid-path bump must cost extra.
        problem = generate_problem("quadratic", d=2, n=20,
                                   rng=component_rng(2, "problem"))
        steps = 15
        s = scaling_linear(steps=steps)
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=s, mode="empirical", batch_m=20,
                             x0=np.array([2.0, -1.0]))
        traj = run_ensemble(spec, problem, steps, [0])[0]

        def with_path(x_path):
            dts = np.diff(traj.times)
            nu = np.diff(x_path, axis=0) / dts[:, None]
            gap = np.array([problem.loss(x) - problem.f_star for x in x_path])
            t = Trajectory(times=traj.times, x_path=x_path, nu_path=nu, loss_gap=gap)
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

    def test_increment_past_the_float_range_fails_silently(self):
        # The spread of the third increment overflows np.std: its SE is inf,
        # which would read as an excess of -inf; it counts as +inf instead,
        # under any warning filter.
        paths = np.array([[3.0, 2.0, 1.0, 1e300], [3.0, 2.0, 1.0, -1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = supermartingale_check(paths)
        assert not report.passed and report.max_increase == np.inf


class TestEnsembleReport:
    def test_one_path_has_a_standard_error_of_zero(self):
        energy_paths = np.array([[3.0, 2.0, 2.5, 1.0]])
        report = ensemble_report(np.arange(4.0), energy_paths,
                                 np.array([[1.0, 0.5, 0.7, 0.1]]), np.zeros((1, 4)))
        assert report.n_seeds == 1
        np.testing.assert_array_equal(report.se_energy, np.zeros(4), strict=True)
        np.testing.assert_array_equal(report.se_gap, np.zeros(4), strict=True)
        np.testing.assert_array_equal(report.mean_energy, energy_paths[0])


class TestRateBoundCheck:
    # B_t = exp(-beta_t) (energy_0 + bracket_t), with energy_0 = 2 and a
    # growing bracket.
    s = scaling_linear(steps=10, beta0=0.0)
    times = np.arange(10, dtype=float)
    bracket = np.linspace(0.0, 3.0, 10)
    bound = np.exp(-s.beta(times)) * (2.0 + bracket)

    def _check(self, gap):
        report = ensemble_report(self.times, np.full((1, 10), 2.0), gap[None, :],
                                 self.bracket[None, :])
        return rate_bound_check(report, self.s)

    def test_gap_matching_rate_passes(self):
        check = self._check(self.bound)
        assert check.passed
        np.testing.assert_array_equal(check.bound_value, self.bound)
        np.testing.assert_allclose(check.ratio, 1.0, rtol=1e-15)

    def test_gap_above_the_bound_fails(self):
        check = self._check(1.01 * self.bound)
        assert not check.passed
        assert check.max_ratio == pytest.approx(1.01)

    def test_oversized_gap_fails(self):
        assert not self._check(1e4 * np.ones(10)).passed

    # At the minimizer the gap, energy_0 and bracket are all 0, so B_t = 0
    # too: the ratio is 0, not 0/0, and the check passes without a warning.
    @pytest.mark.filterwarnings("error")
    def test_zero_gap_over_zero_bound_passes(self):
        zeros = np.zeros((1, 10))
        check = rate_bound_check(ensemble_report(self.times, zeros, zeros, zeros), self.s)
        np.testing.assert_array_equal(check.bound_value, 0.0)
        np.testing.assert_array_equal(check.ratio, 0.0)
        assert check.passed and check.max_ratio == 0.0


class TestTrajectoryValidation:
    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), x_path=np.zeros((2, 1)),
                       nu_path=np.zeros((2, 1)), loss_gap=np.zeros(3))
