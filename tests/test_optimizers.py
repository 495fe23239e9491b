"""Update rules and the seeded run driver."""

import dataclasses
import math

import numpy as np
import pytest

from varopt import (
    DomainError,
    FilterDivergenceError,
    MartingaleGradientModel,
    MirrorMap,
    OptimizerSpec,
    StateSpaceGradientModel,
    build_mesh,
    constant_schedule,
    entropy_map,
    fosp_flow_step,
    generalized_momentum_step,
    kalman_discrete_step,
    kalman_steady_gain,
    linear_schedule,
    mirror_descent_step,
    momentum_from_nu,
    nu_from_momentum,
    quadratic_map,
    run_ensemble,
)
from varopt import gradient_models, optimizers
from varopt.diagnostics import Trajectory
from varopt.gradient_models import initial_kalman_state
from varopt.harness import component_rng, generate_problem
from varopt.schedules import phi_scalar_path, phi_vector_path

from shared_oracles import scaling_linear


class TestMirrorStep:
    def test_identity_map_is_plain_sgd(self):
        mirror = quadratic_map()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.standard_normal(4)
            g = rng.standard_normal(4)
            phi = rng.uniform(-1.0, 2.0)
            step = mirror_descent_step(mirror, x, g, phi)
            assert np.max(np.abs(step - (x - phi * g))) <= 1e-12

    def test_diagonal_map_preconditions(self):
        d = np.array([2.0, 4.0])
        mirror = quadratic_map(m_diag=d)
        x = np.array([1.0, 1.0])
        g = np.array([1.0, 1.0])
        np.testing.assert_allclose(mirror_descent_step(mirror, x, g, 1.0),
                                   x - g / d, atol=1e-14)

    def test_entropy_map_multiplicative(self):
        mirror = entropy_map()
        x = np.array([0.5, 2.0])
        g = np.array([0.1, -0.2])
        got = mirror_descent_step(mirror, x, g, 0.7)
        np.testing.assert_allclose(got, x * np.exp(-0.7 * g), atol=1e-12)


class TestKalmanStep:
    def test_contracts_filter_state_with_phi(self):
        mirror = quadratic_map()
        y_hat = np.array([[1.0, 2.0], [3.0, 4.0]])
        phi = np.array([0.5, -0.25])
        x = np.zeros(2)
        got = mirror_descent_step(mirror, x, y_hat @ phi, 1.0)
        np.testing.assert_allclose(got, -(y_hat @ phi), atol=1e-14)


class TestMomentumStep:
    def test_polyak_recovery(self):
        # dtilde = 1, b = 1: the update is the classical two-coefficient
        # momentum recursion y' = p1 y + p2 g, x' = x - phi y'.
        mirror = quadratic_map()
        rng = np.random.default_rng(8)
        a_til = np.array([[0.9]])
        k_inf = np.array([0.4])
        p1 = 0.9 * (1.0 - 0.4)
        p2 = 0.4
        x = rng.standard_normal(3)
        y = np.zeros((3, 1))
        x_ref = x.copy()
        y_ref = np.zeros(3)
        for _ in range(1000):
            g = rng.standard_normal(3)
            phi = np.array([rng.uniform(0.0, 0.5)])
            x, y = generalized_momentum_step(mirror, x, y, g, a_til, k_inf, phi, np.ones(1))
            y_ref = p1 * y_ref + p2 * g
            x_ref = x_ref - phi[0] * y_ref
            assert np.max(np.abs(y[:, 0] - y_ref)) <= 1e-12
            assert np.max(np.abs(x - x_ref)) <= 1e-12

    def test_explicit_b_vector(self):
        mirror = quadratic_map()
        a_til = np.array([[0.5, 0.1], [0.0, 0.7]])
        k_inf = np.array([0.3, 0.2])
        b = np.array([1.0, -1.0])
        y = np.array([[1.0, 2.0]])
        g = np.array([0.5])
        phi = np.array([0.1, 0.1])
        _, y_new = generalized_momentum_step(mirror, np.zeros(1), y, g, a_til,
                                             k_inf, phi, b_vec=b)
        p1 = a_til - np.outer(k_inf, b) @ a_til
        np.testing.assert_allclose(y_new, y @ p1.T + np.outer(g, k_inf),
                                    atol=1e-14)


class TestFlowStep:
    def test_identity_map_euler(self):
        mirror = quadratic_map()
        x = np.array([1.0, -2.0])
        eff = np.array([0.5, 0.5])
        got = fosp_flow_step(mirror, x, eff, alpha_t=math.log(2.0), dt=0.1)
        np.testing.assert_allclose(got, x - 0.1 * 2.0 * eff, atol=1e-14)

    def test_entropy_flow_exact_solution(self):
        # With a frozen effective term e the entropy flow is
        # dX = X (exp(-e) - 1) dt, solved by X0 exp((exp(-e) - 1) t).
        mirror = entropy_map()
        x0 = np.array([1.0, 2.0])
        eff = np.array([0.2, -0.3])
        cur = x0
        n, dt = 20_000, 1e-4
        for _ in range(n):
            cur = fosp_flow_step(mirror, cur, eff, 0.0, dt)
        expected = x0 * np.exp((np.exp(-eff) - 1.0) * n * dt)
        np.testing.assert_allclose(cur, expected, rtol=1e-3)

    @pytest.mark.parametrize("mirror", [quadratic_map(), quadratic_map(m_diag=[0.5, 2.0, 4.0]),
                                        quadratic_map(m_full=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.3],
                                                              [0.0, 0.3, 3.0]]),
                                        entropy_map()],
                             ids=["identity", "diagonal", "full", "entropy"])
    def test_unit_step_is_the_mirror_descent_step(self, mirror):
        # With exp(alpha) dt = 1 the flow step X + (X' - X) is X' to rounding.
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.uniform(0.1, 3.0, 3)
            eff = rng.normal(size=3)
            alpha = rng.uniform(-3.0, 3.0)
            got = fosp_flow_step(mirror, x, eff, alpha, math.exp(-alpha))
            want = mirror_descent_step(mirror, x, eff, 1.0)
            scale = np.maximum(np.abs(x), np.abs(want))
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


class TestMomentumCoordinates:
    @pytest.mark.parametrize("mirror", [quadratic_map(), entropy_map()],
                             ids=["quadratic", "entropy"])
    def test_round_trip(self, mirror):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(0.5, 3.0, 3) if mirror.name == "entropy" \
                else rng.standard_normal(3)
            p = rng.standard_normal(3) * 0.5
            alpha_t = rng.uniform(-1.0, 1.0)
            gamma_t = rng.uniform(-1.0, 1.0)
            nu = nu_from_momentum(mirror, x, p, alpha_t, gamma_t)
            back = momentum_from_nu(mirror, x, nu, alpha_t, gamma_t)
            assert np.max(np.abs(back - p)) <= 1e-8 * (1.0 + np.max(np.abs(p)))


class TestRunOptimizer:
    def _martingale_spec(self, **kw):
        model = MartingaleGradientModel(sigma=0.5, n=100, m=25, d=3)
        defaults = dict(kind="mirror_sgd", mirror=quadratic_map(),
                        schedule=scaling_linear(), model=model,
                        mode="synthetic")
        defaults.update(kw)
        return OptimizerSpec(**defaults)

    def test_synthetic_run_deterministic(self):
        spec = self._martingale_spec()
        t1 = run_ensemble(spec, None, 20, [5])[0]
        t2 = run_ensemble(spec, None, 20, [5])[0]
        np.testing.assert_array_equal(t1.x_path, t2.x_path)
        np.testing.assert_array_equal(t1.g_path, t2.g_path)
        assert t1.error is None

    def test_different_seeds_differ(self):
        spec = self._martingale_spec()
        t1 = run_ensemble(spec, None, 20, [1])[0]
        t2 = run_ensemble(spec, None, 20, [2])[0]
        assert np.max(np.abs(t1.x_path - t2.x_path)) > 0

    def test_synthetic_loss_gap_is_nan(self):
        traj = run_ensemble(self._martingale_spec(), None, 10, [0])[0]
        assert np.all(np.isnan(traj.loss_gap))

    def test_zero_steps(self):
        traj = run_ensemble(self._martingale_spec(), None, 0, [0])[0]
        assert traj.steps == 0
        assert traj.x_path.shape == (1, 3)

    def test_negative_steps_refused(self):
        spec = self._martingale_spec()
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_ensemble(spec, None, -1, [0, 1])
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_ensemble(spec, None, -1, [0])

    def test_wrong_length_x0_refused_before_any_step(self):
        spec = self._martingale_spec(x0=np.ones(2))     # the model has d = 3
        with pytest.raises(ValueError, match=r"x0 has shape \(2,\).*d = 3"):
            run_ensemble(spec, None, 20, [0])

    def test_kernel_matches_generic_loop(self):
        # A diagonal quadratic map and the full-matrix map with the same
        # diagonal define the same update and must agree.
        diag = np.array([1.0, 2.0, 0.5])
        spec_fast = self._martingale_spec(mirror=quadratic_map(m_diag=diag))
        spec_slow = self._martingale_spec(mirror=quadratic_map(m_full=np.diag(diag)))
        t_fast = run_ensemble(spec_fast, None, 20, [9])[0]
        t_slow = run_ensemble(spec_slow, None, 20, [9])[0]
        np.testing.assert_allclose(t_fast.x_path, t_slow.x_path, atol=1e-12)

    def test_empirical_quadratic_matches_manual_recursion(self):
        problem = generate_problem("quadratic", d=2, n=40,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical",
                             batch_m=10)
        traj = run_ensemble(spec, problem, 20, [3])[0]
        assert traj.error is None
        coeff = 10 / 40
        x = np.zeros(2)
        for k in range(20):
            x = x - float(traj.phi_path[k]) * coeff * traj.g_path[k]
            np.testing.assert_allclose(traj.x_path[k + 1], x, atol=1e-12)

    def test_empirical_step_is_scaled_by_the_batch_share_of_the_data(self):
        # A martingale model of its own n and m does not set the step of an
        # empirical run: batches of 10 rows of 40 scale it by 1/4, not 20/400.
        problem = generate_problem("quadratic", d=3, n=40,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical", batch_m=10,
                             model=MartingaleGradientModel(sigma=0.5, n=400, m=20, d=3))
        traj = run_ensemble(spec, problem, 20, [3])[0]
        assert traj.error is None
        np.testing.assert_allclose(np.diff(traj.x_path, axis=0),
                                   -0.25 * traj.phi_path[:, None] * traj.g_path,
                                   rtol=1e-12, atol=1e-15)

    def test_kalman_gd_synthetic_runs(self):
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                        l_mat=np.array([[1.0]]),
                                        b_vec=np.array([1.0]), sigma=0.5, d=2)
        spec = OptimizerSpec(kind="kalman_gd", mirror=quadratic_map(),
                             schedule=scaling_linear(beta0=-1.0), model=model,
                             mode="synthetic")
        traj = run_ensemble(spec, None, 20, [7])[0]
        assert traj.error is None
        assert np.all(np.isfinite(traj.x_path))
        assert traj.filter_mean_norm is not None

    def test_failed_run_records_error(self):
        problem = generate_problem("quadratic", d=2, n=10,
                                   rng=component_rng(0, "problem"))
        spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                             schedule=scaling_linear(), mode="empirical",
                             batch_m=50)   # bigger than the dataset
        traj = run_ensemble(spec, problem, 10, [0])[0]
        assert traj.error is not None
        assert traj.steps == 0

    def test_validation_errors(self):
        model = StateSpaceGradientModel(a_mat=np.eye(2), l_mat=np.eye(2),
                                        b_vec=np.array([1.0, 1.0]), sigma=1.0)
        with pytest.raises(ValueError):
            OptimizerSpec(kind="nope", mirror=quadratic_map(),
                          schedule=scaling_linear()).validate()
        with pytest.raises(ValueError):
            OptimizerSpec(kind="polyak_momentum", mirror=quadratic_map(),
                          schedule=scaling_linear(), model=model,
                          mode="synthetic").validate()
        varying_alpha = linear_schedule(alpha0=0.0, alpha1=0.5, gamma1=1.0,
                                        horizon_T=2.0)
        with pytest.raises(ValueError):
            OptimizerSpec(kind="generalized_momentum", mirror=quadratic_map(),
                          schedule=varying_alpha, model=model,
                          mode="synthetic").validate()
        with pytest.raises(ValueError):
            OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                          schedule=scaling_linear(), mode="empirical",
                          batch_m=None).validate()

    # An unknown kind is named beside the kinds there are; only
    # polyak_momentum gets the heavy-ball hint instead.
    @pytest.mark.parametrize("kind, hint", [
        ("adam", "the kinds are mirror_sgd, kalman_gd, generalized_momentum"),
        ("polyak_momentum", "Polyak momentum is generalized_momentum with model.dtilde = 1"),
    ], ids=["adam", "polyak_momentum"])
    def test_unknown_kind_message(self, kind, hint):
        spec = OptimizerSpec(kind=kind, mirror=quadratic_map(), schedule=scaling_linear())
        with pytest.raises(ValueError) as err:
            spec.validate()
        assert str(err.value) == f"unknown optimizer kind {kind!r}; {hint}"

    def test_degenerate_kalman_filter_is_an_error(self):
        # L = 0 and sigma = 0 make the innovation variance zero on the
        # first step; the run must stop with the filter's error instead
        # of returning a NaN trajectory.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                        l_mat=np.array([[0.0]]),
                                        b_vec=np.array([1.0]), sigma=0.0, d=2)
        spec = OptimizerSpec(kind="kalman_gd", mirror=quadratic_map(),
                             schedule=scaling_linear(steps=2, beta0=-1.0),
                             model=model, mode="synthetic")
        traj = run_ensemble(spec, None, 2, [7])[0]
        assert traj.error is not None
        assert traj.error.startswith(FilterDivergenceError.__name__)
        assert np.all(np.isfinite(traj.x_path))


def _hand_kalman_gd(spec, steps, seed):
    """kalman_gd as a loop of the public filter and update steps, each
    step filtered with its own mesh step dt."""
    model, schedule = spec.model, spec.schedule
    times = build_mesh(schedule, steps).times[: steps + 1]
    phi = phi_vector_path(schedule, model.a_mat, model.b_vec, times[:-1])
    dts = np.diff(times)
    _, (g_stream,) = model.simulate(dts, [component_rng(seed, "stream")])
    state = initial_kalman_state(model.d, model.dtilde,
                                 model.stationary_covariance())
    x = spec.default_x0(model.d)
    path = [x]
    for k, (dt, g) in enumerate(zip(dts, g_stream)):
        state = kalman_discrete_step(state, g, np.eye(model.dtilde) - dt * model.a_mat,
                                     dt * model.l_mat, model.b_vec, model.sigma * dt)
        x = mirror_descent_step(spec.mirror, x, state.y_hat @ phi[k], 1.0)
        path.append(x)
    return np.array(path)


def _hand_mirror_sgd(spec, steps, seed, stop=None):
    """Synthetic mirror_sgd as a loop of the public update step on the
    martingale-filtered stream, over the first `stop` of `steps` steps."""
    model, schedule = spec.model, spec.schedule
    times = build_mesh(schedule, steps).times[: steps + 1]
    phi = phi_scalar_path(schedule, times[:-1])
    _, (g_stream,) = model.simulate(np.diff(times), [component_rng(seed, "stream")])
    x = spec.default_x0(model.d)
    path = [x]
    for k, g in enumerate(g_stream[:stop]):
        x = mirror_descent_step(spec.mirror, x, model.filter_coefficient * g,
                                float(phi[k]))
        path.append(x)
    return np.array(path)


def _hand_momentum(spec, steps, seed):
    """generalized_momentum as a loop of the public update step with the
    steady gain of the first mesh step (the schedule has constant alpha)."""
    model, schedule = spec.model, spec.schedule
    times = build_mesh(schedule, steps).times[: steps + 1]
    phi = phi_vector_path(schedule, model.a_mat, model.b_vec, times[:-1])
    dts = np.diff(times)
    _, (g_stream,) = model.simulate(dts, [component_rng(seed, "stream")])
    eye = np.eye(model.dtilde)
    k_inf = kalman_steady_gain(eye - dts[0] * model.a_mat, dts[0] * model.l_mat,
                               model.b_vec, model.sigma * dts[0])
    x, y = spec.default_x0(model.d), np.zeros((model.d, model.dtilde))
    path = [x]
    for k, (dt, g) in enumerate(zip(dts, g_stream)):
        x, y = generalized_momentum_step(spec.mirror, x, y, g, eye - dt * model.a_mat,
                                         k_inf, phi[k], model.b_vec)
        path.append(x)
    return np.array(path)


def _varying_mesh_kalman_spec():
    # alpha1 = 1e-7 makes consecutive mesh steps differ by about 1e-6
    # relative: close enough to constant to pass np.allclose, far enough
    # that filtering every step with the first step's dt is visible.
    model = StateSpaceGradientModel(a_mat=np.array([[0.5, 0.1], [0.1, 0.4]]),
                                    l_mat=0.5 * np.eye(2),
                                    b_vec=np.array([1.0, 0.5]), sigma=0.5, d=3)
    schedule = linear_schedule(alpha0=0.0, alpha1=1e-7, beta0=-1.0,
                               delta_T=0.0, horizon_T=20.0)
    return OptimizerSpec(kind="kalman_gd", mirror=quadratic_map(),
                         schedule=schedule, model=model, mode="synthetic")


def _entropy_mirror_spec():
    model = MartingaleGradientModel(sigma=0.5, n=100, m=25, d=3)
    return OptimizerSpec(kind="mirror_sgd", mirror=entropy_map(),
                         schedule=scaling_linear(), model=model,
                         mode="synthetic")


def _momentum_spec():
    model = StateSpaceGradientModel(a_mat=np.array([[0.5, 0.1], [0.1, 0.4]]),
                                    l_mat=0.5 * np.eye(2),
                                    b_vec=np.array([1.0, 0.5]), sigma=0.5, d=3)
    return OptimizerSpec(kind="generalized_momentum", mirror=quadratic_map(),
                         schedule=scaling_linear(beta0=-1.0), model=model,
                         mode="synthetic")


@pytest.mark.parametrize("make_spec, hand_loop", [
    (_varying_mesh_kalman_spec, _hand_kalman_gd),
    (_entropy_mirror_spec, _hand_mirror_sgd),
    (_momentum_spec, _hand_momentum),
], ids=["kalman_gd-varying-mesh", "mirror_sgd-entropy", "generalized_momentum"])
def test_run_is_the_public_step_loop(make_spec, hand_loop):
    spec = make_spec()
    traj = run_ensemble(spec, None, 20, [4])[0]
    assert traj.error is None
    np.testing.assert_array_equal(traj.x_path, hand_loop(spec, 20, seed=4))


def test_failed_run_keeps_completed_steps():
    # sigma = 300 drives an entropy coordinate to an exact zero, outside
    # the map's domain, on step 10 of 20.  The run keeps X_0 .. X_10 and
    # the matching stream and Phi prefixes, and its error names step 10.
    spec = OptimizerSpec(kind="mirror_sgd", mirror=entropy_map(),
                         schedule=linear_schedule(beta0=-0.7, gamma1=1.0,
                                                  delta_T=19.3, horizon_T=20.0),
                         model=MartingaleGradientModel(sigma=300.0, n=100, m=25, d=3),
                         mode="synthetic")
    short = run_ensemble(spec, None, 10, [3])[0]
    assert short.error is None
    traj = run_ensemble(spec, None, 20, [3])[0]
    assert traj.error.startswith("DomainError at step 10:")
    assert traj.steps == 10
    times = build_mesh(spec.schedule, 20).times
    np.testing.assert_array_equal(traj.times, times[:11])
    np.testing.assert_array_equal(traj.x_path, _hand_mirror_sgd(spec, 20, seed=3, stop=10))
    assert traj.nu_path.shape == (10, 3)
    np.testing.assert_array_equal(traj.phi_path,
                                  phi_scalar_path(spec.schedule, times[:-1])[:10])
    np.testing.assert_array_equal(traj.g_path, short.g_path)


def _ensemble_spec(kind, mode):
    """A spec of the given kind and stream mode, on the d = 3 quadratic
    problem in empirical mode."""
    if kind == "mirror_sgd":
        model = MartingaleGradientModel(sigma=0.5, n=40, m=10, d=3)
    else:
        model = StateSpaceGradientModel(a_mat=0.5 * np.eye(2), l_mat=0.5 * np.eye(2),
                                        b_vec=np.array([1.0, 0.5]), sigma=0.5, d=3)
    # 20 steps of dt = 0.1 with w = exp(alpha + beta) = 0.05 and A T = 1
    # keep Phi of order one: 0.9 to 1 on the scalar path.
    schedule = constant_schedule(alpha0=math.log(10.0), beta0=math.log(0.005),
                                 horizon_T=2.0)
    return OptimizerSpec(kind=kind, mirror=quadratic_map(), schedule=schedule,
                         model=model, mode=mode,
                         batch_m=10 if mode == "empirical" else None)


def test_kalman_gd_runs_with_a_cholesky_noise_factor():
    spec = _ensemble_spec("kalman_gd", "synthetic")
    spec.model = dataclasses.replace(spec.model, l_mat=np.array([[1.0, 0.0], [3.0, 1.0]]))
    traj = run_ensemble(spec, None, 20, [0])[0]
    assert traj.error is None and traj.steps == 20
    assert np.all(np.isfinite(traj.x_path))


@pytest.mark.parametrize("kind", ["generalized_momentum"])
def test_momentum_kinds_run_zero_steps(kind):
    # K = 0: no step, so no steady gain; the run is X_0 with filter mean 0.
    spec = dataclasses.replace(_ensemble_spec(kind, "synthetic"), x0=np.array([1.0, -2.0, 0.5]))
    for traj in run_ensemble(spec, None, 0, [0, 1]):
        assert traj.error is None and traj.steps == 0
        np.testing.assert_array_equal(traj.x_path, [[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(traj.filter_mean_norm, [0.0])
        assert traj.phi_path.size == 0


def _covariance_failure_spec(steps):
    """kalman_gd whose covariance recursion fails on step 1: with dt = 1,
    A_til = I - A is nilpotent, and L = 0, sigma = 0 and b = e_1 leave
    P_post = 0 after step 0, hence a zero innovation variance on step 1."""
    model = StateSpaceGradientModel(a_mat=np.array([[1.0, -1.0], [0.0, 1.0]]),
                                    l_mat=np.zeros((2, 2)), b_vec=np.array([1.0, 0.0]),
                                    sigma=0.0, d=3)
    return OptimizerSpec(kind="kalman_gd", mirror=quadratic_map(),
                         schedule=constant_schedule(horizon_T=float(steps)),
                         model=model, mode="synthetic", p0=np.eye(2))


def _ensemble_cases():
    problem = generate_problem("quadratic", d=3, n=40, rng=component_rng(0, "problem"))
    for kind in optimizers.OPTIMIZER_KINDS:
        for mode in ("synthetic", "empirical"):
            yield pytest.param(_ensemble_spec(kind, mode),
                               problem if mode == "empirical" else None, 20,
                               id=f"{kind}-{mode}")
    # Seed 1 leaves the entropy domain on step 18; seeds 0 and 2 complete.
    noisy = dataclasses.replace(
        _entropy_mirror_spec(), model=MartingaleGradientModel(sigma=30.0, n=100, m=25, d=3),
        schedule=linear_schedule(beta0=-0.7, gamma1=1.0, delta_T=19.3, horizon_T=20.0))
    yield pytest.param(noisy, None, 20, id="mirror_sgd-one-seed-fails")
    yield pytest.param(_covariance_failure_spec(5), None, 5, id="kalman_gd-covariance-fails")


@pytest.mark.parametrize("spec, problem, steps", list(_ensemble_cases()))
def test_ensemble_is_the_per_seed_runs(spec, problem, steps):
    seeds = [0, 1, 2]
    ensemble = run_ensemble(spec, problem, steps, seeds)
    assert [t.seed for t in ensemble] == seeds
    for seed, got in zip(seeds, ensemble):
        want = run_ensemble(spec, problem, steps, [seed])[0]
        for field in dataclasses.fields(Trajectory):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                np.testing.assert_array_equal(a, b, strict=True)
            else:
                assert a == b


@pytest.mark.parametrize("kind", optimizers.OPTIMIZER_KINDS)
def test_empty_ensemble_is_empty(kind):
    assert run_ensemble(_ensemble_spec(kind, "synthetic"), None, 20, []) == []


def test_empirical_run_without_a_problem_is_refused():
    with pytest.raises(ValueError, match="empirical mode needs a problem"):
        run_ensemble(_ensemble_spec("mirror_sgd", "empirical"), None, 3, [0])


def _assert_same_trajectories(ensemble, runs):
    for got, want in zip(ensemble, runs, strict=True):
        for field in dataclasses.fields(Trajectory):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                np.testing.assert_array_equal(a, b, strict=True)
            else:
                assert a == b


def _gradient_raising_at_step_4(problem, seed):
    """The problem's mini-batch gradients times 1000, raising on step 4 of
    the batch generator of `seed`."""
    draw, calls = problem.minibatch_gradients, {}

    def gradients(xs, m, rngs):
        for rng in rngs:
            entry = calls.setdefault(id(rng), [rng, 0])     # holds rng: ids stay unique
            entry[1] += 1
            if entry[1] == 5 and rng.bit_generator.seed_seq.entropy == seed:
                raise FloatingPointError("mini-batch gradient raised")
        return 1000.0 * draw(xs, m, rngs)

    problem.minibatch_gradients = gradients
    return problem


def _failing_entropy_spec(mode, sigma):
    return OptimizerSpec(kind="mirror_sgd", mirror=entropy_map(),
                         schedule=linear_schedule(beta0=-0.7, gamma1=1.0, delta_T=19.3,
                                                  horizon_T=20.0),
                         model=MartingaleGradientModel(sigma=sigma, n=100, m=25, d=3),
                         mode=mode, batch_m=10 if mode == "empirical" else None)


def _failing_entropy_momentum_spec():
    # _ensemble_spec keeps Phi of order one; latent noise L = 100 I makes
    # the stream loud enough to leave the entropy domain.
    spec = _ensemble_spec("generalized_momentum", "synthetic")
    return dataclasses.replace(spec, mirror=entropy_map(),
                               model=dataclasses.replace(spec.model, l_mat=100.0 * np.eye(2)))


@pytest.mark.parametrize("kind, mode", [
    ("mirror_sgd", "synthetic"),
    ("mirror_sgd", "empirical"),
    ("generalized_momentum", "synthetic"),
], ids=["synthetic", "empirical", "generalized_momentum"])
def test_rows_failing_at_different_steps_are_the_per_seed_runs(kind, mode):
    # Synthetic mirror_sgd: sigma = 60 drives seeds out of the entropy
    # domain, or overflows exp, on steps 10 to 17.  Empirical: gradients
    # scaled by 1000 leave the domain on steps 12 and 17, and seed 3's
    # mini-batch gradient raises on step 4.  generalized_momentum: 3 of 8
    # seeds fail, on steps 11 and 12.  Every
    # row equals its single-seed run, failed rows included, and a failing
    # row does not stop the others.
    seeds = list(range(8))
    problem = None
    if kind == "generalized_momentum":
        spec = _failing_entropy_momentum_spec()
    elif mode == "synthetic":
        spec = _failing_entropy_spec(mode, 60.0)
    else:
        spec = _failing_entropy_spec(mode, 30.0)
        problem = _gradient_raising_at_step_4(
            generate_problem("quadratic", d=3, n=40, rng=component_rng(0, "problem")), seed=3)
    ensemble = run_ensemble(spec, problem, 20, seeds)
    _assert_same_trajectories(ensemble, [run_ensemble(spec, problem, 20, [s])[0] for s in seeds])
    failed_steps = {t.steps for t in ensemble if t.error is not None}
    assert len(failed_steps) >= 2 and any(t.error is None for t in ensemble)
    if mode == "empirical":
        assert ensemble[3].error == "FloatingPointError at step 4: mini-batch gradient raised"
    if kind != "mirror_sgd" or mode == "empirical":
        return
    # The error is the public step's: a DomainError naming the seed's own
    # point, or numpy's overflow warning, which the tests raise as errors.
    errors = set()
    for traj in ensemble:
        if traj.error is not None:
            with pytest.raises(Exception) as info:
                _hand_mirror_sgd(spec, 20, traj.seed, stop=traj.steps + 1)
            errors.add(type(info.value))
            assert traj.error == f"{type(info.value).__name__} at step {traj.steps}: {info.value}"
    assert DomainError in errors


def test_seed_whose_stream_raises_fails_alone(monkeypatch):
    # The stacked simulation raises, so each seed is simulated on its own;
    # only seed 2 fails, on step 0.
    simulate = MartingaleGradientModel.simulate

    def raising(self, dts, rngs):
        if any(rng.bit_generator.seed_seq.entropy == 2 for rng in rngs):
            raise FloatingPointError("stream raised")
        return simulate(self, dts, rngs)

    monkeypatch.setattr(MartingaleGradientModel, "simulate", raising)
    spec, seeds = _ensemble_spec("mirror_sgd", "synthetic"), [0, 1, 2, 3]
    ensemble = run_ensemble(spec, None, 20, seeds)
    _assert_same_trajectories(ensemble, [run_ensemble(spec, None, 20, [s])[0] for s in seeds])
    assert [t.error for t in ensemble] == [None, None, "FloatingPointError at step 0: stream raised",
                                           None]


def _raise(exc):
    raise exc


@pytest.mark.parametrize("mode", ["synthetic", "empirical"])
@pytest.mark.parametrize("grad_h_dual, error", [
    (lambda z: np.add(z, "1"), TypeError),       # numpy's UFuncTypeError
    (lambda z: _raise(TypeError("bad operand")), TypeError),
    (lambda z: _raise(AttributeError("no attribute")), AttributeError),
    (lambda z: _raise(KeyError("key")), KeyError),
    (lambda z: _raise(IndexError("index")), IndexError),
], ids=["UFuncTypeError", "TypeError", "AttributeError", "KeyError", "IndexError"])
def test_programming_error_in_a_map_propagates(mode, grad_h_dual, error):
    # A bug in a custom map is not a numerical failure of the seeds.
    spec = dataclasses.replace(_ensemble_spec("mirror_sgd", mode),
                               mirror=dataclasses.replace(quadratic_map(),
                                                          grad_h_dual=grad_h_dual))
    problem = (generate_problem("quadratic", d=3, n=40, rng=component_rng(0, "problem"))
               if mode == "empirical" else None)
    with pytest.raises(error):
        run_ensemble(spec, problem, 20, [0, 1, 2])


def test_64_seed_kalman_gd_rows_are_the_single_seed_runs():
    spec = _ensemble_spec("kalman_gd", "synthetic")
    a = np.array([[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]])
    spec.model = StateSpaceGradientModel(a_mat=a, l_mat=0.5 * np.eye(3),
                                         b_vec=np.array([1.0, 0.5, 0.25]), sigma=0.5, d=16)
    seeds = list(range(64))
    ensemble = run_ensemble(spec, None, 20, seeds)
    assert all(t.error is None for t in ensemble)
    _assert_same_trajectories(ensemble, [run_ensemble(spec, None, 20, [s])[0] for s in seeds])


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("kind", ["mirror_sgd", "kalman_gd"])
def test_seed_independent_work_runs_once(monkeypatch, kind, n_seeds):
    calls = dict.fromkeys(["build_mesh", "phi_scalar_path", "phi_vector_path"], 0)
    for name in calls:
        _count_calls(monkeypatch, optimizers, name, calls)
    calls["_kalman_cov_step"] = 0
    _count_calls(monkeypatch, gradient_models, "_kalman_cov_step", calls)
    calls["check_domain"] = 0
    _count_calls(monkeypatch, MirrorMap, "check_domain", calls)
    trajs = run_ensemble(_ensemble_spec(kind, "synthetic"), None, 20, list(range(n_seeds)))
    assert all(t.error is None for t in trajs)
    assert calls["build_mesh"] == 1
    assert calls["phi_scalar_path"] + calls["phi_vector_path"] == 1
    assert calls["_kalman_cov_step"] == (20 if kind == "kalman_gd" else 0)
    # x0, then the whole stack once per step.
    assert calls["check_domain"] == 21


def test_indefinite_prior_fails_every_seed_at_the_public_step():
    # An indefinite p0 makes a posterior covariance indefinite.  Every
    # seed reports the PSD error of kalman_discrete_step at the step where
    # the public recursion raises it.
    spec = dataclasses.replace(_ensemble_spec("kalman_gd", "synthetic"),
                               p0=np.diag([1.0, -1.0]))
    model, dt = spec.model, 0.1
    state = initial_kalman_state(model.d, model.dtilde, spec.p0)
    for step in range(20):
        try:
            state = kalman_discrete_step(state, np.zeros(model.d),
                                         np.eye(2) - dt * model.a_mat, dt * model.l_mat,
                                         model.b_vec, model.sigma * dt)
        except FilterDivergenceError as exc:
            want = f"FilterDivergenceError at step {step}: {exc}"
            break
    assert "positive semi-definiteness" in want
    for traj in run_ensemble(spec, None, 20, [0, 1, 2]):
        assert traj.error == want and traj.steps == step


def test_covariance_failure_stops_every_seed_at_its_step(monkeypatch):
    # The gain sequence stops on step 1.  Each seed keeps X_0 and X_1,
    # still observes g on step 1, and reports the filter's error there,
    # as the public step loop does.  The streams of all seeds are
    # simulated together, once.
    spec = _covariance_failure_spec(5)
    model = spec.model
    calls = {"simulate": 0}
    _count_calls(monkeypatch, StateSpaceGradientModel, "simulate", calls)
    seeds = [0, 1, 2]
    trajs = run_ensemble(spec, None, 5, seeds)
    assert calls["simulate"] == 1
    phi = phi_vector_path(spec.schedule, model.a_mat, model.b_vec, np.arange(5.0))
    a_til = np.eye(2) - model.a_mat
    for seed, traj in zip(seeds, trajs):
        _, (g_stream,) = model.simulate(np.ones(2), [component_rng(seed, "stream")])
        state = initial_kalman_state(model.d, 2, spec.p0)
        state = kalman_discrete_step(state, g_stream[0], a_til, model.l_mat,
                                     model.b_vec, 0.0)
        x1 = mirror_descent_step(spec.mirror, np.zeros(3), state.y_hat @ phi[0], 1.0)
        with pytest.raises(FilterDivergenceError) as info:
            kalman_discrete_step(state, g_stream[1], a_til, model.l_mat,
                                 model.b_vec, 0.0)
        assert traj.error == f"FilterDivergenceError at step 1: {info.value}"
        np.testing.assert_array_equal(traj.x_path, [np.zeros(3), x1])
        assert traj.steps == 1 and traj.g_path.shape == (1, 3)
