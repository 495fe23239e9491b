"""Gradient-stream models and filters against independent oracles."""

import functools
import math
import time
import warnings

import numpy as np
import pytest

from varopt import (
    FilterDivergenceError,
    MartingaleGradientModel,
    StateSpaceGradientModel,
    kalman_bucy_step,
    kalman_discrete_step,
    kalman_steady_gain,
    martingale_filter,
)
from varopt import gradient_models
from varopt.gradient_models import (
    _POSTERIOR_PSD_FLOOR,
    STEADY_GAIN_RESIDUAL,
    _kalman_cov_step,
    _kalman_update,
    _psd_prefix,
    _steady_covariance,
    initial_kalman_state,
)


def _random_model(rng, dtilde):
    m = rng.standard_normal((dtilde, dtilde))
    a = m @ m.T + (0.5 + rng.uniform()) * np.eye(dtilde)
    n = rng.standard_normal((dtilde, dtilde))
    l = n @ n.T + (0.2 + rng.uniform()) * np.eye(dtilde)
    b = rng.standard_normal(dtilde)
    return a, l, b, 0.3 + rng.uniform()


def _conditioning_oracle(a_til, l_til, b, sigma_d, p0, g_obs):
    """E[y_k | g_1..g_k] and its covariance by direct joint-Gaussian
    conditioning on the stacked noise basis."""
    k = len(g_obs)
    dt = len(b)
    q = l_til @ l_til.T
    dim = dt + k * dt + k          # y0, w_1..w_k, xi_1..xi_k
    cov = np.zeros((dim, dim))
    cov[:dt, :dt] = p0
    for j in range(k):
        cov[dt + j * dt: dt + (j + 1) * dt, dt + j * dt: dt + (j + 1) * dt] = q
    for j in range(k):
        cov[dt + k * dt + j, dt + k * dt + j] = 1.0

    # y_j as a linear map of the basis.
    maps = []
    cur = np.zeros((dt, dim))
    cur[:, :dt] = np.eye(dt)
    for j in range(k):
        cur = a_til @ cur
        cur = cur.copy()
        cur[:, dt + j * dt: dt + (j + 1) * dt] += np.eye(dt)
        maps.append(cur)
    g_map = np.zeros((k, dim))
    for j in range(k):
        g_map[j] = b @ maps[j]
        g_map[j, dt + k * dt + j] = sigma_d

    s_gg = g_map @ cov @ g_map.T
    c_yg = maps[-1] @ cov @ g_map.T
    sol = np.linalg.solve(s_gg, np.asarray(g_obs))
    mean = c_yg @ sol
    p_cond = maps[-1] @ cov @ maps[-1].T - c_yg @ np.linalg.solve(s_gg, c_yg.T)
    return mean, 0.5 * (p_cond + p_cond.T)


class TestMartingaleModel:
    def test_rho_and_filter_coefficient(self):
        model = MartingaleGradientModel(sigma=1.0, n=100, m=25)
        assert model.rho2 == pytest.approx(3.0)
        assert model.filter_coefficient == pytest.approx(0.25)
        # 1 / (1 + rho^2) is exactly m/n.
        assert 1.0 / (1.0 + model.rho2) == pytest.approx(model.filter_coefficient)

    def test_full_batch_is_noiseless(self):
        model = MartingaleGradientModel(sigma=0.7, n=50, m=50, d=3)
        grad_true, g = model.simulate(np.full(5, 0.1), np.random.default_rng(0))
        np.testing.assert_array_equal(g, grad_true)

    def test_filter_rescales(self):
        model = MartingaleGradientModel(sigma=1.0, n=10, m=2, d=4)
        g = np.arange(4.0)
        np.testing.assert_allclose(martingale_filter(model, g), 0.2 * g)

    def test_stream_increment_statistics(self):
        model = MartingaleGradientModel(sigma=2.0, n=8, m=2, d=1)
        rng = np.random.default_rng(123)
        dt = 0.25
        grad_true, g = model.simulate(np.full(4000, dt), rng)
        var_t = np.var(np.diff(grad_true, axis=0, prepend=0.0))
        var_g = np.var(np.diff(g, axis=0, prepend=0.0))
        # Var = sigma^2 dt and sigma^2 (1 + rho^2) dt = sigma^2 (n/m) dt.
        assert var_t == pytest.approx(4.0 * dt, rel=0.1)
        assert var_g == pytest.approx(4.0 * 4.0 * dt, rel=0.1)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            MartingaleGradientModel(sigma=1.0, n=5, m=6)


class TestStateSpaceModel:
    def test_stationary_covariance_solves_lyapunov(self):
        rng = np.random.default_rng(6)
        for dtilde in (1, 2, 3):
            a, l, b, sigma = _random_model(rng, dtilde)
            model = StateSpaceGradientModel(a_mat=a, l_mat=l, b_vec=b, sigma=sigma)
            p = model.stationary_covariance()
            resid = a @ p + p @ a.T - l @ l.T
            assert np.max(np.abs(resid)) <= 1e-10
            assert np.linalg.eigvalsh(p).min() >= -1e-12

    def test_scalar_stationary_value(self):
        # dy = -a y dt + l dW has stationary variance l^2 / (2a).
        model = StateSpaceGradientModel(a_mat=np.array([[2.0]]),
                                        l_mat=np.array([[3.0]]),
                                        b_vec=np.array([1.0]), sigma=1.0)
        assert model.stationary_covariance()[0, 0] == pytest.approx(9.0 / 4.0)

    def test_stream_shapes_and_determinism(self):
        model = StateSpaceGradientModel(a_mat=np.eye(2), l_mat=np.eye(2),
                                        b_vec=np.array([1.0, -1.0]), sigma=0.5,
                                        d=3)
        t1, g1 = model.simulate(np.full(10, 0.2), np.random.default_rng(42))
        t2, g2 = model.simulate(np.full(10, 0.2), np.random.default_rng(42))
        assert g1.shape == t1.shape == (10, 3)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(t1, t2)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            StateSpaceGradientModel(a_mat=np.array([[-1.0]]),
                                    l_mat=np.array([[1.0]]),
                                    b_vec=np.array([1.0]), sigma=1.0)

    # Only A = 0 is exempt: a drift that is tiny or skew-symmetric is
    # not positive definite either.
    @pytest.mark.parametrize("a", [1e-9 * np.diag([1.0, -1.0]), 1e-9 * np.diag([1.0, 0.0]),
                                   [[0.0, 1.0], [-1.0, 0.0]]],
                             ids=["tiny-indefinite", "tiny-semidefinite", "skew"])
    def test_rejects_nonzero_a_without_positive_definite_symmetric_part(self, a):
        with pytest.raises(ValueError, match="A must be positive definite"):
            StateSpaceGradientModel(a_mat=a, l_mat=np.eye(2), b_vec=np.ones(2), sigma=1.0)

    @pytest.mark.parametrize("l", [[[1.0, 0.0], [3.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 0.0]]],
                             ids=["cholesky", "permutation", "rank-deficient"])
    def test_accepts_any_square_noise_factor(self, l):
        # L enters only as L w and L L', so neither L nor its symmetric
        # part needs to be positive definite.
        model = StateSpaceGradientModel(a_mat=0.5 * np.eye(2), l_mat=l,
                                        b_vec=np.ones(2), sigma=0.5)
        np.testing.assert_array_equal(model.l_mat, l)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["sigma", "a_mat", "l_mat", "b_vec"])
    def test_rejects_nonfinite(self, name, bad):
        kwargs = dict(a_mat=0.5 * np.eye(2), l_mat=np.eye(2), b_vec=np.ones(2), sigma=0.5)
        value = np.array(kwargs[name], dtype=float)
        value.flat[0] = bad
        kwargs[name] = float(value) if name == "sigma" else value
        with pytest.raises(ValueError, match="finite"):
            StateSpaceGradientModel(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_martingale_rejects_nonfinite_sigma(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MartingaleGradientModel(sigma=bad, n=10, m=2)


def _stepwise_state_space(model, dts, rng):
    """The per-step stream recursion: (d, dtilde) then d normals per step,
    y <- y A_til' + w L_til', g = b'y + sigma dt xi."""
    y = np.zeros((model.d, model.dtilde))
    grad_true, g = [], []
    for dt in dts.tolist():
        a_til = np.eye(model.dtilde) - dt * model.a_mat
        l_til = dt * model.l_mat
        w = rng.standard_normal((model.d, model.dtilde))
        xi = rng.standard_normal(model.d)
        y = y @ a_til.T + w @ l_til.T
        grad_true.append(y @ model.b_vec)
        g.append(grad_true[-1] + model.sigma * dt * xi)
    return np.array(grad_true), np.array(g)


def _stepwise_martingale(model, dts, rng):
    """The per-step stream recursion: two d-vectors of normals per step,
    W^f's first, each scaled by sqrt(dt) and added to its state."""
    w_f = w_e = np.zeros(model.d)
    grad_true, g = [], []
    for dt in dts.tolist():
        sqdt = math.sqrt(dt)
        w_f = w_f + sqdt * rng.standard_normal(model.d)
        w_e = w_e + sqdt * rng.standard_normal(model.d)
        grad_true.append(model.sigma * w_f)
        g.append(model.sigma * (w_f + math.sqrt(model.rho2) * w_e))
    return np.array(grad_true), np.array(g)


def _simulate_cases():
    rng = np.random.default_rng(8)
    for dtilde in (1, 3):
        a, l, b, sigma = _random_model(rng, dtilde)
        model = StateSpaceGradientModel(a_mat=a, l_mat=l, b_vec=b, sigma=sigma, d=4)
        yield pytest.param(model, _stepwise_state_space, id=f"state_space-dtilde{dtilde}")
    yield pytest.param(MartingaleGradientModel(sigma=0.7, n=40, m=10, d=4),
                       _stepwise_martingale, id="martingale")


class TestSimulate:
    @pytest.mark.parametrize("model, stepwise", _simulate_cases())
    def test_block_draw_is_the_stepwise_recursion(self, model, stepwise):
        dts = np.random.default_rng(1).uniform(0.01, 0.5, 40)
        grad_true, g = model.simulate(dts, np.random.default_rng(11))
        want_true, want_g = stepwise(model, dts, np.random.default_rng(11))
        assert g.shape == grad_true.shape == (40, 4)
        np.testing.assert_array_equal(grad_true, want_true)
        np.testing.assert_array_equal(g, want_g)

    @pytest.mark.parametrize("dts", [[0.1, 0.0], [0.1, -0.2], [0.1, np.nan], [[0.1]], 0.1],
                             ids=["zero", "negative", "nan", "2-d", "0-d"])
    @pytest.mark.parametrize("model, stepwise", _simulate_cases())
    def test_rejects_a_bad_mesh(self, model, stepwise, dts):
        with pytest.raises(ValueError, match="positive mesh steps"):
            model.simulate(dts, np.random.default_rng(0))


class TestDiscreteKalman:
    def test_matches_gaussian_conditioning(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            dtilde = int(rng.integers(1, 4))
            a, l, b, sigma = _random_model(rng, dtilde)
            dt = 0.1
            a_til = np.eye(dtilde) - dt * a
            l_til = dt * l
            sigma_d = sigma * dt
            p0 = np.eye(dtilde)
            k_steps = int(rng.integers(1, 11))
            g_obs = rng.standard_normal(k_steps)

            state = initial_kalman_state(1, dtilde, p0)
            for g in g_obs:
                state = kalman_discrete_step(state, np.array([g]), a_til,
                                             l_til, b, sigma_d)
                eigs = np.linalg.eigvalsh(state.p_post)
                assert np.max(np.abs(state.p_post - state.p_post.T)) <= 1e-14
                assert eigs.min() >= -1e-10

            mean, p_cond = _conditioning_oracle(a_til, l_til, b, sigma_d, p0, g_obs)
            assert np.max(np.abs(state.y_hat[0] - mean)) <= 1e-8
            assert np.max(np.abs(state.p_post - p_cond)) <= 1e-8

    def test_shared_covariance_across_coordinates(self):
        # d rows filtered jointly equal d independent scalar-row filters.
        rng = np.random.default_rng(12)
        dtilde, d = 2, 4
        a, l, b, sigma = _random_model(rng, dtilde)
        a_til = np.eye(dtilde) - 0.1 * a
        l_til = 0.1 * l
        g_stream = rng.standard_normal((6, d))
        joint = initial_kalman_state(d, dtilde)
        rows = [initial_kalman_state(1, dtilde) for _ in range(d)]
        for g in g_stream:
            joint = kalman_discrete_step(joint, g, a_til, l_til, b, 0.2)
            rows = [kalman_discrete_step(st, g[i: i + 1], a_til, l_til, b, 0.2)
                    for i, st in enumerate(rows)]
        for i in range(d):
            np.testing.assert_allclose(joint.y_hat[i], rows[i].y_hat[0],
                                       atol=1e-12)

    def test_process_noise_covariance_matches_stream(self):
        # The stream adds L w, of covariance L L'; for a non-normal L this
        # differs from L'L = [[1, 0.9], [0.9, 0.9]].  With A = I and dt = 1
        # one step from y = 0 leaves the rows at y = w L', whose columns
        # b = e_1 and b = e_2 read on the same draws.
        l = np.array([[1.0, 0.9], [0.0, 0.3]])
        y_cols = [StateSpaceGradientModel(a_mat=np.eye(2), l_mat=l, b_vec=b, sigma=1.0,
                                          d=20_000).simulate(np.ones(1),
                                                             np.random.default_rng(5))[0][0]
                  for b in np.eye(2)]
        state = initial_kalman_state(1, 2, p0=np.zeros((2, 2)))
        state = kalman_discrete_step(state, np.zeros(1), np.zeros((2, 2)), l,
                                     np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(state.p_pred, np.cov(y_cols), atol=0.05)

    def test_degenerate_innovation_raises(self):
        state = initial_kalman_state(1, 1, p0=np.zeros((1, 1)))
        with pytest.raises(FilterDivergenceError):
            kalman_discrete_step(state, np.array([1.0]), np.array([[1.0]]),
                                 np.zeros((1, 1)), np.array([1.0]), 0.0)

    @pytest.mark.parametrize("sigma_d", [1e308, np.float64(1e308), math.nan],
                             ids=["float", "float64", "nan"])
    def test_innovation_variance_must_be_finite(self, sigma_d):
        # sigma_d^2 overflows a float; the step refuses it rather than
        # filtering with a zero gain.
        state = initial_kalman_state(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FilterDivergenceError, match="positive and finite"):
                kalman_discrete_step(state, np.ones(2), np.array([[0.9]]),
                                     np.array([[0.1]]), np.array([1.0]), sigma_d)


def _two_mode_model(dt):
    """A_til, L_til and b of A = [[0.5, 0.1], [0.1, 0.4]], L = 0.5 I,
    b = [1, 0.5] on a mesh step dt, and sigma = 0.5."""
    a = np.array([[0.5, 0.1], [0.1, 0.4]])
    return np.eye(2) - dt * a, dt * 0.5 * np.eye(2), np.array([1.0, 0.5]), 0.5


class TestSteadyGain:
    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("dt", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_doubling_solves_the_riccati_equation(self, dt, zero_noise):
        # A fixed-point iteration of the recursion would need about 2.7/dt
        # steps on this model: more than 1e5 at dt <= 1e-4.
        a_til, l_til, b, sigma = _two_mode_model(dt)
        sigma_d = 0.0 if zero_noise else sigma * dt
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            gain = kalman_steady_gain(a_til, l_til, b, sigma_d)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 5e-3
        assert np.all(np.isfinite(gain))
        q = l_til @ l_til.T
        p_steady = _steady_covariance(a_til, q, b, sigma_d)
        _, _, p_post = _kalman_update(p_steady, b, sigma_d)
        p_pred, step_gain, _, _ = _kalman_cov_step(p_post, a_til, q, b, sigma_d)
        assert (np.abs(p_pred - p_steady).max()
                <= STEADY_GAIN_RESIDUAL * np.abs(p_steady).max())
        np.testing.assert_array_equal(gain, step_gain)

    def test_zero_observation_noise(self):
        # Reference from a fixed-point iteration of the recursion, which
        # stops about 1e-9 relative short of the fixed point here.
        gain = kalman_steady_gain(*_two_mode_model(0.1)[:3], 0.0)
        np.testing.assert_allclose(gain, [0.81155092, 0.37689817], rtol=1e-8)

    def test_undetectable_model_is_refused_without_overflow(self):
        # The first mode grows by 1.1 per step and b does not observe it,
        # so no steady covariance exists.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FilterDivergenceError, match="stabilizing"):
                kalman_steady_gain(np.diag([1.1, 0.5]), np.eye(2),
                                   np.array([0.0, 1.0]), 1.0)

    @pytest.mark.parametrize("sigma_d", [1e308, np.float64(1e308), math.nan],
                             ids=["float", "float64", "nan"])
    def test_innovation_variance_must_be_finite(self, sigma_d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FilterDivergenceError, match="positive and finite"):
                kalman_steady_gain(*_two_mode_model(0.1)[:3], sigma_d)

    def test_indefinite_fixed_point_is_refused(self, monkeypatch):
        # P = (1 - sqrt 5) / 2 also solves P^2 = 1 + P, the Riccati equation
        # of test_scalar_golden_ratio, and passes the residual check.
        monkeypatch.setattr(gradient_models, "_steady_covariance",
                            lambda *args: np.array([[(1.0 - math.sqrt(5.0)) / 2.0]]))
        with pytest.raises(FilterDivergenceError, match="steady covariance lost positive"):
            kalman_steady_gain(np.array([[1.0]]), np.array([[1.0]]), np.array([1.0]), 1.0)

    def test_scalar_half(self):
        gain = kalman_steady_gain(np.array([[0.0]]), np.array([[1.0]]),
                                  np.array([1.0]), 1.0)
        assert gain[0] == pytest.approx(0.5, abs=1e-9)

    def test_scalar_golden_ratio(self):
        # Fixed point P^2 = 1 + P gives gain P/(1+P) = (sqrt(5)-1)/2.
        gain = kalman_steady_gain(np.array([[1.0]]), np.array([[1.0]]),
                                  np.array([1.0]), 1.0)
        assert gain[0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-9)

    def test_discrete_gains_converge_to_steady(self):
        rng = np.random.default_rng(64)
        for dtilde in (1, 2):
            a, l, b, sigma = _random_model(rng, dtilde)
            a_til = np.eye(dtilde) - 0.1 * a
            l_til = 0.1 * l
            sigma_d = sigma * 0.1
            k_inf = kalman_steady_gain(a_til, l_til, b, sigma_d)
            state = initial_kalman_state(1, dtilde)
            for _ in range(2000):
                state = kalman_discrete_step(state, np.zeros(1), a_til, l_til,
                                             b, sigma_d)
            assert np.max(np.abs(state.gain - k_inf)) <= 1e-6


def test_posterior_psd_prefix_names_the_first_failure():
    posterior_psd_prefix = functools.partial(_psd_prefix, floor=_POSTERIOR_PSD_FLOOR,
                                             what="posterior covariance")
    stack = np.array([np.eye(2), np.eye(2), np.diag([1.0, -0.5]), -np.eye(2)])
    k, error = posterior_psd_prefix(stack)
    assert k == 2
    assert str(error) == ("posterior covariance lost positive semi-definiteness "
                          "(min eigenvalue -5.000e-01)")
    assert posterior_psd_prefix(stack[:2]) == (2, None)
    assert posterior_psd_prefix(stack[:0]) == (0, None)
    # eigvalsh need not return NaN for a NaN matrix, so it is refused alone.
    k, error = posterior_psd_prefix(np.array([np.eye(2), np.eye(2), np.full((2, 2), np.nan)]))
    assert k == 2
    assert str(error) == "posterior covariance is not finite"


class TestKalmanBucy:
    def test_riccati_equilibrium(self):
        # Scalar A = L = b = sigma = 1: the stationary covariance solves
        # -2P - P^2 + 1 = 0, i.e. P = sqrt(2) - 1.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                        l_mat=np.array([[1.0]]),
                                        b_vec=np.array([1.0]), sigma=1.0)
        state = initial_kalman_state(1, 1, p0=np.array([[1.0]]))
        dt = 1e-4
        for _ in range(100_000):
            state = kalman_bucy_step(state, np.zeros(1), dt, model)
        assert state.p_post[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-4)

    def test_tracks_constant_observation(self):
        # With g held at a constant c the filter mean settles near the
        # stationary point of the mean ODE: -A y + P b (c - y) = 0.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                        l_mat=np.array([[1.0]]),
                                        b_vec=np.array([1.0]), sigma=1.0)
        state = initial_kalman_state(1, 1, p0=np.array([[1.0]]))
        c = 2.0
        for _ in range(200_000):
            state = kalman_bucy_step(state, np.array([c]), 1e-3, model)
        p = state.p_post[0, 0]
        expected = p * c / (1.0 + p)
        assert state.y_hat[0, 0] == pytest.approx(expected, abs=1e-6)

    def test_non_normal_drift_settles_at_the_stationary_covariance(self):
        # With sigma = 1e4 the observation term is below 1e-8, so the
        # equilibrium of dP = (-A P - P A' + L L') dt is the stationary
        # covariance; P'A in place of P A' misses it by 1e-2 here.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0, 0.8], [-0.3, 0.6]]),
                                        l_mat=np.array([[0.7, 0.0], [0.2, 0.5]]),
                                        b_vec=np.array([1.0, 0.5]), sigma=1e4)
        state = initial_kalman_state(1, 2)
        for _ in range(3000):
            state = kalman_bucy_step(state, np.zeros(1), 1e-2, model)
        np.testing.assert_allclose(state.p_post, model.stationary_covariance(), rtol=0,
                                   atol=1e-8)

    def test_indefinite_riccati_covariance_is_refused(self):
        # dP = (-2P - P^2 + 1) dt = -2 at P = 1, so dt = 1.5 gives P = -2.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]), l_mat=np.array([[1.0]]),
                                        b_vec=np.array([1.0]), sigma=1.0)
        state = initial_kalman_state(1, 1, p0=np.array([[1.0]]))
        with pytest.raises(FilterDivergenceError) as info:
            kalman_bucy_step(state, np.zeros(1), 1.5, model)
        assert str(info.value) == ("Riccati covariance lost positive semi-definiteness "
                                   "(min eigenvalue -2.000e+00)")

    def test_overflowing_riccati_covariance_is_refused(self):
        # L L' = 1e400 overflows, so the first step gives P = inf (and the
        # next P = NaN) unless the infinite covariance is refused.
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]), l_mat=np.array([[1e200]]),
                                        b_vec=np.array([1.0]), sigma=1.0)
        state = initial_kalman_state(1, 1, p0=np.array([[1.0]]))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(FilterDivergenceError, match="Riccati covariance is not finite"):
                kalman_bucy_step(state, np.zeros(1), 0.1, model)

    def test_rejects_bad_dt_and_sigma(self):
        model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                        l_mat=np.array([[1.0]]),
                                        b_vec=np.array([1.0]), sigma=0.0)
        state = initial_kalman_state(1, 1)
        with pytest.raises(ValueError):
            kalman_bucy_step(state, np.zeros(1), 0.1, model)
        model2 = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                         l_mat=np.array([[1.0]]),
                                         b_vec=np.array([1.0]), sigma=1.0)
        with pytest.raises(ValueError):
            kalman_bucy_step(state, np.zeros(1), -0.1, model2)
