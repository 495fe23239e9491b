"""Schedules, meshes, quadrature and the learning-rate paths."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varopt import (
    Mesh,
    Schedule,
    build_mesh,
    check_scaling,
    constant_schedule,
    linear_schedule,
    matrix_exp,
    phi_scalar,
    phi_vector,
    polynomial_schedule,
)
from varopt.schedules import integrate_intervals, phi_scalar_path, phi_vector_path


def _fine_simpson(fn, a, b, panels=4096):
    """Independent fixed-grid composite Simpson oracle."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum(axis=0)
                      + 2.0 * ys[2:-1:2].sum(axis=0))


class TestScaling:
    def test_linear_family_scales(self):
        s = linear_schedule(alpha0=0.3, gamma1=math.exp(0.3), beta1=0.5,
                            horizon_T=2.0)
        report = check_scaling(s)
        assert report.passed
        assert report.max_gamma_residual <= 1e-6

    def test_polynomial_family_scales(self):
        s = polynomial_schedule(p=2.0, c=1.0, horizon_T=3.0, t_min=0.2)
        assert check_scaling(s).passed

    def test_violating_schedule_flagged(self):
        s = linear_schedule(alpha0=0.0, gamma1=2.0, horizon_T=1.0)
        report = check_scaling(s)
        assert not report.passed
        assert report.max_gamma_residual == pytest.approx(1.0, abs=1e-9)

    def test_beta_excess_flagged(self):
        s = linear_schedule(alpha0=0.0, gamma1=1.0, beta1=1.5, horizon_T=1.0)
        report = check_scaling(s)
        assert not report.passed
        assert report.max_beta_excess == pytest.approx(0.5, abs=1e-9)

    def test_finite_difference_fallback(self):
        # Strip the closed-form derivatives: the numerical check must agree.
        base = linear_schedule(alpha0=0.1, gamma1=math.exp(0.1), horizon_T=2.0)
        s = Schedule(alpha=base.alpha, beta=base.beta, gamma=base.gamma,
                     delta_T=0.0, horizon_T=2.0)
        assert check_scaling(s).passed


class TestMesh:
    def test_constant_alpha_uniform_steps(self):
        s = constant_schedule(alpha0=math.log(2.0), horizon_T=5.0)
        mesh = build_mesh(s, 4)
        np.testing.assert_allclose(mesh.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(mesh.steps, 0.5)

    def test_recursion_matches_alpha(self):
        s = linear_schedule(alpha0=0.2, alpha1=0.3, horizon_T=10.0)
        mesh = build_mesh(s, 20)
        for k in range(20):
            expected = math.exp(-s.alpha(mesh.times[k]))
            assert mesh.times[k + 1] - mesh.times[k] == pytest.approx(expected)

    def test_polynomial_starts_at_t_min(self):
        s = polynomial_schedule(p=2.0, t_min=0.5, horizon_T=4.0)
        assert build_mesh(s, 3).times[0] == 0.5

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ValueError):
            Mesh(times=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            build_mesh(constant_schedule(), 0)


class TestQuadrature:
    def test_polynomial_exact(self):
        # Gauss-Legendre with 8 nodes is exact on cubics.
        val = integrate_intervals(lambda t: t ** 3 - 2 * t + 1, [0.0, 2.0])[0]
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_exponential(self):
        val = integrate_intervals(np.exp, [0.0, 3.0])[0]
        assert val == pytest.approx(math.exp(3.0) - 1.0, rel=1e-10)

    def test_large_magnitude_integrand(self):
        # Near machine precision relative to the integrand scale the
        # bisection must terminate rather than chase an absolute tolerance.
        val = integrate_intervals(lambda t: 1e8 * np.exp(t), [0.0, 4.0])[0]
        assert val == pytest.approx(1e8 * (math.exp(4.0) - 1.0), rel=1e-11)

    def test_array_valued(self):
        val = integrate_intervals(lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1),
                                  [0.0, math.pi / 2])[0]
        np.testing.assert_allclose(val, [1.0, 1.0], atol=1e-10)

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_against_fine_grid_oracle(self, a, width):
        fn = lambda t: np.exp(0.7 * t) * np.cos(t)
        b = a + width
        assert integrate_intervals(fn, [a, b])[0] == pytest.approx(
            float(_fine_simpson(fn, a, b)), abs=1e-9)

    def test_intervals_add_up(self):
        edges = [0.0, 0.0, 0.3, 1.1, 2.0]
        parts = integrate_intervals(np.exp, edges)
        assert parts.shape == (4,)
        assert parts[0] == 0.0
        np.testing.assert_allclose(parts, np.diff(np.exp(edges)), rtol=1e-13)

    def test_depth_budget_exhausted(self):
        # 1/sqrt(t) is integrable but no Gauss-Legendre level resolves the
        # singularity to a tolerance that halves with every bisection.
        with pytest.raises(RuntimeError):
            integrate_intervals(lambda t: 1.0 / np.sqrt(t), [0.0, 1.0])


class TestMatrixExp:
    def test_diagonal(self):
        m = np.diag([0.5, -1.0, 2.0])
        np.testing.assert_allclose(matrix_exp(m), np.diag(np.exp([0.5, -1.0, 2.0])),
                                   rtol=1e-12)

    def test_series_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4))
        # Direct Taylor summation (no scaling) as the independent oracle.
        acc = np.eye(4)
        term = np.eye(4)
        for j in range(1, 200):
            term = term @ m / j
            acc = acc + term
        np.testing.assert_allclose(matrix_exp(m), acc, rtol=1e-10, atol=1e-12)

    def test_inverse_property(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3))
        np.testing.assert_allclose(matrix_exp(m) @ matrix_exp(-m), np.eye(3),
                                   atol=1e-10)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        scales = np.array([0.0, 0.01, 0.3, 1.0, 3.0, 10.0, 40.0])
        stack = rng.standard_normal((7, 3, 3)) * scales[:, None, None]
        got = matrix_exp(stack)
        assert got.shape == stack.shape
        for m, e in zip(stack, got):
            np.testing.assert_allclose(e, matrix_exp(m), rtol=1e-14, atol=0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_exp(np.ones((2, 3)))
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestScalarPath:
    def test_constant_schedule_closed_form(self):
        a0, b0, g0, dT, T = 0.2, -0.4, 0.1, 1.1, 3.0
        s = constant_schedule(alpha0=a0, beta0=b0, gamma0=g0, delta_T=dT,
                              horizon_T=T)
        w = math.exp(a0 + b0 + g0)
        for t in np.linspace(0.0, T, 7):
            expected = math.exp(-g0) * (math.exp(dT) - w * (T - t))
            assert phi_scalar(s, float(t)) == pytest.approx(expected, abs=1e-9)

    def test_terminal_condition_random_schedules(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = linear_schedule(
                alpha0=rng.uniform(-1, 1), alpha1=rng.uniform(-0.3, 0.3),
                beta0=rng.uniform(-1, 1), beta1=rng.uniform(-0.5, 0.5),
                gamma0=rng.uniform(-1, 1), gamma1=rng.uniform(-0.5, 0.5),
                delta_T=rng.uniform(-1, 2), horizon_T=rng.uniform(0.5, 4.0),
            )
            target = math.exp(s.delta_T - s.gamma(s.horizon_T))
            assert phi_scalar(s, s.horizon_T) == pytest.approx(target, abs=1e-9)

    def test_path_matches_pointwise(self):
        s = linear_schedule(beta0=-0.5, gamma1=1.0, delta_T=3.0, horizon_T=3.0)
        ts = np.linspace(0.0, 3.0, 9)
        path = phi_scalar_path(s, ts)
        for t, val in zip(ts, path):
            assert val == pytest.approx(phi_scalar(s, float(t)), abs=1e-10)

    def test_negative_path_warns(self):
        # A tiny terminal weight with a heavy integral drives phi0 negative.
        s = constant_schedule(alpha0=1.5, beta0=1.5, delta_T=-3.0, horizon_T=4.0)
        with pytest.warns(RuntimeWarning):
            phi_scalar_path(s, np.array([0.0, 1.0]))

    def test_out_of_horizon_rejected(self):
        s = constant_schedule(horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_scalar(s, 2.0)

    @pytest.mark.parametrize("times", [[0.0, 2.0], [0.5, 0.2], [-0.1, 0.5],
                                       [0.0, math.nan, 0.5]],
                             ids=["past-T", "unsorted", "before-t_min", "nan"])
    def test_path_rejects_bad_times(self, times):
        s = constant_schedule(delta_T=2.0, horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_scalar_path(s, times)

    def test_polynomial_closed_form_long_grid(self):
        # w = p t^(2p - 1), and delta_T = log(1 + T^(2p) / 2) makes
        # Phi(t) = t^-p (1 + t^(2p) / 2) on [t_min, T].
        p, T = 2.5, 2.0
        s = polynomial_schedule(p=p, c=1.0, t_min=0.1, horizon_T=T,
                                delta_T=math.log(1.0 + T ** (2 * p) / 2))
        ts = np.linspace(0.1, T, 400)
        np.testing.assert_allclose(phi_scalar_path(s, ts),
                                   ts ** -p * (1.0 + ts ** (2 * p) / 2), rtol=1e-12)


class TestVectorPath:
    def test_reduces_to_scalar_when_a_small(self):
        # dtilde = 1 with A -> 0, b = 1 reproduces the scalar path in the
        # limit; use a tiny A and a loose tolerance.
        s = linear_schedule(beta0=-0.3, gamma1=0.8, delta_T=1.0, horizon_T=2.0)
        a = np.array([[1e-9]])
        b = np.array([1.0])
        for t in (0.0, 1.0, 2.0):
            vec = phi_vector(s, a, b, t)
            assert vec[0] == pytest.approx(phi_scalar(s, t), abs=1e-6)

    def test_scalar_case_independent_oracle(self):
        s = linear_schedule(beta0=-0.3, beta1=0.2, gamma0=0.1, gamma1=0.7,
                            delta_T=1.2, horizon_T=2.0)
        a_val, b_val = 0.8, 1.3
        w = lambda u: math.exp(s.alpha(u) + s.beta(u) + s.gamma(u))
        phi0 = math.exp(s.delta_T) * math.exp(a_val * s.horizon_T) - float(
            _fine_simpson(lambda u: w(u) * math.exp(a_val * u), 0.0, s.horizon_T))
        for t in (0.0, 0.7, 1.4, 2.0):
            tail = float(_fine_simpson(
                lambda u: w(u) * math.exp(-a_val * (t - u)), 0.0, t)) if t > 0 else 0.0
            expected = math.exp(-s.gamma(t)) * (
                b_val * math.exp(-a_val * t) * phi0 + b_val * tail)
            got = phi_vector(s, np.array([[a_val]]), np.array([b_val]), t)
            assert got[0] == pytest.approx(expected, abs=1e-8)

    # b has a negative entry, so Phi(T) = exp(delta_T - gamma_T) b does
    # too; that is not an ascent step and must not warn.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_terminal_condition_matrix(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((2, 2))
        a = m @ m.T + 0.5 * np.eye(2)
        b = np.array([1.0, -0.5])
        s = linear_schedule(beta0=-0.2, gamma1=0.5, delta_T=0.7, horizon_T=1.5)
        got = phi_vector(s, a, b, s.horizon_T)
        expected = math.exp(s.delta_T - s.gamma(s.horizon_T)) * b
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_path_stacks_pointwise(self):
        s = constant_schedule(delta_T=0.5, horizon_T=1.0)
        a = np.array([[1.0]])
        b = np.array([1.0])
        ts = np.array([0.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            path = phi_vector_path(s, a, b, ts)
        assert path.shape == (3, 1)
        for t, row in zip(ts, path):
            np.testing.assert_allclose(row, phi_vector(s, a, b, float(t)),
                                       atol=1e-12)

    @pytest.mark.parametrize("times", [[0.5, 0.2], [0.2, 2.0, 0.5],
                                       [0.0, math.nan, 0.5]],
                             ids=["unsorted", "past-T-inside", "nan"])
    def test_path_rejects_bad_times(self, times):
        s = constant_schedule(delta_T=2.0, horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_vector_path(s, np.array([[1.0]]), np.array([1.0]), times)

    def test_constant_schedule_closed_form_long_grid(self):
        # Symmetric A = V diag(lam) V': on a constant schedule
        # Phi(t) = exp(-gamma0) b' V diag(exp(delta_T + lam s)
        #          - w (exp(lam s) - 1) / lam) V' with s = T - t.
        a = np.array([[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]])
        b = np.array([1.0, 0.5, 0.25])
        alpha0, T, w = math.log(25.0), 20.0, 0.01
        s = constant_schedule(alpha0=alpha0, beta0=math.log(w) - alpha0,
                              horizon_T=T)
        ts = build_mesh(s, 500).times[:-1]
        lam, vecs = np.linalg.eigh(a)
        ls = np.outer(T - ts, lam)
        coeff = np.exp(ls) - w * np.expm1(ls) / lam
        expected = (coeff * (b @ vecs)) @ vecs.T
        np.testing.assert_allclose(phi_vector_path(s, a, b, ts), expected, rtol=1e-12)

    def test_rejects_indefinite_a(self):
        s = constant_schedule(horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_vector(s, np.array([[-1.0]]), np.array([1.0]), 0.5)
