"""Schedules, meshes, quadrature and the learning-rate paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varopt import (
    Mesh,
    NumericalError,
    Schedule,
    build_mesh,
    check_scaling,
    constant_schedule,
    linear_schedule,
    matrix_exp,
    polynomial_schedule,
)
from varopt import schedules as schedules_module
from varopt.schedules import integrate_intervals, phi_scalar_path, phi_vector_path

import oracles
from shared_oracles import fine_simpson


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

    # With or without its closed-form derivatives, a violating schedule
    # keeps its residual.
    def test_violating_schedule_flagged(self):
        s = linear_schedule(alpha0=0.0, gamma1=2.0, horizon_T=1.0)
        for report in (check_scaling(s), check_scaling(_hint_free(s))):
            assert not report.passed
            assert report.max_gamma_residual == pytest.approx(1.0, abs=1e-9)

    def test_beta_excess_flagged(self):
        s = linear_schedule(alpha0=0.0, gamma1=1.0, beta1=1.5, horizon_T=1.0)
        for report in (check_scaling(s), check_scaling(_hint_free(s))):
            assert not report.passed
            assert report.max_beta_excess == pytest.approx(0.5, abs=1e-9)

    # Strip the closed-form derivatives of a family that scales exactly:
    # the numerical check must agree, at the ends of its grid too.
    @pytest.mark.parametrize("make", [
        lambda: linear_schedule(alpha0=0.1, gamma1=math.exp(0.1), horizon_T=2.0),
        lambda: _FAMILIES["polynomial"](),
        lambda: polynomial_schedule(p=2.0, c=1.0, horizon_T=3.0, t_min=0.2),
    ], ids=["linear", "polynomial", "polynomial-p2"])
    def test_finite_difference_fallback(self, make):
        assert check_scaling(_hint_free(make())).passed


def _hint_free(s):
    """s without its closed-form beta_dot and gamma_dot."""
    return dataclasses.replace(s, beta_dot=None, gamma_dot=None)


class TestMesh:
    def test_constant_alpha_uniform_steps(self):
        s = constant_schedule(alpha0=math.log(2.0), horizon_T=5.0)
        mesh = build_mesh(s, 4)
        np.testing.assert_allclose(mesh.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(np.diff(mesh.times), 0.5)

    def test_recursion_matches_alpha(self):
        s = linear_schedule(alpha0=0.2, alpha1=0.3, horizon_T=10.0)
        mesh = build_mesh(s, 20)
        for k in range(20):
            expected = math.exp(-s.alpha(mesh.times[k]))
            assert mesh.times[k + 1] - mesh.times[k] == pytest.approx(expected)

    def test_polynomial_starts_at_t_min(self):
        s = polynomial_schedule(p=2.0, t_min=0.5, horizon_T=4.0)
        assert build_mesh(s, 3).times[0] == 0.5

    def test_overflowing_step_is_a_non_finite_time(self):
        # alpha = 1 - 0.2 t turns negative and exp(-alpha) overflows a float.
        s = linear_schedule(alpha0=1.0, alpha1=-0.2, horizon_T=3.0)
        with pytest.raises(ValueError, match="non-finite time"):
            build_mesh(s, 40)

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ValueError):
            Mesh(times=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            build_mesh(constant_schedule(), 0)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, math.inf],
                                       [-math.inf, 0.0], [math.nan]])
    def test_non_finite_mesh_rejected(self, times):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Mesh(times=times)

    @staticmethod
    def _scalar_mesh(s, steps):
        """The recursion, one float step at a time; None once a time is
        not finite."""
        t = s.t_min
        times = [t]
        for _ in range(steps):
            try:
                t += math.exp(-s.alpha(t))
            except OverflowError:
                t = math.inf
            if not math.isfinite(t):
                return None
            times.append(t)
        return np.array(times)

    _T = 20.0
    _BIT_SCHEDULES = {
        # The three benchmark workloads' schedules.
        "kalman": constant_schedule(alpha0=math.log(25.0), beta0=math.log(0.0004),
                                    horizon_T=_T),
        "logistic": constant_schedule(alpha0=math.log(100.0), horizon_T=0.5),
        "ensemble": linear_schedule(alpha0=math.log(10.0), beta0=-math.log(2.0),
                                    gamma1=10.0, horizon_T=2.0),
        "linear_alpha1": linear_schedule(alpha0=0.2, alpha1=0.3, horizon_T=_T),
        # t_{k+1} = 1.5 t_k: the longest mesh overflows on both routes.
        "polynomial": polynomial_schedule(t_min=0.1, horizon_T=_T),
        "custom_constant": Schedule(alpha=lambda t: 1.7 + 0.0 * t, beta=lambda t: 0.0 * t,
                                    gamma=lambda t: 0.0 * t, delta_T=0.0, horizon_T=_T),
        # Constant on the horizon [0, 1] only; 500 steps of exp(-3) pass it.
        "constant_to_T": Schedule(alpha=lambda t: np.where(t <= 1.0, 3.0, 4.0),
                                  beta=lambda t: 0.0 * t, gamma=lambda t: 0.0 * t,
                                  delta_T=0.0, horizon_T=1.0),
    }

    @pytest.mark.parametrize("steps", [1, 20, 500, 100000])
    @pytest.mark.parametrize("name", list(_BIT_SCHEDULES))
    def test_mesh_is_the_scalar_recursion_bit_for_bit(self, name, steps):
        s = self._BIT_SCHEDULES[name]
        expected = self._scalar_mesh(s, steps)
        if expected is None:
            with pytest.raises(ValueError, match="non-finite time"):
                build_mesh(s, steps)
        else:
            np.testing.assert_array_equal(build_mesh(s, steps).times, expected)

    @pytest.mark.parametrize("alpha1", [0.0, 1e-3])
    def test_both_routes_refuse_a_step_that_overflows_or_vanishes(self, alpha1):
        # alpha1 = 0 takes the cumulative sum, alpha1 != 0 the recursion.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite time"):
                build_mesh(linear_schedule(alpha0=-800.0, alpha1=alpha1), 5)
            with pytest.raises(ValueError, match="strictly increasing"):
                build_mesh(linear_schedule(alpha0=800.0, alpha1=alpha1), 5)


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
            float(fine_simpson(fn, a, b)), abs=1e-9)

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

    def test_overflow_is_a_numerical_error(self):
        # e^800 is past the float range: the second matrix of the stack is
        # named instead of returned as inf, after numpy's own warning.
        stack = np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 800.0]]])
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(NumericalError, match=r"overflows .* at stack index \(1,\)"):
            matrix_exp(stack)

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
            assert phi_scalar_path(s, [float(t)])[0] == pytest.approx(expected, abs=1e-9)

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
            assert phi_scalar_path(s, [s.horizon_T])[0] == pytest.approx(target, abs=1e-9)

    def test_path_matches_pointwise(self):
        s = linear_schedule(beta0=-0.5, gamma1=1.0, delta_T=3.0, horizon_T=3.0)
        ts = np.linspace(0.0, 3.0, 9)
        path = phi_scalar_path(s, ts)
        for t, val in zip(ts, path):
            assert val == pytest.approx(phi_scalar_path(s, [float(t)])[0], abs=1e-10)

    def test_negative_path_warns(self):
        # A tiny terminal weight with a heavy integral drives phi0 negative.
        s = constant_schedule(alpha0=1.5, beta0=1.5, delta_T=-3.0, horizon_T=4.0)
        with pytest.warns(RuntimeWarning):
            phi_scalar_path(s, np.array([0.0, 1.0]))

    def test_out_of_horizon_rejected(self):
        s = constant_schedule(horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_scalar_path(s, [2.0])

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
        # limit; use a tiny A and a loose tolerance.  Phi(0) is negative,
        # which both paths report.
        s = linear_schedule(beta0=-0.3, gamma1=0.8, delta_T=1.0, horizon_T=2.0)
        a = np.array([[1e-9]])
        b = np.array([1.0])
        with pytest.warns(RuntimeWarning, match="opposite sign"):
            for t in (0.0, 1.0, 2.0):
                vec = phi_vector_path(s, a, b, [t])[0]
                assert vec[0] == pytest.approx(phi_scalar_path(s, [t])[0], abs=1e-6)

    def test_scalar_case_independent_oracle(self):
        s = linear_schedule(beta0=-0.3, beta1=0.2, gamma0=0.1, gamma1=0.7,
                            delta_T=1.2, horizon_T=2.0)
        a_val, b_val = 0.8, 1.3
        w = lambda u: math.exp(s.alpha(u) + s.beta(u) + s.gamma(u))
        phi0 = math.exp(s.delta_T) * math.exp(a_val * s.horizon_T) - float(
            fine_simpson(lambda u: w(u) * math.exp(a_val * u), 0.0, s.horizon_T))
        for t in (0.0, 0.7, 1.4, 2.0):
            tail = float(fine_simpson(
                lambda u: w(u) * math.exp(-a_val * (t - u)), 0.0, t)) if t > 0 else 0.0
            expected = math.exp(-s.gamma(t)) * (
                b_val * math.exp(-a_val * t) * phi0 + b_val * tail)
            got = phi_vector_path(s, np.array([[a_val]]), np.array([b_val]), [t])[0]
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
        got = phi_vector_path(s, a, b, [s.horizon_T])[0]
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
            np.testing.assert_allclose(row, phi_vector_path(s, a, b, [float(t)])[0],
                                       atol=1e-12)

    @pytest.mark.parametrize("times", [[0.5, 0.2], [0.2, 2.0, 0.5],
                                       [0.0, math.nan, 0.5]],
                             ids=["unsorted", "past-T-inside", "nan"])
    def test_path_rejects_bad_times(self, times):
        s = constant_schedule(delta_T=2.0, horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_vector_path(s, np.array([[1.0]]), np.array([1.0]), times)

    def test_constant_schedule_closed_form_long_grid(self):
        # Symmetric A: the benchmark's closed form through eigh.
        a = np.array([[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]])
        b = np.array([1.0, 0.5, 0.25])
        alpha0, T = math.log(25.0), 20.0
        params = {"alpha0": alpha0, "beta0": math.log(0.01) - alpha0}
        s = constant_schedule(**params, horizon_T=T)
        ts = build_mesh(s, 500).times[:-1]
        expected = oracles.phi_constant_vector(params, 0.0, T, a, b, ts)
        np.testing.assert_allclose(phi_vector_path(s, a, b, ts), expected, rtol=1e-12)

    def test_rejects_indefinite_a(self):
        s = constant_schedule(horizon_T=1.0)
        with pytest.raises(ValueError):
            phi_vector_path(s, np.array([[-1.0]]), np.array([1.0]), [0.5])

    # Raw input: A = 0 and a non-finite A are refused too (the Cholesky
    # factor of a NaN or an infinite entry is NaN or inf, not an error).
    @pytest.mark.parametrize("a", [1e-9 * np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                   np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])],
                             ids=["tiny-indefinite", "zero", "nan", "inf"])
    def test_rejects_a_without_positive_definite_symmetric_part(self, a):
        s = constant_schedule(horizon_T=1.0)
        with pytest.raises(ValueError, match="A must be positive definite"):
            phi_vector_path(s, a, np.ones(2), [0.5])


def _without_weight_slope(s):
    """The same schedule functions in a plain Schedule, whose paths take
    their local integrals by quadrature."""
    return Schedule(alpha=s.alpha, beta=s.beta, gamma=s.gamma, delta_T=s.delta_T,
                    horizon_T=s.horizon_T)


def _path_rel_err(got, expected):
    return np.max(np.abs(got - expected).max(axis=1) / np.abs(expected).max(axis=1))


# Non-symmetric, with a positive definite symmetric part.
_A_NONSYM = np.array([[0.5, 0.3, 0.0], [-0.1, 0.4, 0.2], [0.05, -0.2, 0.6]])


class TestPropagator:
    def test_van_loan_matches_local_quadrature(self):
        # alpha1 != 0, so the mesh steps and the Van Loan intervals vary.
        s = linear_schedule(alpha0=1.0, alpha1=0.3, beta0=-0.5, beta1=0.2,
                            gamma0=0.1, gamma1=0.7, delta_T=4.0, horizon_T=3.0)
        assert s.weight_slope == pytest.approx(1.2)
        times = build_mesh(s, 12).times
        times = times[times < s.horizon_T]
        assert np.ptp(np.diff(times)) > 0.1
        b = np.array([1.0, 0.6, 0.3])
        got = phi_vector_path(s, _A_NONSYM, b, times)
        expected = phi_vector_path(_without_weight_slope(s), _A_NONSYM, b, times)
        assert _path_rel_err(got, expected) <= 1e-10

    @given(alpha0=st.floats(-1.0, 2.0), alpha1=st.floats(-0.5, 0.5),
           beta0=st.floats(-1.0, 1.0), beta1=st.floats(-1.0, 1.0),
           gamma0=st.floats(-1.0, 1.0), gamma1=st.floats(0.0, 3.0),
           horizon=st.floats(0.5, 4.0), steps=st.integers(1, 30),
           a_scale=st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_van_loan_matches_local_quadrature_random(self, alpha0, alpha1, beta0, beta1,
                                                      gamma0, gamma1, horizon, steps,
                                                      a_scale):
        # delta_T leaves exp(delta_T) at least twice the integral of the
        # weight, so no cancellation hides a difference of the two paths.
        kw = dict(alpha0=alpha0, alpha1=alpha1, beta0=beta0, beta1=beta1,
                  gamma0=gamma0, gamma1=gamma1, horizon_T=horizon)
        log_max_w = alpha0 + beta0 + gamma0 + max((alpha1 + beta1 + gamma1) * horizon, 0.0)
        s = linear_schedule(delta_T=log_max_w + math.log(2.0 * horizon) + 1.0, **kw)
        times = np.linspace(0.0, horizon, steps + 1)[:-1] ** 1.5 / horizon ** 0.5
        a, b = a_scale * _A_NONSYM, np.array([1.0, 0.6, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = phi_vector_path(s, a, b, times)
            expected = phi_vector_path(_without_weight_slope(s), a, b, times)
        assert _path_rel_err(got, expected) <= 1e-10

    @pytest.mark.parametrize("family", ["constant", "linear"])
    def test_linear_family_path_is_one_matrix_exp(self, family, monkeypatch):
        # One stacked exponential per path, of one matrix per distinct
        # interval width: rounding leaves 20 equal steps 6 distinct widths.
        calls = []
        original = schedules_module.matrix_exp

        def counting(m):
            calls.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(schedules_module, "matrix_exp", counting)
        s = _FAMILIES[family]()
        times = np.linspace(0.0, s.horizon_T, 20, endpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # delta_T = 0: Phi < 0
            phi_vector_path(s, _A_NONSYM, np.array([1.0, 0.6, 0.3]), times)
            phi_scalar_path(s, times)
        widths = len(np.unique(np.diff(np.append(times, s.horizon_T))))
        assert widths < 20
        assert calls == [(widths, 6, 6), (widths, 2, 2)]

    def test_interval_exponentials_are_the_per_interval_ones(self):
        # The kalman_synthetic mesh: 500 intervals of only 7 distinct widths.
        s = constant_schedule(alpha0=math.log(25.0), horizon_T=20.0)
        widths = np.diff(build_mesh(s, 500).times)
        assert len(np.unique(widths)) < 500
        for m in (_A_NONSYM, np.array([[0.0, 1.0], [0.0, -1.3]])):    # A; a scalar Van Loan block
            np.testing.assert_array_equal(schedules_module._interval_exps(widths, m),
                                          matrix_exp(widths[:, None, None] * m), strict=True)

    def test_interval_overflow_names_the_first_interval_of_its_width(self):
        # Distinct widths 0.1 and 10: exp(800) overflows at distinct index 1,
        # first reached by interval 3.
        widths = np.array([0.1, 0.1, 0.1, 10.0, 0.1, 10.0])
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(NumericalError, match=r"overflows .* at stack index \(3,\)"):
            schedules_module._interval_exps(widths, np.array([[80.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_quadrature_path_overflow_names_the_first_interval_of_its_width(self):
        # A polynomial schedule takes its propagators from _interval_exps
        # on the exact widths 1, 1, 1001: e^1001 overflows at distinct
        # width 1, first reached by interval 2.
        s = polynomial_schedule(p=2.0, c=1.0, t_min=0.5, horizon_T=1003.5, delta_T=25.0)
        with pytest.raises(NumericalError, match=r"overflows .* at stack index \(2,\)"):
            phi_vector_path(s, np.eye(1), np.ones(1), [0.5, 1.5, 2.5])


_FAMILIES = {
    "constant": lambda: constant_schedule(alpha0=0.3, beta0=-0.7, gamma0=1.1, horizon_T=3.0),
    "linear": lambda: linear_schedule(alpha0=0.2, alpha1=-0.1, beta0=-0.7, beta1=0.4,
                                      gamma0=0.5, gamma1=1.3, horizon_T=3.0),
    "polynomial": lambda: polynomial_schedule(p=2.5, c=0.7, horizon_T=3.0, t_min=0.2),
}


class TestArrayContract:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_array_call_is_the_pointwise_values(self, family):
        s = _FAMILIES[family]()
        ts = np.linspace(s.t_min, s.horizon_T, 257)
        for label in ("alpha", "beta", "gamma", "beta_dot", "gamma_dot"):
            fn = getattr(s, label)
            values = fn(ts)
            assert values.shape == ts.shape
            pointwise = np.array([fn(float(t)) for t in ts])
            np.testing.assert_array_equal(values, pointwise, err_msg=label)

    def _custom(self, **fns):
        base = linear_schedule(beta0=-0.7, gamma1=1.0, horizon_T=2.0)
        parts = {"alpha": base.alpha, "beta": base.beta, "gamma": base.gamma, **fns}
        return Schedule(delta_T=0.0, horizon_T=2.0, t_min=0.1, **parts)

    @pytest.mark.parametrize("label", ["alpha", "beta", "gamma", "beta_dot", "gamma_dot"])
    def test_scalar_for_an_array_is_refused(self, label):
        with pytest.raises(ValueError, match=f"schedule function {label} "):
            self._custom(**{label: lambda t: 0.5})

    def test_math_function_is_refused(self):
        with pytest.raises(ValueError, match="schedule function gamma "):
            self._custom(gamma=lambda t: math.log(t))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["delta_T", "horizon_T"])
    def test_non_finite_terminal_values_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            linear_schedule(**{field: value})

    # A mesh would start past the horizon or before time 0.
    @pytest.mark.parametrize("t_min", [5.0, -1.0, math.inf, math.nan])
    def test_t_min_outside_the_horizon_is_refused(self, t_min):
        base = linear_schedule(horizon_T=1.0)
        with pytest.raises(ValueError, match=r"^t_min must lie in \[0, horizon_T\)"):
            Schedule(alpha=base.alpha, beta=base.beta, gamma=base.gamma, delta_T=0.0,
                     horizon_T=1.0, t_min=t_min)

    def test_non_finite_values_are_refused(self):
        with pytest.raises(ValueError, match="schedule function beta "):
            self._custom(beta=lambda t: np.where(t > 1.0, np.inf, 0.0))

    def test_overflowing_weight_raises(self):
        # w = exp(gamma_t) overflows near T; np.exp alone would return inf.
        s = linear_schedule(gamma1=400.0, delta_T=1.0, horizon_T=2.0)
        with pytest.raises(ArithmeticError):
            phi_scalar_path(s, [0.0, 1.0, 2.0])
        with pytest.raises(ArithmeticError):
            check_scaling(linear_schedule(alpha1=800.0, horizon_T=1.0))
