"""Built-in invariant suite behind the `varopt selftest` subcommand.

A fast subset of the full test suite: one check per core invariant,
printing a pass/fail line each.  Returns True when every check passes.
"""

from __future__ import annotations

import math

import numpy as np

from ..bregman import divergence, dual_divergence_check, entropy_map, grad_dual, quadratic_map
from ..gradient_models import (
    MartingaleGradientModel,
    initial_kalman_state,
    kalman_discrete_step,
    kalman_steady_gain,
)
from ..optimizers import mirror_descent_step
from ..schedules import build_mesh, linear_schedule, matrix_exp, phi_scalar_path
from .problems import generate_problem


def _checks():
    rng = np.random.default_rng(20240817)

    def mirror_round_trip():
        for mirror, xs in ((quadratic_map(), rng.uniform(-10, 10, (100, 4))),
                           (entropy_map(), rng.uniform(0.05, 20.0, (100, 4)))):
            err = np.linalg.norm(grad_dual(mirror, mirror.grad_h(xs)) - xs, axis=-1)
            if np.any(err > 1e-8 * (1 + np.linalg.norm(xs, axis=-1))):
                return False
        return True

    def divergence_identity():
        mirror = quadratic_map()
        return abs(divergence(mirror, np.array([3.0, 4.0]), np.zeros(2)) - 12.5) < 1e-12

    def duality():
        mirror = entropy_map()
        return dual_divergence_check(mirror, np.array([1.0, 2.0]),
                                     np.array([2.0, 1.0])) <= 1e-8

    def sgd_reduction():
        mirror = quadratic_map()
        x = rng.standard_normal(6)
        g = rng.standard_normal(6)
        stepped = mirror_descent_step(mirror, x, g, 0.37)
        return np.max(np.abs(stepped - (x - 0.37 * g))) <= 1e-12

    def martingale_coefficient():
        # The Bayes rescaling 1 / (1 + rho^2) is m / n.
        model = MartingaleGradientModel(sigma=1.0, n=100, m=10, d=3)
        return abs(model.filter_coefficient * (1.0 + model.rho2) - 1.0) <= 1e-12

    def kalman_hand_recursion():
        state = initial_kalman_state(1, 1, p0=np.zeros((1, 1)))
        state = kalman_discrete_step(state, np.array([1.0]), np.eye(1),
                                     np.eye(1), np.ones(1), 1.0)
        return (abs(state.s_innov - 2.0) < 1e-14
                and abs(state.gain[0] - 0.5) < 1e-14
                and abs(state.y_hat[0, 0] - 0.5) < 1e-14)

    def steady_gain_values():
        k1 = kalman_steady_gain(np.zeros((1, 1)), np.eye(1), np.ones(1), 1.0)
        k2 = kalman_steady_gain(np.eye(1), np.eye(1), np.ones(1), 1.0)
        return (abs(k1[0] - 0.5) < 1e-9
                and abs(k2[0] - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-9)

    def mesh_recursion():
        # The README schedule: alpha is constant, so build_mesh takes one
        # cumulative sum, which must be the recursion's times bit for bit.
        sched = linear_schedule(alpha0=math.log(10.0), beta0=-math.log(2.0), gamma1=10.0,
                                horizon_T=2.0)
        times = [0.0]
        for _ in range(20):
            times.append(times[-1] + math.exp(-sched.alpha(times[-1])))
        return np.array_equal(build_mesh(sched, 20).times, times)

    def phi_terminal():
        sched = linear_schedule(beta1=1.0, delta_T=1.0, horizon_T=1.0)
        return abs(phi_scalar_path(sched, [1.0])[0] - math.e) < 1e-9

    def matrix_exp_inverse():
        m = rng.standard_normal((4, 4))
        m *= 1.5 / np.linalg.norm(m, 2)
        prod = matrix_exp(m) @ matrix_exp(-m)
        return np.max(np.abs(prod - np.eye(4))) < 1e-9

    def logistic_reference_solve():
        # n // 8 = 1024 rows, one chunk: the solve starts from the solution
        # on those rows and ends with a step that takes x* to rounding.
        problem = generate_problem("logistic", d=4, n=8192, rng=rng)
        return np.linalg.norm(problem.full_gradient(problem.x_star)) <= 1e-14

    return [
        ("mirror round trip", mirror_round_trip),
        ("divergence closed form", divergence_identity),
        ("bregman duality identity", duality),
        ("sgd reduction", sgd_reduction),
        ("martingale filter coefficient", martingale_coefficient),
        ("kalman hand recursion", kalman_hand_recursion),
        ("steady-state gains", steady_gain_values),
        ("mesh recursion", mesh_recursion),
        ("phi terminal condition", phi_terminal),
        ("matrix exponential inverse", matrix_exp_inverse),
        ("logistic reference solve", logistic_reference_solve),
    ]


def run_selftest() -> bool:
    ok = True
    for name, check in _checks():
        try:
            passed = bool(check())
        except Exception as exc:
            passed = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return ok
