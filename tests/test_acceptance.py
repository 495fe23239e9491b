"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line for its criterion before
asserting, so a full run yields a compact scoreboard.
"""

import math
import os

import numpy as np
import pytest

from varopt import (
    OptimizerSpec,
    constant_schedule,
    energy_path,
    entropy_map,
    generalized_momentum_step,
    grad_dual,
    hamiltonian,
    kalman_discrete_step,
    kalman_steady_gain,
    lagrangian,
    linear_schedule,
    mirror_descent_step,
    nu_from_momentum,
    phi_scalar_path,
    phi_vector_path,
    quadratic_map,
    run_ensemble,
)
from varopt.gradient_models import initial_kalman_state
from varopt.harness import (
    build_experiment,
    component_rng,
    generate_problem,
    parse_config_text,
    run_experiment,
)
from varopt.schedules import integrate_intervals

import oracles
from shared_oracles import conditioning_oracle, fine_simpson, scaling_linear


def _verdict(label, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] {label}")
    assert passed, label


ENSEMBLE_CONFIG = """
problem.kind = quadratic
problem.d = 3
problem.N = 200
map.name = quadratic
schedule.family = linear
schedule.params = {"alpha0": 2.302585092994046, "beta0": -0.6931471805599453, "gamma1": 10.0}
schedule.delta_T = 19.306852819440055
schedule.T = 2.0
mesh.steps = 20
model.kind = martingale
model.sigma = 0.5
model.n = 200
model.m = 50
optimizer.kind = mirror_sgd
optimizer.mode = empirical
"""


@pytest.fixture(scope="module")
def noisy_ensemble():
    """200-seed mini-batch SGD ensemble on a scaling schedule."""
    raw = parse_config_text(ENSEMBLE_CONFIG)
    raw["seeds"] = list(range(200))
    return run_experiment(build_experiment(raw), write=False)


def test_criterion_01_mirror_round_trip():
    rng = np.random.default_rng(10)
    ok = True
    for mirror in (quadratic_map(),
                   quadratic_map(m_diag=rng.uniform(0.5, 3.0, 4)),
                   entropy_map()):
        for _ in range(1000):
            x = rng.uniform(0.1, 10.0, 4) if mirror.name == "entropy" \
                else rng.standard_normal(4) * 3.0
            back = grad_dual(mirror, mirror.grad_h(x))
            ok &= bool(np.linalg.norm(back - x)
                       <= 1e-8 * (1.0 + np.linalg.norm(x)))
    _verdict("criterion 1: mirror-map round trip within 1e-8", ok)


def test_criterion_02_sgd_reduction():
    mirror = quadratic_map()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        x = rng.standard_normal(5)
        g = rng.standard_normal(5)
        phi = rng.uniform(-1.0, 2.0)
        step = mirror_descent_step(mirror, x, g, phi)
        ok &= bool(np.max(np.abs(step - (x - phi * g))) <= 1e-12)
    _verdict("criterion 2: identity-map mirror step equals plain SGD "
             "within 1e-12", ok)


def test_criterion_03_kalman_vs_gaussian_conditioning():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(50):
        dtilde = int(rng.integers(1, 4))
        m = rng.standard_normal((dtilde, dtilde))
        a = m @ m.T + np.eye(dtilde)
        a_til = np.eye(dtilde) - 0.1 * a
        l_til = 0.1 * (np.eye(dtilde) + 0.2 * np.diag(rng.uniform(0, 1, dtilde)))
        b = rng.standard_normal(dtilde)
        sigma_d = 0.05 + 0.2 * rng.uniform()
        p0 = np.eye(dtilde)
        k_steps = int(rng.integers(1, 11))
        g_obs = rng.standard_normal(k_steps)
        state = initial_kalman_state(1, dtilde, p0)
        for g in g_obs:
            state = kalman_discrete_step(state, np.array([g]), a_til, l_til,
                                         b, sigma_d)
            ok &= bool(np.max(np.abs(state.p_post - state.p_post.T)) <= 1e-12)
            ok &= bool(np.linalg.eigvalsh(state.p_post).min() >= -1e-10)
        mean, _ = conditioning_oracle(a_til, l_til, b, sigma_d, p0, g_obs)
        ok &= bool(np.max(np.abs(state.y_hat[0] - mean)) <= 1e-8)
    _verdict("criterion 3: discrete Kalman filter matches brute-force "
             "Gaussian conditioning within 1e-8", ok)


def test_criterion_04_steady_gain():
    ok = True
    # Closed-form scalar cases.
    g1 = kalman_steady_gain(np.array([[0.0]]), np.array([[1.0]]),
                            np.array([1.0]), 1.0)
    ok &= bool(abs(g1[0] - 0.5) <= 1e-9)
    # Root of p^2 = 1 + p, gain p / (1 + p).
    p_root = (1.0 + math.sqrt(5.0)) / 2.0
    g2 = kalman_steady_gain(np.array([[1.0]]), np.array([[1.0]]),
                            np.array([1.0]), 1.0)
    ok &= bool(abs(g2[0] - p_root / (1.0 + p_root)) <= 1e-9)
    # Discrete gains converge to the steady gain.
    rng = np.random.default_rng(13)
    for dtilde in (1, 2, 3):
        m = rng.standard_normal((dtilde, dtilde))
        a_til = np.eye(dtilde) - 0.1 * (m @ m.T + np.eye(dtilde))
        l_til = 0.1 * np.eye(dtilde)
        b = rng.standard_normal(dtilde)
        k_inf = kalman_steady_gain(a_til, l_til, b, 0.3)
        state = initial_kalman_state(1, dtilde)
        for _ in range(3000):
            state = kalman_discrete_step(state, np.zeros(1), a_til, l_til,
                                         b, 0.3)
        ok &= bool(np.max(np.abs(state.gain - k_inf)) <= 1e-6)
    _verdict("criterion 4: steady-state Kalman gains (closed forms 1e-9, "
             "convergence 1e-6)", ok)


def test_criterion_05_riccati_equilibrium(riccati_equilibrium_state):
    err = abs(riccati_equilibrium_state.p_post[0, 0] - (math.sqrt(2.0) - 1.0))
    _verdict(f"criterion 5: Kalman-Bucy Riccati equilibrium sqrt(2)-1 "
             f"(|err| = {err:.2e} <= 1e-4)", err <= 1e-4)


def test_criterion_06_momentum_recovery():
    mirror = quadratic_map()
    rng = np.random.default_rng(14)
    a_til = np.array([[0.85]])
    k_inf = kalman_steady_gain(a_til, np.array([[0.3]]), np.array([1.0]), 0.5)
    p1 = float(a_til[0, 0] - k_inf[0] * a_til[0, 0])
    p2 = float(k_inf[0])
    x = rng.standard_normal(2)
    y = np.zeros((2, 1))
    x_ref = x.copy()
    y_ref = np.zeros(2)
    ok = True
    for _ in range(1000):
        g = rng.standard_normal(2)
        phi = np.array([rng.uniform(0.0, 0.4)])
        x, y = generalized_momentum_step(mirror, x, y, g, a_til, k_inf, phi, np.ones(1))
        y_ref = p1 * y_ref + p2 * g
        x_ref = x_ref - phi[0] * y_ref
        ok &= bool(np.max(np.abs(x - x_ref)) <= 1e-12)
        ok &= bool(np.max(np.abs(y[:, 0] - y_ref)) <= 1e-12)
    _verdict("criterion 6: generalized momentum reproduces the two-"
             "coefficient recursion within 1e-12", ok)


def test_criterion_07_learning_rate_paths():
    ok = True
    rng = np.random.default_rng(15)
    # Terminal condition on 20 random schedules.
    for _ in range(20):
        s = linear_schedule(
            alpha0=rng.uniform(-1, 1), alpha1=rng.uniform(-0.3, 0.3),
            beta0=rng.uniform(-1, 1), beta1=rng.uniform(-0.5, 0.5),
            gamma0=rng.uniform(-1, 1), gamma1=rng.uniform(-0.5, 0.5),
            delta_T=rng.uniform(-1, 2), horizon_T=rng.uniform(0.5, 4.0),
        )
        target = math.exp(s.delta_T - s.gamma(s.horizon_T))
        ok &= bool(abs(phi_scalar_path(s, [s.horizon_T])[0] - target) <= 1e-9)
    # Constant-schedule closed form.
    params, dT, T = {"alpha0": 0.3, "beta0": -0.2, "gamma0": 0.1}, 1.0, 2.5
    s = constant_schedule(**params, delta_T=dT, horizon_T=T)
    ts = np.linspace(0.0, T, 6)
    # Phi(0) = exp(-g0) (e - 2.5 w0) is negative, which phi_scalar_path reports.
    with pytest.warns(RuntimeWarning, match="opposite sign"):
        for t, expected in zip(ts, oracles.phi_constant_scalar(params, dT, T, ts)):
            ok &= bool(abs(phi_scalar_path(s, [float(t)])[0] - expected) <= 1e-9)
    # Vector path vs an independent fixed-grid quadrature oracle.
    s = linear_schedule(beta0=-0.3, beta1=0.2, gamma0=0.1, gamma1=0.7,
                        delta_T=1.2, horizon_T=2.0)
    a_val, b_val = 0.8, 1.3
    w = lambda u: math.exp(s.alpha(u) + s.beta(u) + s.gamma(u))
    phi0 = math.exp(s.delta_T) * math.exp(a_val * s.horizon_T) - float(
        fine_simpson(lambda u: w(u) * math.exp(a_val * u), 0.0, s.horizon_T))
    for t in (0.0, 0.8, 1.6, 2.0):
        tail = float(fine_simpson(
            lambda u: w(u) * math.exp(-a_val * (t - u)), 0.0, t)) if t > 0 else 0.0
        expected = math.exp(-s.gamma(t)) * (
            b_val * math.exp(-a_val * t) * phi0 + b_val * tail)
        got = phi_vector_path(s, np.array([[a_val]]), np.array([b_val]), [t])[0]
        ok &= bool(abs(got[0] - expected) <= 1e-8)
    _verdict("criterion 7: learning-rate paths (terminal 1e-9, closed form "
             "1e-9, vector oracle 1e-8)", ok)


def test_criterion_08_energy_supermartingale(noisy_ensemble):
    # Noiseless full-batch run: pathwise monotone energy.
    steps = 15
    problem = generate_problem("quadratic", d=3, n=30,
                               rng=component_rng(0, "problem"))
    spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                         schedule=scaling_linear(steps=steps),
                         mode="empirical", batch_m=30)
    traj = run_ensemble(spec, problem, steps, [0])[0]
    e = energy_path(spec.mirror, spec.schedule, [traj], problem.x_star)[0][0]
    noiseless_ok = bool(np.all(np.diff(e) <= 1e-9))
    # 200-seed ensemble: mean energy non-increasing within 2 SE.
    noisy_ok = bool(noisy_ensemble.supermartingale.passed
                    and noisy_ensemble.supermartingale.n_seeds == 200)
    _verdict("criterion 8: energy supermartingale (noiseless monotone 1e-9, "
             "200-seed ensemble within 2 SE)", noiseless_ok and noisy_ok)


def test_criterion_09_rate_bound(noisy_ensemble):
    # Noiseless run with growing beta: the gap decays at least like
    # exp(-beta) with one constant fitted at the burn-in point.
    alpha0 = math.log(10.0)
    beta0, beta1, gamma1, T = math.log(0.25), 1.0, 10.0, 2.0
    w = lambda u: np.exp(alpha0 + beta0 + beta1 * u + gamma1 * u)
    delta_T = math.log(float(integrate_intervals(w, [0.0, T])[0]))
    s = linear_schedule(alpha0=alpha0, beta0=beta0, beta1=beta1,
                        gamma1=gamma1, delta_T=delta_T, horizon_T=T)
    problem = generate_problem("quadratic", d=3, n=50,
                               rng=component_rng(0, "problem"))
    spec = OptimizerSpec(kind="mirror_sgd", mirror=quadratic_map(),
                         schedule=s, mode="empirical", batch_m=50,
                         x0=np.array([2.0, -1.0, 1.5]))
    traj = run_ensemble(spec, problem, 20, [0])[0]
    beta = np.array([s.beta(t) for t in traj.times])
    ratio = traj.loss_gap * np.exp(beta)
    burn = traj.times >= 0.1 * T
    r = ratio[burn]
    fitted_c = r[0]
    noiseless_ok = bool(traj.error is None and fitted_c > 0
                        and np.all(r <= fitted_c * (1.0 + 1e-9) + 1e-12))
    # Noisy ensemble: the mean gap stays below the supermartingale bound
    # exp(-beta) (mean energy_0 + mean bracket) at every time.
    noisy_ok = bool(noisy_ensemble.rate_bound.passed)
    _verdict("criterion 9: rate bound (noiseless fitted constant, ensemble "
             "mean gap within the energy bound)", noiseless_ok and noisy_ok)


def test_criterion_10_legendre_identity():
    rng = np.random.default_rng(16)
    s = linear_schedule(alpha0=0.1, beta0=-0.3, gamma1=0.6, delta_T=0.5,
                        horizon_T=2.0)
    ok = True
    for mirror in (quadratic_map(), entropy_map()):
        for _ in range(500):
            x = rng.uniform(0.5, 3.0, 3) if mirror.name == "entropy" \
                else rng.standard_normal(3)
            p = rng.standard_normal(3) * 0.5
            t = rng.uniform(0.0, 2.0)
            f_val = rng.uniform(0.0, 2.0)
            nu = nu_from_momentum(mirror, x, p, s.alpha(t), s.gamma(t))
            h_val = hamiltonian(mirror, f_val, s, t, x, p)
            l_val = lagrangian(mirror, f_val, s, t, x, nu)
            ok &= bool(abs(h_val + l_val - float(p @ nu)) <= 1e-8)
    _verdict("criterion 10: Legendre identity H + L = <p, nu*> within 1e-8",
             ok)


def test_criterion_11_minibatch_statistics():
    problem = generate_problem("quadratic", d=3, n=40,
                               rng=component_rng(5, "problem"))
    rng = component_rng(5, "batch")
    m = 8
    ok = True
    for x in component_rng(6, "problem").standard_normal((5, 3)):
        draws = np.stack([problem.minibatch_gradients(x[None], m, [rng])[0]
                          for _ in range(10_000)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        ok &= bool(np.all(np.abs(mean - problem.full_gradient(x)) <= 3.0 * se))
    # Finite-population covariance trace within 10%.
    x = np.array([0.5, -0.5, 1.0])
    draws = np.stack([problem.minibatch_gradients(x[None], m, [rng])[0]
                      for _ in range(10_000)])
    trace = float(np.sum(draws.var(axis=0, ddof=1)))
    grads = problem.per_sample_gradients(x)
    s2 = float(np.sum((grads - grads.mean(axis=0)) ** 2)) / (problem.n - 1)
    expected = s2 / m * (problem.n - m) / problem.n
    ok &= bool(abs(trace - expected) <= 0.1 * expected)
    _verdict("criterion 11: mini-batch unbiasedness (3 SE) and finite-"
             "population variance factor (10%)", ok)


def test_criterion_12_byte_determinism(tmp_path):
    raw_text = ENSEMBLE_CONFIG + "seeds = [0, 1]\n"
    contents = []
    for sub in ("first", "second"):
        raw = parse_config_text(raw_text + f"output = {tmp_path}/{sub}\n")
        art = run_experiment(build_experiment(raw))
        contents.append({os.path.basename(p): open(p, "rb").read()
                         for p in art.files})
    _verdict("criterion 12: repeated runs produce byte-identical artifacts",
             contents[0] == contents[1])
