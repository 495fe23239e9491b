"""Discrete update rules and the continuous flow they discretize.

All rules share the mirror-update skeleton

    X_{k+1} = grad_h*( grad_h(X_k) - <dual-space step> ),

and differ only in how the dual-space step is assembled from the noisy
gradient stream: a rescaled raw observation (mirror descent / SGD), a
Kalman-filtered latent state contracted with a vector learning rate
(Kalman gradient descent), or a steady-state filter recursion
(generalized / Polyak momentum).  No rule ever sees the true gradient;
optimizers consume only the observation stream g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bregman import MirrorMap, grad_dual
from .diagnostics import Trajectory, qv_accumulate
from .gradient_models import (
    FilterDivergenceError,
    MartingaleGradientModel,
    MartingaleStream,
    StateSpaceGradientModel,
    StateSpaceStream,
    _kalman_cov_step,
    _posterior_psd_prefix,
    kalman_mean_update,
    kalman_steady_gain,
)
from .schedules import Schedule, build_mesh, phi_scalar_path, phi_vector_path

__all__ = [
    "OptimizerSpec",
    "mirror_descent_step",
    "kalman_gd_step",
    "generalized_momentum_step",
    "fosp_flow_step",
    "nu_from_momentum",
    "momentum_from_nu",
    "run_optimizer",
    "run_ensemble",
    "OPTIMIZER_KINDS",
]

OPTIMIZER_KINDS = (
    "mirror_sgd",
    "kalman_gd",
    "generalized_momentum",
    "polyak_momentum",
    "fosp_continuous",
)
# Kinds whose dual-space step comes from a state-space filter.
_FILTERED_KINDS = ("kalman_gd", "generalized_momentum", "polyak_momentum")


def mirror_descent_step(mirror: MirrorMap, x: np.ndarray, g: np.ndarray,
                        phi: float) -> np.ndarray:
    """X' = grad_h*(grad_h(X) - phi g).  With the identity quadratic map
    this is exactly X - phi g."""
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    x_new = grad_dual(mirror, mirror.grad_h(x) - phi * np.asarray(g, dtype=float))
    mirror.check_domain(x_new)
    return x_new


def kalman_gd_step(mirror: MirrorMap, x: np.ndarray, y_hat: np.ndarray,
                   phi_vec: np.ndarray) -> np.ndarray:
    """Mirror update driven by the filtered latent state: the dual-space
    step is sum_j phi_j y_hat[:, j]."""
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    effective = y_hat @ np.atleast_1d(np.asarray(phi_vec, dtype=float))
    return mirror_descent_step(mirror, x, effective, 1.0)


def generalized_momentum_step(mirror: MirrorMap, x: np.ndarray, y_hat: np.ndarray,
                              g: np.ndarray, a_tilde: np.ndarray,
                              k_inf: np.ndarray, phi_vec: np.ndarray,
                              b_vec: Optional[np.ndarray] = None):
    """Steady-state filter recursion followed by the mirror update.

    y_hat' = y_hat A_til' + (g - y_hat A_til' b) k_inf' applied to every
    coordinate row (kalman_mean_update with the steady gain), then
    X' = kalman_gd_step(X, y_hat').  b_vec defaults to all-ones (the
    scalar reduction b = 1).
    """
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    k_inf = np.atleast_1d(np.asarray(k_inf, dtype=float))
    b_vec = np.ones(len(k_inf)) if b_vec is None else np.atleast_1d(np.asarray(b_vec, dtype=float))
    y_new = kalman_mean_update(y_hat, g, a_tilde, b_vec, k_inf)
    return kalman_gd_step(mirror, x, y_new, phi_vec), y_new


def fosp_flow_step(mirror: MirrorMap, x: np.ndarray, effective_term: np.ndarray,
                   alpha_t: float, dt: float) -> np.ndarray:
    """One explicit Euler step of the continuous optimizer flow
    dX = exp(alpha) (grad_h*(grad_h(X) - effective_term) - X) dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    target = grad_dual(mirror, mirror.grad_h(x) - np.asarray(effective_term, dtype=float))
    x_new = x + dt * math.exp(alpha_t) * (target - x)
    mirror.check_domain(x_new)
    return x_new


def nu_from_momentum(mirror: MirrorMap, x: np.ndarray, p: np.ndarray,
                     alpha_t: float, gamma_t: float) -> np.ndarray:
    """nu = exp(alpha) (grad_h*(grad_h(X) + exp(-gamma) p) - X), the
    velocity whose displaced point X + exp(-alpha) nu realizes p."""
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    target = grad_dual(mirror, mirror.grad_h(x) + math.exp(-gamma_t) * np.asarray(p, dtype=float))
    return math.exp(alpha_t) * (target - x)


def momentum_from_nu(mirror: MirrorMap, x: np.ndarray, nu: np.ndarray,
                     alpha_t: float, gamma_t: float) -> np.ndarray:
    """Inverse of nu_from_momentum:
    p = exp(gamma) (grad_h(X + exp(-alpha) nu) - grad_h(X))."""
    x = np.asarray(x, dtype=float)
    y = x + math.exp(-alpha_t) * np.asarray(nu, dtype=float)
    mirror.check_domain(y)
    return math.exp(gamma_t) * (mirror.grad_h(y) - mirror.grad_h(x))


@dataclass
class OptimizerSpec:
    """Which update rule to run, on which geometry, with which stream."""

    kind: str
    mirror: MirrorMap
    schedule: Schedule
    model: object = None                  # gradient model for synthetic mode
    mode: str = "synthetic"               # "synthetic" or "empirical"
    x0: Optional[np.ndarray] = None
    batch_m: Optional[int] = None         # mini-batch size (empirical mode)
    fosp_substeps: int = 4
    p0: Optional[np.ndarray] = None       # Kalman prior covariance

    def validate(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.mode not in ("synthetic", "empirical"):
            raise ValueError(f"unknown stream mode {self.mode!r}")
        if (self.kind in _FILTERED_KINDS
                and not isinstance(self.model, StateSpaceGradientModel)):
            raise ValueError(f"{self.kind} requires a StateSpaceGradientModel")
        if self.kind == "polyak_momentum" and self.model.dtilde != 1:
            raise ValueError("polyak_momentum is the dtilde = 1 special case")
        if self.mode == "synthetic" and self.kind in ("mirror_sgd", "fosp_continuous"):
            if not isinstance(self.model, (MartingaleGradientModel, StateSpaceGradientModel)):
                raise ValueError(f"synthetic {self.kind} requires a gradient model")
        if self.mode == "empirical" and self.batch_m is None:
            raise ValueError("empirical mode requires batch_m")
        if self.fosp_substeps < 1:
            raise ValueError(f"fosp_substeps must be >= 1, got {self.fosp_substeps}")
        if self.kind in ("generalized_momentum", "polyak_momentum"):
            s = self.schedule
            ts = np.linspace(s.t_min, s.horizon_T, 32)
            a0 = s.alpha(s.t_min)
            if any(abs(s.alpha(float(t)) - a0) > 1e-12 for t in ts):
                raise ValueError("momentum kinds need a constant-alpha schedule")

    def default_x0(self, d: int) -> np.ndarray:
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        if self.mirror.name == "entropy":
            return np.ones(d)
        return np.zeros(d)


def _mesh_times(schedule: Schedule, steps: int) -> np.ndarray:
    """Times t_0 .. t_K of a K-step mesh; ValueError past the horizon."""
    times = build_mesh(schedule, max(steps, 1)).times[: steps + 1]
    if times[-1] > schedule.horizon_T + 1e-9:
        raise ValueError(
            f"mesh reaches t = {times[-1]:.6g}, past the schedule horizon "
            f"T = {schedule.horizon_T:.6g}; reduce steps or extend the horizon"
        )
    return times


def run_optimizer(spec: OptimizerSpec, problem, steps: int, seed: int) -> Trajectory:
    """Run one seeded optimization: run_ensemble on the single seed."""
    return run_ensemble(spec, problem, steps, [seed])[0]


def run_ensemble(spec: OptimizerSpec, problem, steps: int, seeds) -> list[Trajectory]:
    """One seeded trajectory per seed.  The mesh, Phi, the factors of the
    quadratic-variation proxy and the filter gains do not depend on the
    seed and are computed once; each seed runs the step loop on its own
    harness RNG streams.  problem may be None in synthetic mode (the
    latent gradient model is not tied to a loss landscape; loss gaps are
    then NaN)."""
    spec.validate()
    schedule = spec.schedule
    times = _mesh_times(schedule, steps)
    d = problem.d if spec.mode == "empirical" else spec.model.d
    x0 = spec.default_x0(d)
    spec.mirror.check_domain(x0)

    if steps == 0:
        x_path = x0[None, :]
        return [Trajectory(times=times, x_path=x_path, nu_path=np.zeros((0, d)),
                           loss_gap=_loss_gaps(spec, problem, x_path),
                           qv_path=np.zeros(1), seed=seed) for seed in seeds]

    step_times, dts = times[:-1], np.diff(times)
    filtered = spec.kind in _FILTERED_KINDS
    phi = (phi_vector_path(schedule, spec.model.a_mat, spec.model.b_vec, step_times)
           if filtered else phi_scalar_path(schedule, step_times))
    filt = _filter_gains(spec, dts) if filtered else None
    coeff = _filter_coefficient(spec, problem)
    ts = step_times[:-1].tolist()            # _qv_path reads steps 0 .. K-2
    qv_factors = ([math.exp(schedule.alpha(t) + schedule.beta(t) + schedule.gamma(t))
                   for t in ts], [math.exp(-schedule.gamma(t)) for t in ts])

    trajectories = []
    for seed in seeds:
        x_path, g_stream, y_path, error = _run_steps(spec, problem, seed, x0, step_times,
                                                     dts, phi, coeff, filt)
        k = len(g_stream)
        trajectories.append(Trajectory(
            times=times[: k + 1], x_path=x_path, nu_path=np.diff(x_path, axis=0) / dts[:k, None],
            loss_gap=_loss_gaps(spec, problem, x_path),
            qv_path=_qv_path(coeff, qv_factors, g_stream), g_path=g_stream,
            filter_mean_norm=None if y_path is None else np.linalg.norm(
                y_path.reshape(k + 1, -1), axis=1),
            phi_path=phi[:k], seed=seed, error=error))
    return trajectories


def _loss_gaps(spec: OptimizerSpec, problem, x_path: np.ndarray) -> np.ndarray:
    """f(X_k) - f(x*) for every kept iterate, in one stacked pass."""
    if spec.mode == "empirical" and problem is not None:
        return problem.loss_gap(x_path)
    return np.full(len(x_path), np.nan)


def _filter_coefficient(spec: OptimizerSpec, problem) -> float:
    """Rescaling applied to raw observations before the mirror update."""
    if isinstance(spec.model, MartingaleGradientModel):
        return spec.model.filter_coefficient
    if spec.mode == "empirical":
        return spec.batch_m / problem.n
    return 1.0


def _filter_gains(spec: OptimizerSpec, dts: np.ndarray):
    """Seed-independent filter inputs: A_til = I - dt A per step, the gain
    of each step and the error that cut the gains short (else None).
    kalman_gd runs the covariance recursion once and checks its K
    posteriors with one stacked eigvalsh; the gains stop at the first
    failing step, and a PSD failure before a non-positive innovation
    variance wins.  The momentum kinds use the steady gain on every step."""
    model = spec.model
    a_tils = np.eye(model.dtilde) - dts[:, None, None] * model.a_mat
    if spec.kind != "kalman_gd":
        # Momentum kinds need a constant-alpha schedule, so dt is
        # constant and one steady gain serves every step.
        dt0 = float(dts[0])
        try:
            gain = kalman_steady_gain(a_tils[0], dt0 * model.l_mat, model.b_vec,
                                      model.sigma * dt0)
        except FilterDivergenceError as exc:
            return a_tils, [], exc
        return a_tils, [gain] * len(dts), None

    p_post = np.atleast_2d(np.asarray(
        spec.p0 if spec.p0 is not None else model.stationary_covariance(), dtype=float))
    p_posts = np.empty((len(dts), model.dtilde, model.dtilde))
    gains, error = [], None
    try:
        for a_til, dt in zip(a_tils, dts.tolist()):
            l_til = dt * model.l_mat
            _, gain, _, p_post = _kalman_cov_step(p_post, a_til, l_til @ l_til.T,
                                                  model.b_vec, model.sigma * dt)
            p_posts[len(gains)] = p_post
            gains.append(gain)
    except FilterDivergenceError as exc:
        error = exc
    k, psd_error = _posterior_psd_prefix(p_posts[:len(gains)])
    return a_tils, gains[:k], psd_error if psd_error is not None else error


def _run_steps(spec, problem, seed, x0, step_times, dts, phi, coeff, filt):
    """The step loop of every kind and stream mode: observe g, filter it
    with the gains in filt (filtered kinds), apply the kind's update rule.
    Returns (x_path, g_stream, y_path, error), y_path being the
    (K+1, d, dtilde) filter means of the filtered kinds and None
    otherwise.  When step k fails, the paths stop at X_k and error names
    the step and the exception; a gain sequence cut short fails its step
    after the observation."""
    from .harness.rng import component_rng

    mirror, model = spec.mirror, spec.model
    k_steps, d = len(dts), len(x0)
    x_path = np.empty((k_steps + 1, d))
    g_stream = np.empty((k_steps, d))
    x_path[0] = x = x0
    y_path = None
    if filt is not None:
        a_tils, gains, gain_error = filt
        y_path = np.zeros((k_steps + 1, d, model.dtilde))
        y_hat = y_path[0]
    k = 0
    try:
        if spec.mode == "synthetic":
            stream_type = (MartingaleStream if isinstance(model, MartingaleGradientModel)
                           else StateSpaceStream)
            stream = stream_type(model, component_rng(seed, "stream"))
            observe = lambda x, dt: stream.step(dt)[1]
        else:
            rng = component_rng(seed, "batch")
            observe = lambda x, dt: problem.minibatch_gradient(x, spec.batch_m, rng)

        for k in range(k_steps):
            dt = float(dts[k])
            g = g_stream[k] = observe(x, dt)
            if spec.kind == "mirror_sgd":
                x = mirror_descent_step(mirror, x, coeff * g, float(phi[k]))
            elif spec.kind == "fosp_continuous":
                # The observation is frozen over fosp_substeps Euler steps.
                effective = float(phi[k]) * coeff * g
                alpha_t = spec.schedule.alpha(float(step_times[k]))
                for _ in range(spec.fosp_substeps):
                    x = fosp_flow_step(mirror, x, effective, alpha_t,
                                       dt / spec.fosp_substeps)
            else:
                if k == len(gains):
                    raise gain_error
                y_hat = y_path[k + 1] = kalman_mean_update(y_hat, g, a_tils[k],
                                                           model.b_vec, gains[k])
                x = kalman_gd_step(mirror, x, y_hat, phi[k])
            x_path[k + 1] = x
    except Exception as exc:
        return (x_path[:k + 1], g_stream[:k],
                None if y_path is None else y_path[:k + 1],
                f"{type(exc).__name__} at step {k}: {exc}")
    return x_path, g_stream, y_path, None


def _qv_path(coeff, qv_factors, g_stream):
    """Accumulated quadratic variation of the exp(-gamma)-scaled
    martingale proxy built from increments of the observed stream;
    qv_factors holds exp(alpha + beta + gamma) and exp(-gamma) per step."""
    weights, decays = qv_factors
    qv = np.zeros(len(g_stream) + 1)
    for k in range(1, len(g_stream)):
        scaled = decays[k - 1] * (-coeff * weights[k - 1] * (g_stream[k] - g_stream[k - 1]))
        qv[k] = qv_accumulate(qv[k - 1], scaled, scaled)
    qv[len(g_stream)] = qv[max(len(g_stream) - 1, 0)]
    return qv
