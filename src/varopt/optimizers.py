"""Discrete update rules and the continuous flow they discretize.

All rules share the mirror-update skeleton

    X_{k+1} = grad_h*( grad_h(X_k) - <dual-space step> ),

and differ only in how the dual-space step is assembled from the noisy
gradient stream: a rescaled raw observation (mirror descent / SGD), a
Kalman-filtered latent state contracted with a vector learning rate
(Kalman gradient descent), or a steady-state filter recursion
(generalized momentum, whose dtilde = 1 case is Polyak's heavy ball).
No rule ever sees the true gradient; optimizers consume only the
observation stream g.

Each update is one private array kernel on stacks of points; the public
*_step functions convert and check their inputs, then call it.  An
ensemble runs one step loop for all S seeds: iterates (S, d), filter
means (S, d, dtilde) and the observed stream (S, K, d) advance together,
with one domain check per step on the whole stack, and every row equals
its seed's one-seed run bit for bit; in empirical mode a step takes all
seeds' mini-batch gradients in one stacked call.  Failures stay per seed:
a numerical failure in step k ends the stacked run there, and the
ensemble is then rerun one seed at a time, so that a failing seed records
its error and ends its paths at its own X_k while the others complete; a
loss gap first not finite at X_k fails its seed alike.  Any other
exception, such as a TypeError in a custom map, propagates.  A gain
sequence cut short ends all rows at its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bregman import MirrorMap, grad_dual
from .diagnostics import Trajectory
from .gradient_models import (
    FilterDivergenceError,
    MartingaleGradientModel,
    StateSpaceGradientModel,
    _covariance_pass,
    kalman_mean_update,
    kalman_steady_gain,
)
from .schedules import (
    _HORIZON_SLACK,
    Schedule,
    build_mesh,
    phi_scalar_path,
    phi_vector_path,
)

__all__ = [
    "OptimizerSpec",
    "mirror_descent_step",
    "kalman_gd_step",
    "generalized_momentum_step",
    "fosp_flow_step",
    "nu_from_momentum",
    "momentum_from_nu",
    "run_ensemble",
    "OPTIMIZER_KINDS",
]

OPTIMIZER_KINDS = ("mirror_sgd", "kalman_gd", "generalized_momentum", "fosp_continuous")
# Kinds whose dual-space step comes from a state-space filter.
_FILTERED_KINDS = ("kalman_gd", "generalized_momentum")
# The numerical failures that fail a seed: DomainError and LinAlgError are
# ValueErrors, FilterDivergenceError and NumericalError RuntimeErrors, and
# numpy's warnings may be raised as errors.
_NUMERICAL_FAILURES = (ArithmeticError, ValueError, RuntimeError, RuntimeWarning)
_FOSP_SUBSTEPS = 4                        # fosp_continuous Euler steps per mesh step


def _mirror_update(mirror: MirrorMap, x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """grad_h*(grad_h(X) - step) for points X (..., d); no conversion, no checks."""
    return grad_dual(mirror, mirror.grad_h(x) - step)


def _flow_update(mirror: MirrorMap, x: np.ndarray, effective: np.ndarray,
                 alpha_t: float, dt: float) -> np.ndarray:
    """Euler step X + dt exp(alpha) (grad_h*(grad_h(X) - effective) - X)
    for points X (..., d); no conversion, no checks."""
    return x + dt * math.exp(alpha_t) * (_mirror_update(mirror, x, effective) - x)


def _filtered_update(mirror: MirrorMap, x: np.ndarray, y_hat: np.ndarray, g: np.ndarray,
                     a_tilde: np.ndarray, b_vec: np.ndarray, gain: np.ndarray,
                     phi_vec: np.ndarray):
    """(X', y_hat') of the filtered kinds for points X (..., d), filter
    means (..., d, dtilde) and observations (..., d): the filter-mean step
    with the given gain, then the mirror update by y_hat' phi; no
    conversion, no checks."""
    y_new = kalman_mean_update(y_hat, g, a_tilde, b_vec, gain)
    return _mirror_update(mirror, x, y_new @ phi_vec), y_new


def mirror_descent_step(mirror: MirrorMap, x: np.ndarray, g: np.ndarray,
                        phi: float) -> np.ndarray:
    """X' = grad_h*(grad_h(X) - phi g).  With the identity quadratic map
    this is exactly X - phi g."""
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    x_new = _mirror_update(mirror, x, phi * np.asarray(g, dtype=float))
    mirror.check_domain(x_new)
    return x_new


def kalman_gd_step(mirror: MirrorMap, x: np.ndarray, y_hat: np.ndarray,
                   phi_vec: np.ndarray) -> np.ndarray:
    """Mirror update driven by the filtered latent state: the dual-space
    step is sum_j phi_j y_hat[:, j]."""
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    x_new = _mirror_update(mirror, x, y_hat @ np.atleast_1d(np.asarray(phi_vec, dtype=float)))
    mirror.check_domain(x_new)
    return x_new


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
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    k_inf = np.atleast_1d(np.asarray(k_inf, dtype=float))
    b_vec = np.ones(len(k_inf)) if b_vec is None else np.atleast_1d(np.asarray(b_vec, dtype=float))
    x_new, y_new = _filtered_update(
        mirror, x, np.asarray(y_hat, dtype=float), np.asarray(g, dtype=float),
        np.atleast_2d(np.asarray(a_tilde, dtype=float)), b_vec, k_inf,
        np.atleast_1d(np.asarray(phi_vec, dtype=float)))
    mirror.check_domain(x_new)
    return x_new, y_new


def fosp_flow_step(mirror: MirrorMap, x: np.ndarray, effective_term: np.ndarray,
                   alpha_t: float, dt: float) -> np.ndarray:
    """One explicit Euler step of the continuous optimizer flow
    dX = exp(alpha) (grad_h*(grad_h(X) - effective_term) - X) dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    x_new = _flow_update(mirror, x, np.asarray(effective_term, dtype=float), alpha_t, dt)
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
    p0: Optional[np.ndarray] = None       # Kalman prior covariance

    def validate(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; Polyak momentum is "
                             "generalized_momentum with model.dtilde = 1")
        if self.mode not in ("synthetic", "empirical"):
            raise ValueError(f"unknown stream mode {self.mode!r}")
        if (self.kind in _FILTERED_KINDS
                and not isinstance(self.model, StateSpaceGradientModel)):
            raise ValueError(f"{self.kind} requires a StateSpaceGradientModel")
        # The model refuses every other A that is not positive definite.
        if self.kind in _FILTERED_KINDS and not self.model.a_mat.any():
            raise ValueError(f"{self.kind} requires a positive definite model.A, not A = 0")
        if self.mode == "synthetic" and self.kind in ("mirror_sgd", "fosp_continuous"):
            if not isinstance(self.model, (MartingaleGradientModel, StateSpaceGradientModel)):
                raise ValueError(f"synthetic {self.kind} requires a gradient model")
        if self.mode == "empirical" and self.batch_m is None:
            raise ValueError("empirical mode requires batch_m")
        if self.kind == "generalized_momentum":
            s = self.schedule
            alpha = s.alpha(np.linspace(s.t_min, s.horizon_T, 32))
            if np.any(np.abs(alpha - alpha[0]) > 1e-12):
                raise ValueError("generalized_momentum needs a constant-alpha schedule")

    def default_x0(self, d: int) -> np.ndarray:
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        if self.mirror.name == "entropy":
            return np.ones(d)
        return np.zeros(d)


def _mesh_times(schedule: Schedule, steps: int) -> np.ndarray:
    """Times t_0 .. t_K of a K-step mesh; ValueError for K < 0 or a t_K
    more than _HORIZON_SLACK past the horizon."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    times = build_mesh(schedule, max(steps, 1)).times[: steps + 1]
    if times[-1] > schedule.horizon_T + _HORIZON_SLACK:
        raise ValueError(
            f"mesh reaches t = {times[-1]:.6g}, past the schedule horizon "
            f"T = {schedule.horizon_T:.6g}; reduce steps or extend the horizon"
        )
    return times


def run_ensemble(spec: OptimizerSpec, problem, steps: int, seeds) -> list[Trajectory]:
    """One seeded trajectory per seed.  The mesh, Phi and the filter gains
    do not depend on the seed and are computed once; one step loop then
    advances all seeds together, each on its own harness RNG streams; the
    displacement, loss-gap and filter-norm paths of all seeds are formed
    in one stacked pass, and a non-finite gap fails its row.  A stacked
    loop that raised is rerun one seed at a time.  steps = 0 takes the
    same path on the one-point mesh: each trajectory is X_0 with its loss
    gap, and its Phi, displacement and stream paths are empty.  problem
    may be None in synthetic mode (the latent gradient model is not tied
    to a loss landscape; loss gaps are then NaN)."""
    spec.validate()
    seeds = list(seeds)
    schedule = spec.schedule
    times = _mesh_times(schedule, steps)
    d = problem.d if spec.mode == "empirical" else spec.model.d
    x0 = spec.default_x0(d)
    if x0.shape != (d,):
        raise ValueError(f"x0 has shape {x0.shape}, but the dimension is d = {d}")
    spec.mirror.check_domain(x0)
    if not seeds:
        return []

    step_times, dts = times[:-1], np.diff(times)
    filtered = spec.kind in _FILTERED_KINDS
    phi = (phi_vector_path(schedule, spec.model.a_mat, spec.model.b_vec, step_times)
           if filtered else phi_scalar_path(schedule, step_times))
    filt = _filter_gains(spec, dts) if filtered else None
    coeff = _filter_coefficient(spec, problem)
    alphas = schedule.alpha(step_times)

    args = (spec, problem, x0, alphas, dts, phi, coeff, filt)
    x_paths, g_stream, y_paths, lengths, errors, raised = _run_steps(seeds, *args)
    if raised and len(seeds) > 1:
        # Each seed alone: every row is then its one-seed run.
        x_paths, g_stream, y_paths, lengths, errors, _ = zip(
            *(_run_steps([seed], *args) for seed in seeds))
        x_paths, g_stream = np.concatenate(x_paths), np.concatenate(g_stream)
        y_paths = None if y_paths[0] is None else np.concatenate(y_paths)
        lengths, errors = sum(lengths, []), sum(errors, [])
    nu_paths = np.diff(x_paths, axis=1) / dts[:, None]
    gap_paths = _loss_gaps(spec, problem, x_paths, lengths, errors)
    norms = (None if y_paths is None
             else np.linalg.norm(y_paths.reshape(*y_paths.shape[:2], -1), axis=-1))
    return [Trajectory(
        times=times[: k + 1], x_path=x_paths[i, : k + 1], nu_path=nu_paths[i, :k],
        loss_gap=gap_paths[i, : k + 1], g_path=g_stream[i, :k],
        filter_mean_norm=None if norms is None else norms[i, : k + 1],
        phi_path=phi[:k], seed=seed, error=error)
        for i, (seed, k, error) in enumerate(zip(seeds, lengths, errors))]


def _loss_gaps(spec: OptimizerSpec, problem, x_paths: np.ndarray, lengths, errors) -> np.ndarray:
    """f(X_k) - f(x*) on the (S, K+1, d) paths in one silent pass; NaN in
    synthetic mode.  A row whose kept gaps 0 .. length are first not finite
    at index j fails as if its step j had raised: it keeps X_0 .. X_j and
    the error "FloatingPointError at step {j}: loss gap is not finite"."""
    if spec.mode != "empirical":
        return np.full(x_paths.shape[:-1], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = problem.loss_gap(x_paths.reshape(-1, x_paths.shape[-1])).reshape(len(x_paths), -1)
    for i in np.flatnonzero(~np.isfinite(gaps).all(axis=-1)):
        j = int(np.argmin(np.isfinite(gaps[i])))
        if j <= lengths[i]:
            lengths[i] = j
            errors[i] = f"FloatingPointError at step {j}: loss gap is not finite"
    return gaps


def _filter_coefficient(spec: OptimizerSpec, problem) -> float:
    """Rescaling applied to raw observations before the mirror update:
    the batch's share batch_m / n of the data in empirical mode, whatever
    the model; the martingale model's m / n in synthetic mode; else 1."""
    if spec.mode == "empirical":
        return spec.batch_m / problem.n
    if isinstance(spec.model, MartingaleGradientModel):
        return spec.model.filter_coefficient
    return 1.0


def _filter_gains(spec: OptimizerSpec, dts: np.ndarray):
    """Seed-independent filter inputs: A_til = I - dt A per step, the gain
    of each step and the error that cut the gains short (else None).
    kalman_gd runs the covariance pass once from spec.p0 (None: the
    stationary covariance); generalized_momentum uses the steady gain."""
    model = spec.model
    a_tils, l_tils, sigmas = model.discretize(dts)
    if spec.kind == "kalman_gd":
        p0 = model.stationary_covariance() if spec.p0 is None else spec.p0
        _, gains, _, _, error = _covariance_pass(
            np.atleast_2d(np.asarray(p0, dtype=float)), a_tils,
            l_tils @ l_tils.transpose(0, 2, 1), model.b_vec, sigmas)
        return a_tils, gains, error
    # generalized_momentum needs a constant-alpha schedule, so dt is constant
    # and one steady gain serves every step.
    if not len(dts):
        return a_tils, [], None
    try:
        gain = kalman_steady_gain(a_tils[0], l_tils[0], model.b_vec, float(sigmas[0]))
    except FilterDivergenceError as exc:
        return a_tils, [], exc
    return a_tils, [gain] * len(dts), None


def _run_steps(seeds, spec, problem, x0, alphas, dts, phi, coeff, filt):
    """The step loop of every kind and stream mode, advancing the S seeds
    together as stacks: iterates (S, d), filter means (S, d, dtilde) and
    the observed stream (S, K, d).  The streams of all seeds are simulated
    first, from their "stream" generators (synthetic mode); step k then
    observes g for every seed (its row of the stream, or the seeds'
    mini-batch gradients in one stacked call, each batch drawn from its
    seed's "batch" generator), filters it with the gains in filt
    (filtered kinds), applies the kind's update rule to the stack and
    checks the domain of the new stack once (fosp_continuous: once per
    Euler substep).

    A numerical failure (_NUMERICAL_FAILURES), the simulation counting as
    step 0, ends every row at step k with "{Type} at step {k}: {message}";
    so does a gain sequence cut short, after the observation of its step.
    Any other exception propagates.  The rows keep X_0 .. X_k and are
    frozen after it, iterate and filter mean repeated to the end, so the
    stacked paths add nothing past the prefix; the stream past step k is
    not read.

    Returns (x_paths (S, K+1, d), g_stream (S, K, d), y_paths
    (S, K+1, d, dtilde) or None for the unfiltered kinds, each row's steps
    completed and error or None, and whether the stack raised: its rows
    may then fail alone at other steps, and only a one-seed run tells)."""
    from .harness.rng import component_rng

    mirror, model, kind = spec.mirror, spec.model, spec.kind
    n_seeds, k_steps, d = len(seeds), len(dts), len(x0)
    x_paths = np.empty((n_seeds, k_steps + 1, d))
    g_stream = np.empty((n_seeds, k_steps, d))
    x_paths[:, 0] = x0
    x, y, y_paths = x_paths[:, 0], None, None
    n_gains, gain_error = k_steps, None
    if filt is not None:
        a_tils, gains, gain_error = filt
        n_gains = len(gains)
        y_paths = np.empty((n_seeds, k_steps + 1, d, model.dtilde))
        y_paths[:, 0] = 0.0
        y = y_paths[:, 0]

    k, error, raised = 0, None, False
    try:
        if spec.mode == "synthetic":
            g_stream[:] = model._simulate_seeds(
                dts, [component_rng(seed, "stream") for seed in seeds])[1]
        else:
            rngs = [component_rng(seed, "batch") for seed in seeds]
        while k < k_steps:
            if spec.mode == "empirical":
                g_stream[:, k] = problem.minibatch_gradients(x, spec.batch_m, rngs)
            g = g_stream[:, k]
            if k == n_gains:
                raise gain_error
            if kind == "fosp_continuous":
                # The observation is frozen over the Euler substeps.
                effective = float(phi[k]) * coeff * g
                for _ in range(_FOSP_SUBSTEPS):
                    x = _flow_update(mirror, x, effective, float(alphas[k]),
                                     float(dts[k]) / _FOSP_SUBSTEPS)
                    mirror.check_domain(x)
            else:
                if kind == "mirror_sgd":
                    x = _mirror_update(mirror, x, float(phi[k]) * (coeff * g))
                else:
                    x, y = _filtered_update(mirror, x, y, g, a_tils[k], model.b_vec,
                                            gains[k], phi[k])
                mirror.check_domain(x)
            x_paths[:, k + 1] = x
            if y is not None:
                y_paths[:, k + 1] = y
            k += 1
    except _NUMERICAL_FAILURES as exc:
        error = f"{type(exc).__name__} at step {k}: {exc}"
        # The gains do not depend on the seed: their cut ends every row alike.
        raised = exc is not gain_error

    if k < k_steps:
        x_paths[:, k + 1:] = x_paths[:, k, None]
        if y_paths is not None:
            y_paths[:, k + 1:] = y_paths[:, k, None]
    return x_paths, g_stream, y_paths, [k] * n_seeds, [error] * n_seeds, raised

