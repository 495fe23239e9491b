"""Variational quantities and empirical convergence checks.

Evaluates the Lagrangian, expected action, Lyapunov energy and
Hamiltonian along optimizer trajectories, accumulates discrete quadratic
variation, and checks the two theoretical claims empirically: the energy
is a supermartingale under scaling schedules, and the loss gap obeys the
exp(-beta) rate bound with a quadratic-variation noise penalty.  The
Lagrangian, energy and Hamiltonian take a float time with one point, or
an array of times (K,) with points (K, d) and values (K,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bregman import MirrorMap, divergence, _dual_divergence
from .schedules import Schedule, _exp

__all__ = [
    "Trajectory",
    "EnsembleReport",
    "SupermartingaleReport",
    "RateBoundReport",
    "lagrangian",
    "action_estimate",
    "energy",
    "energy_path",
    "qv_accumulate",
    "hamiltonian",
    "supermartingale_check",
    "rate_bound_check",
    "ensemble_report",
]

_NOISELESS_TOL = 1e-9  # energy increase a single noiseless path may show
_BURN_FRAC = 0.1       # share of the horizon the rate bound skips


@dataclass
class Trajectory:
    """Time-indexed record of one optimizer run.

    nu_path holds per-step displacement divided by the step length
    (length K for K steps); loss_gap is f(X_k) - f(x*) on the whole mesh
    and is NaN in synthetic stream mode, where no loss landscape backs
    the gradient stream.  qv_path accumulates the squared increments of
    the exp(-gamma)-scaled filtered-gradient martingale proxy.
    """

    times: np.ndarray
    x_path: np.ndarray                 # (K+1, d)
    nu_path: np.ndarray                # (K, d)
    loss_gap: np.ndarray               # (K+1,)
    qv_path: np.ndarray                # (K+1,), non-decreasing
    g_path: Optional[np.ndarray] = None          # (K, d) observed stream
    filter_mean_norm: Optional[np.ndarray] = None  # (K+1,) Kalman runs only
    phi_path: Optional[np.ndarray] = None        # (K,) or (K, dtilde)
    seed: Optional[int] = None
    error: Optional[str] = None

    def __post_init__(self):
        k = len(self.times) - 1
        if self.x_path.shape[0] != k + 1 or self.nu_path.shape[0] != k:
            raise ValueError("trajectory arrays have inconsistent lengths")
        if len(self.loss_gap) != k + 1 or len(self.qv_path) != k + 1:
            raise ValueError("trajectory arrays have inconsistent lengths")
        if np.any(np.diff(self.qv_path) < -1e-15):
            raise ValueError("quadratic-variation accumulator must be non-decreasing")

    @property
    def steps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class EnsembleReport:
    """Per-time ensemble statistics across seeds."""

    times: np.ndarray
    mean_energy: np.ndarray
    se_energy: np.ndarray
    mean_gap: np.ndarray
    se_gap: np.ndarray
    mean_qv: np.ndarray
    n_seeds: int

    def __post_init__(self):
        if np.any(self.se_energy < 0) or np.any(self.se_gap < 0):
            raise ValueError("standard errors must be non-negative")


@dataclass(frozen=True)
class SupermartingaleReport:
    max_increase: float        # largest mean-energy increase beyond slack
    passed: bool
    n_seeds: int


@dataclass(frozen=True)
class RateBoundReport:
    times: np.ndarray
    ratio: np.ndarray          # gap / (exp(-beta) max(1, mean QV))
    bound_value: np.ndarray
    max_ratio: float
    bound_constant: float
    passed: bool


def lagrangian(mirror: MirrorMap, f_value, schedule: Schedule, t,
               x: np.ndarray, nu: np.ndarray):
    """exp(gamma) (exp(alpha) D_h(X + exp(-alpha) nu, X) - exp(beta) f_value),
    the kinetic-minus-potential energy density at (t, X, nu)."""
    ea = _exp(schedule.alpha(t))
    kinetic = ea * divergence(mirror, np.asarray(x) + nu / np.expand_dims(ea, -1), x)
    potential = _exp(schedule.beta(t)) * f_value
    return _exp(schedule.gamma(t)) * (kinetic - potential)


def action_estimate(mirror: MirrorMap, schedule: Schedule,
                    trajectories: Sequence[Trajectory],
                    terminal_gaps: Sequence[float]) -> float:
    """Monte Carlo estimate of the expected action: trapezoidal time
    integral of the Lagrangian plus exp(delta_T) times the terminal gap,
    averaged over trajectories."""
    if len(trajectories) == 0:
        raise ValueError("need at least one trajectory")
    if len(terminal_gaps) != len(trajectories):
        raise ValueError("one terminal gap per trajectory")
    total = 0.0
    for traj, tgap in zip(trajectories, terminal_gaps):
        k = traj.steps
        lag = lagrangian(mirror, traj.loss_gap[:k], schedule, traj.times[:k],
                         traj.x_path[:k], traj.nu_path)
        total += (float(np.trapezoid(lag, traj.times[:k]))
                  + math.exp(schedule.delta_T) * float(tgap))
    return total / len(trajectories)


def _displaced(schedule: Schedule, t, x, nu) -> np.ndarray:
    """Y = X + exp(-alpha) nu."""
    return np.asarray(x, dtype=float) + np.expand_dims(_exp(-schedule.alpha(t)), -1) * nu


def energy(mirror: MirrorMap, f_gap, schedule: Schedule, t,
           x: np.ndarray, nu: np.ndarray, qv_bracket, x_star: np.ndarray):
    """Lyapunov energy D_h(x*, X + exp(-alpha) nu) + exp(beta) f_gap
    minus the realized covariation bracket of (grad h(Y), Y)."""
    y = _displaced(schedule, t, x, nu)
    return divergence(mirror, x_star, y) + _exp(schedule.beta(t)) * f_gap - qv_bracket


def qv_accumulate(prev: float, delta_a: np.ndarray, delta_b: np.ndarray) -> float:
    """Discrete bracket update: prev + <delta_a, delta_b>."""
    return prev + float(np.dot(np.asarray(delta_a, dtype=float),
                               np.asarray(delta_b, dtype=float)))


def hamiltonian(mirror: MirrorMap, f_value, schedule: Schedule, t,
                x: np.ndarray, p: np.ndarray):
    """exp(alpha+gamma) D_{h*}(grad h(X) + exp(-gamma) p, grad h(X))
    + exp(gamma+beta) f_value, the Legendre dual of the Lagrangian."""
    z = mirror.grad_h(np.asarray(x, dtype=float))
    shift = np.expand_dims(_exp(-schedule.gamma(t)), -1) * np.asarray(p, dtype=float)
    dual_div = _dual_divergence(mirror, z + shift, z)
    return (_exp(schedule.alpha(t) + schedule.gamma(t)) * dual_div
            + _exp(schedule.gamma(t) + schedule.beta(t)) * f_value)


def energy_path(mirror: MirrorMap, schedule: Schedule, traj: Trajectory,
                x_star: np.ndarray) -> np.ndarray:
    """Lyapunov energy at every step point of a trajectory (length K).

    Uses Y_k = X_k + exp(-alpha_k) nu_k and the realized covariation
    Sum <grad h(Y_{k+1}) - grad h(Y_k), Y_{k+1} - Y_k> as the bracket,
    summed in step order.
    """
    return _energy_paths(mirror, schedule, traj.times, traj.x_path[None], traj.nu_path[None],
                         traj.loss_gap[None], x_star)[0]


def _energy_paths(mirror: MirrorMap, schedule: Schedule, times: np.ndarray,
                  x_paths: np.ndarray, nu_paths: np.ndarray, gap_paths: np.ndarray,
                  x_star: np.ndarray) -> np.ndarray:
    """energy_path of S trajectories on the same mesh times (K+1,), from
    their stacked iterates (S, K+1, d), displacements (S, K, d) and loss
    gaps (S, K+1): one energy path per row, (S, K)."""
    times, x_paths, gaps = times[:-1], x_paths[:, :-1], gap_paths[:, :-1]
    ys = _displaced(schedule, times, x_paths, nu_paths)
    bracket = np.zeros(ys.shape[:2])
    bracket[:, 1:] = np.cumsum(np.vecdot(np.diff(mirror.grad_h(ys), axis=1),
                                         np.diff(ys, axis=1)), axis=1)
    return energy(mirror, gaps, schedule, times, x_paths, nu_paths, bracket, x_star)


def ensemble_report(times: np.ndarray, energy_paths: np.ndarray,
                    gap_paths: np.ndarray, qv_paths: np.ndarray) -> EnsembleReport:
    """Aggregate per-seed paths (rows) into per-time means and standard
    errors; one path has a standard error of exactly 0."""
    energy_paths = np.atleast_2d(energy_paths)
    gap_paths = np.atleast_2d(gap_paths)
    qv_paths = np.atleast_2d(qv_paths)
    n = energy_paths.shape[0]
    ddof, scale = min(n - 1, 1), math.sqrt(n)
    return EnsembleReport(
        times=np.asarray(times, dtype=float),
        mean_energy=energy_paths.mean(axis=0),
        se_energy=energy_paths.std(axis=0, ddof=ddof) / scale,
        mean_gap=gap_paths.mean(axis=0),
        se_gap=gap_paths.std(axis=0, ddof=ddof) / scale,
        mean_qv=qv_paths.mean(axis=0),
        n_seeds=n,
    )


def supermartingale_check(energy_paths: np.ndarray) -> SupermartingaleReport:
    """Check that mean energy is non-increasing in time: within two
    standard errors of each increment, up to _NOISELESS_TOL absolute.  A
    single path (noiseless run) has a standard error of 0, so it must be
    monotone to _NOISELESS_TOL.
    """
    energy_paths = np.atleast_2d(np.asarray(energy_paths, dtype=float))
    n = energy_paths.shape[0]
    inc = np.diff(energy_paths.mean(axis=0))
    se = np.diff(energy_paths, axis=1).std(axis=0, ddof=min(n - 1, 1)) / math.sqrt(n)
    excess = inc - 2.0 * se
    max_excess = float(np.max(excess, initial=0.0))
    return SupermartingaleReport(max_increase=max_excess,
                                 passed=max_excess <= _NOISELESS_TOL, n_seeds=n)


def rate_bound_check(report: EnsembleReport, schedule: Schedule,
                     bound_constant: float = 10.0) -> RateBoundReport:
    """Compare the mean loss gap against exp(-beta) max(1, mean QV).

    Reports the largest ratio after the burn-in fraction of the horizon
    and whether it stays below bound_constant.
    """
    times = report.times
    bound = _exp(-schedule.beta(times)) * np.maximum(1.0, report.mean_qv)
    ratio = report.mean_gap / bound
    t_burn = times[0] + _BURN_FRAC * (times[-1] - times[0])
    mask = times >= t_burn
    max_ratio = float(np.max(ratio[mask])) if np.any(mask) else 0.0
    return RateBoundReport(
        times=times,
        ratio=ratio,
        bound_value=bound,
        max_ratio=max_ratio,
        bound_constant=bound_constant,
        passed=max_ratio <= bound_constant,
    )
