"""Hyperparameter schedules, discretization meshes and learning-rate paths.

A schedule is the triple of time functions (alpha, beta, gamma) plus a
terminal weight delta_T on a finite horizon [0, T].  alpha sets the log
step scale (the mesh advances by exp(-alpha) per step), beta weights the
potential term and gamma the overall energy.  A schedule "scales" when
gamma' = exp(alpha) and beta' <= exp(alpha); those are the hypotheses of
the convergence guarantees and are checked numerically here.

The deterministic learning-rate paths are

    scalar:  Phi(t) = exp(-gamma_t) (Phi0 + int_0^t w(u) du),
             Phi0   = exp(delta_T) - int_0^T w(u) du,
    vector:  Phi(t) = exp(-gamma_t) (b' expm(-A t) Phi0
                                     + int_0^t w(u) b' expm(-A (t-u)) du),
             Phi0   = exp(delta_T) expm(A T) - int_0^T w(u) expm(A u) du,

with weight w(u) = exp(alpha_u + beta_u + gamma_u).  Both satisfy the
terminal condition Phi(T) = exp(delta_T - gamma_T) (times b' in the
vector case).  The scalar path is the vector one with A = 0 and b = 1,
and a single time is a grid of length one, so all four phi_* functions
evaluate one formula on a sorted grid in [t_min, T] and reject unsorted or
out-of-horizon times with ValueError.  One adaptive Gauss-Legendre pass
integrates over all grid intervals at once, with the matrix exponentials
at its nodes from stacked scaling and squaring.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Schedule",
    "Mesh",
    "ScalingReport",
    "constant_schedule",
    "linear_schedule",
    "polynomial_schedule",
    "check_scaling",
    "build_mesh",
    "phi_scalar",
    "phi_vector",
    "phi_scalar_path",
    "phi_vector_path",
    "matrix_exp",
    "integrate_intervals",
]

SCALING_TOL = 1e-6
_FD_STEP = 1e-5
QUAD_TOL = 1e-11
_QUAD_MAX_DEPTH = 20  # bisection levels
_QUAD_REL = 1e-12  # relative floor; intervals stop near rounding noise


@dataclass(frozen=True)
class Schedule:
    """Deterministic hyperparameter functions on [0, horizon_T]."""

    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    gamma: Callable[[float], float]
    delta_T: float
    horizon_T: float
    # Closed-form derivatives when the family provides them; otherwise
    # central differences are used for the scaling check.
    beta_dot: Optional[Callable[[float], float]] = None
    gamma_dot: Optional[Callable[[float], float]] = None
    # Earliest admissible time (nonzero for the polynomial family).
    t_min: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if not (self.horizon_T > 0):
            raise ValueError("horizon_T must be positive")

    def validate_finite(self, grid_points: int = 1000) -> None:
        ts = np.linspace(self.t_min, self.horizon_T, grid_points)
        for fn, label in ((self.alpha, "alpha"), (self.beta, "beta"), (self.gamma, "gamma")):
            vals = np.array([fn(t) for t in ts])
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"schedule function {label} is not finite on the horizon")


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing times t_0 < t_1 < ... with
    t_{k+1} - t_k = exp(-alpha(t_k))."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("mesh times must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self):
        return len(self.times)

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass(frozen=True)
class ScalingReport:
    max_gamma_residual: float
    max_beta_excess: float
    passed: bool


def constant_schedule(alpha0=0.0, beta0=0.0, gamma0=0.0, delta_T=0.0, horizon_T=1.0,
                      name="constant") -> Schedule:
    return Schedule(
        alpha=lambda t: alpha0,
        beta=lambda t: beta0,
        gamma=lambda t: gamma0,
        delta_T=delta_T,
        horizon_T=horizon_T,
        beta_dot=lambda t: 0.0,
        gamma_dot=lambda t: 0.0,
        name=name,
    )


def linear_schedule(alpha0=0.0, alpha1=0.0, beta0=0.0, beta1=0.0,
                    gamma0=0.0, gamma1=0.0, delta_T=0.0, horizon_T=1.0,
                    name="linear") -> Schedule:
    """Exponents linear in t: alpha_t = alpha0 + alpha1 t, etc.

    With alpha1 = 0, gamma1 = exp(alpha0) and beta1 <= exp(alpha0) this
    family satisfies the scaling conditions exactly.
    """
    return Schedule(
        alpha=lambda t: alpha0 + alpha1 * t,
        beta=lambda t: beta0 + beta1 * t,
        gamma=lambda t: gamma0 + gamma1 * t,
        delta_T=delta_T,
        horizon_T=horizon_T,
        beta_dot=lambda t: beta1,
        gamma_dot=lambda t: gamma1,
        name=name,
    )


def polynomial_schedule(p=2.0, c=1.0, delta_T=0.0, horizon_T=1.0, t_min=0.1,
                        name="polynomial") -> Schedule:
    """alpha_t = log p - log t, beta_t = p log t + log c, gamma_t = p log t.

    Defined for t >= t_min > 0.  Realizes the scaling conditions with a
    polynomial rate exp(-beta_t) = t^{-p} / c.
    """
    if not (0 < t_min < horizon_T):
        raise ValueError("need 0 < t_min < horizon_T")
    if p <= 0 or c <= 0:
        raise ValueError("p and c must be positive")
    return Schedule(
        alpha=lambda t: math.log(p) - math.log(t),
        beta=lambda t: p * math.log(t) + math.log(c),
        gamma=lambda t: p * math.log(t),
        delta_T=delta_T,
        horizon_T=horizon_T,
        beta_dot=lambda t: p / t,
        gamma_dot=lambda t: p / t,
        t_min=t_min,
        name=name,
    )


def _central_diff(fn, t, lo, hi):
    h = _FD_STEP
    a = max(t - h, lo)
    b = min(t + h, hi)
    return (fn(b) - fn(a)) / (b - a)


def check_scaling(schedule: Schedule, grid_points: int = 1000) -> ScalingReport:
    """Check gamma' = exp(alpha) and beta' <= exp(alpha) on a uniform grid."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    schedule.validate_finite(grid_points)
    lo, hi = schedule.t_min, schedule.horizon_T
    ts = np.linspace(lo, hi, grid_points)
    gdot = schedule.gamma_dot or (lambda t: _central_diff(schedule.gamma, t, lo, hi))
    bdot = schedule.beta_dot or (lambda t: _central_diff(schedule.beta, t, lo, hi))
    max_gamma = 0.0
    max_beta = 0.0
    for t in ts:
        ea = math.exp(schedule.alpha(t))
        max_gamma = max(max_gamma, abs(gdot(t) - ea))
        max_beta = max(max_beta, bdot(t) - ea)
    return ScalingReport(
        max_gamma_residual=max_gamma,
        max_beta_excess=max(max_beta, 0.0),
        passed=(max_gamma <= SCALING_TOL) and (max_beta <= SCALING_TOL),
    )


def build_mesh(schedule: Schedule, steps: int, t0: Optional[float] = None) -> Mesh:
    """Mesh recursion t_{k+1} = t_k + exp(-alpha(t_k)), K steps.

    t0 defaults to 0 (or to the schedule's t_min when that is positive).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t = schedule.t_min if t0 is None else t0
    times = [t]
    for _ in range(steps):
        t = t + math.exp(-schedule.alpha(t))
        if not math.isfinite(t):
            raise ValueError("mesh recursion produced a non-finite time")
        times.append(t)
    return Mesh(times=np.array(times))


# 8-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 15.
_GL_NODES = np.array([-0.96028985649753623168, -0.79666647741362673959,
                      -0.52553240991632898582, -0.18343464249564980494,
                      0.18343464249564980494, 0.52553240991632898582,
                      0.79666647741362673959, 0.96028985649753623168])
_GL_WEIGHTS = np.array([0.10122853629037625915, 0.22238103445337447054,
                        0.31370664587788728734, 0.36268378337836198297,
                        0.36268378337836198297, 0.31370664587788728734,
                        0.22238103445337447054, 0.10122853629037625915])


def _gauss_legendre(fn, lo, hi):
    """The 8-point rule on every interval [lo[i], hi[i]]; fn is evaluated
    at one node of all intervals at a time, which keeps its temporaries
    small."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = sum(w * np.asarray(fn(mid + half * x), dtype=float)
                for x, w in zip(_GL_NODES, _GL_WEIGHTS))
    return total * half.reshape((-1,) + (1,) * (total.ndim - 1))


def integrate_intervals(fn, edges):
    """Integrals of fn over every interval [edges[i], edges[i + 1]].

    fn maps a 1-d array of nodes to scalar, vector or matrix values
    stacked along the first axis.  Each interval's Gauss-Legendre value is
    compared with the sum over its two halves; the intervals that miss
    QUAD_TOL are bisected, with the tolerance halved at each level, and
    the rest are done.  Returns an array of shape (len(edges) - 1, ...).  Raises
    RuntimeError when the depth budget runs out.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    owner = np.arange(len(lo))
    whole = _gauss_legendre(fn, lo, hi)
    out = np.zeros_like(whole)
    tol = QUAD_TOL
    value_axes = tuple(range(1, whole.ndim))
    for _ in range(_QUAD_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        left, right = _gauss_legendre(fn, lo, mid), _gauss_legendre(fn, mid, hi)
        err = np.abs(left + right - whole).max(axis=value_axes)
        # Absolute tolerance alone cannot be met for large-magnitude
        # integrands once the residual hits rounding noise, so keep a
        # relative floor proportional to the interval's values.
        scale = (np.abs(left) + np.abs(right)).max(axis=value_axes)
        done = err <= np.maximum(tol, _QUAD_REL * scale)
        np.add.at(out, owner[done], left[done] + right[done])
        if done.all():
            return out
        todo = ~done
        lo, mid, hi = lo[todo], mid[todo], hi[todo]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.concatenate([owner[todo], owner[todo]])
        whole = np.concatenate([left[todo], right[todo]])
        tol /= 2.0
    raise RuntimeError(f"quadrature failed to reach tolerance (residual {err.max():.3e})")


def _weight(schedule: Schedule, u: float) -> float:
    return math.exp(schedule.alpha(u) + schedule.beta(u) + schedule.gamma(u))


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor
    series, of one matrix or of a stack (..., n, n), each matrix scaled by
    its own power of two.  Intended for small dense matrices (n <= 16)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp needs finite entries")
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    s = np.maximum(0.0, np.ceil(np.log2(np.maximum(norm, 0.5))) + 1.0)
    a = m / (2.0 ** s)[..., None, None]
    result = np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy()
    term = result.copy()
    buf = np.empty_like(result)
    for j in range(1, 60):
        np.matmul(term, a, out=buf)
        buf /= j
        result += buf
        term, buf = buf, term
        # A matrix whose term is negligible stops; zeroing its term keeps
        # every later term zero.
        np.abs(term, out=buf)
        converged = buf.max(axis=(-2, -1)) < 1e-18
        if converged.all():
            break
        term[converged] = 0.0
    for level in range(int(s.max(initial=0.0))):
        np.matmul(result, result, out=buf)
        np.copyto(result, buf, where=(s > level)[..., None, None])
    return result


def _phi_path(schedule: Schedule, a_mat: np.ndarray, b_vec: np.ndarray,
              times) -> np.ndarray:
    """Phi(t) = exp(-gamma_t) b' expm(-A t) (Phi0 + int_{t0}^t w(u) expm(A u) du)
    on a sorted grid, with one quadrature pass over the intervals
    [t0, t_1], [t_1, t_2], ..., [t_K, T].  Returns (len(times), dtilde)."""
    times = np.asarray(times, dtype=float)
    t0, T = schedule.t_min, schedule.horizon_T
    if times.ndim != 1 or not np.all(np.diff(times) >= 0):
        raise ValueError("times must be a sorted 1-d grid")
    if len(times) and not (t0 <= times[0] and times[-1] <= T + 1e-12):
        raise ValueError("times must lie in the schedule horizon")

    def integrand(u):
        exps = matrix_exp(a_mat * u[:, None, None])
        exps *= np.array([_weight(schedule, x) for x in u])[:, None, None]
        return exps

    cum = np.cumsum(integrate_intervals(integrand, np.concatenate(([t0], times, [T]))),
                    axis=0)
    phi0 = math.exp(schedule.delta_T) * matrix_exp(a_mat * T) - cum[-1]
    heads = b_vec @ matrix_exp(-a_mat * times[:, None, None])
    gamma = np.array([schedule.gamma(t) for t in times])
    out = np.exp(-gamma)[:, None] * np.einsum("ki,kij->kj", heads, phi0 + cum[:-1])
    # A component of opposite sign to b turns descent into ascent; a
    # negative b_j makes Phi_j negative by construction.
    if np.any(out * b_vec < 0):
        warnings.warn(
            "learning-rate path has the opposite sign to b on part of the "
            "mesh; descent steps become ascent steps there",
            RuntimeWarning,
        )
    return out


def phi_scalar_path(schedule: Schedule, times) -> np.ndarray:
    """Scalar learning-rate path of the martingale gradient model on a
    sorted time grid: the vector path with A = 0 and b = 1."""
    return _phi_path(schedule, np.zeros((1, 1)), np.ones(1), times)[:, 0]


def phi_scalar(schedule: Schedule, t: float) -> float:
    """phi_scalar_path at one time."""
    return float(phi_scalar_path(schedule, [t])[0])


def phi_vector_path(schedule: Schedule, a_mat, b_vec, times) -> np.ndarray:
    """Vector learning-rate path of the linear state-space gradient model
    on a sorted time grid; a_mat must be positive definite.  Returns an
    array of shape (len(times), dtilde)."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    if np.linalg.eigvalsh(0.5 * (a_mat + a_mat.T)).min() <= 0:
        raise ValueError("A must be positive definite")
    return _phi_path(schedule, a_mat, np.atleast_1d(np.asarray(b_vec, dtype=float)), times)


def phi_vector(schedule: Schedule, a_mat: np.ndarray, b_vec: np.ndarray,
               t: float) -> np.ndarray:
    """phi_vector_path at one time: the dtilde-vector Phi(t)."""
    return phi_vector_path(schedule, a_mat, b_vec, [t])[0]
