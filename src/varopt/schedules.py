"""Hyperparameter schedules, discretization meshes and learning-rate paths.

A schedule is the triple of time functions (alpha, beta, gamma) plus a
terminal weight delta_T on a finite horizon [0, T].  alpha sets the log
step scale (the mesh advances by exp(-alpha) per step), beta weights the
potential term and gamma the overall energy.  A schedule "scales" when
gamma' = exp(alpha) and beta' <= exp(alpha); those are the hypotheses of
the convergence guarantees and are checked numerically here.

The deterministic learning-rate path is Phi(t) = exp(-gamma_t) b' M(t),
where M solves the linear backward equation M' = w I - A M with the
terminal condition M(T) = exp(delta_T) I,

    M(t) = exp(delta_T) expm(A (T - t)) - int_t^T w(u) expm(A (u - t)) du,

with weight w(u) = exp(alpha_u + beta_u + gamma_u); the scalar path is
the vector one with A = 0 and b = 1.  Both phi_*_path functions evaluate
it on a sorted grid in [t_min, T] (a single time is a grid of length
one) and reject with ValueError unsorted times and times before t_min or
more than _HORIZON_SLACK past T, the slack the mesh has too.  M is
propagated backward from T over the grid, one local integral per interval
(_phi_path): for the linear family, whose weight is exp(c0 + c1 t), every
interval's propagator and integral come from one stacked Van Loan block
exponential, one matrix per distinct interval width; for any other
schedule the local integrals come from one adaptive Gauss-Legendre pass
(integrate_intervals) over all intervals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import NumericalError, _positive_definite

__all__ = [
    "Schedule",
    "Mesh",
    "ScalingReport",
    "constant_schedule",
    "linear_schedule",
    "polynomial_schedule",
    "check_scaling",
    "build_mesh",
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
_GRID_POINTS = 1000  # horizon grid of the finiteness and scaling checks
# How far past T a mesh time may fall and still count as T: the mesh's
# last time and Phi's last step time pass T by a sum's rounding.
_HORIZON_SLACK = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Deterministic hyperparameter functions on [0, horizon_T].

    Every function maps an array of times to the array of its values,
    elementwise; a float time gives a float.  Construction evaluates each
    function once on a grid of the horizon and raises ValueError naming
    any that does not return a finite array of the grid's shape.
    """

    alpha: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    gamma: Callable[[np.ndarray], np.ndarray]
    delta_T: float
    horizon_T: float
    # Closed-form derivatives when the family provides them; otherwise
    # central differences are used for the scaling check.
    beta_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gamma_dot: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # Earliest admissible time, in [0, horizon_T) (nonzero for the
    # polynomial family).
    t_min: float = 0.0
    # c1 when log w = alpha + beta + gamma is affine, c0 + c1 t, as in the
    # linear family; the learning-rate paths then integrate w in closed form.
    weight_slope: Optional[float] = None

    def __post_init__(self):
        for label in ("delta_T", "horizon_T"):
            if not math.isfinite(getattr(self, label)):
                raise ValueError(f"{label} must be finite, got {getattr(self, label)}")
        if not (self.horizon_T > 0):
            raise ValueError("horizon_T must be positive")
        if not (0 <= self.t_min < self.horizon_T):
            raise ValueError(f"t_min must lie in [0, horizon_T), got {self.t_min}")
        self.validate_finite()

    def validate_finite(self) -> None:
        ts = np.linspace(self.t_min, self.horizon_T, _GRID_POINTS)
        for label in ("alpha", "beta", "gamma", "beta_dot", "gamma_dot"):
            fn = getattr(self, label)
            if fn is None:
                continue
            try:
                vals = fn(ts)
                ok = np.shape(vals) == ts.shape and bool(np.all(np.isfinite(vals)))
            except (TypeError, ValueError, ArithmeticError):
                ok = False
            if not ok:
                raise ValueError(f"schedule function {label} does not map the horizon "
                                 "grid to a finite array of its shape")


@dataclass(frozen=True)
class Mesh:
    """Finite, strictly increasing times t_0 < t_1 < ... with
    t_{k+1} - t_k = exp(-alpha(t_k)); build_mesh makes them from a
    schedule."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        # When each time exceeds the one before (no NaN does), the times
        # lie between the ends, so finite ends make every time finite.
        if (t.ndim != 1 or len(t) < 1 or not (t[1:] > t[:-1]).all()
                or not (math.isfinite(t[0]) and math.isfinite(t[-1]))):
            raise ValueError("mesh times must be finite and strictly increasing")
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class ScalingReport:
    max_gamma_residual: float
    max_beta_excess: float
    passed: bool


def constant_schedule(alpha0=0.0, beta0=0.0, gamma0=0.0, delta_T=0.0, horizon_T=1.0) -> Schedule:
    """The linear family with zero slopes."""
    return linear_schedule(alpha0=alpha0, beta0=beta0, gamma0=gamma0, delta_T=delta_T,
                           horizon_T=horizon_T)


def linear_schedule(alpha0=0.0, alpha1=0.0, beta0=0.0, beta1=0.0,
                    gamma0=0.0, gamma1=0.0, delta_T=0.0, horizon_T=1.0) -> Schedule:
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
        beta_dot=lambda t: beta1 + 0.0 * t,
        gamma_dot=lambda t: gamma1 + 0.0 * t,
        weight_slope=alpha1 + beta1 + gamma1,
    )


def polynomial_schedule(p=2.0, c=1.0, delta_T=0.0, horizon_T=1.0, t_min=0.1) -> Schedule:
    """alpha_t = log p - log t, beta_t = p log t + log c, gamma_t = p log t.

    Defined for t >= t_min > 0.  Realizes the scaling conditions with a
    polynomial rate exp(-beta_t) = t^{-p} / c.
    """
    if not (0 < t_min < horizon_T):
        raise ValueError("need 0 < t_min < horizon_T")
    if p <= 0 or c <= 0:
        raise ValueError("p and c must be positive")
    return Schedule(
        alpha=lambda t: math.log(p) - np.log(t),
        beta=lambda t: p * np.log(t) + math.log(c),
        gamma=lambda t: p * np.log(t),
        delta_T=delta_T,
        horizon_T=horizon_T,
        beta_dot=lambda t: p / t,
        gamma_dot=lambda t: p / t,
        t_min=t_min,
    )


def _central_diff(fn, ts):
    """Central differences of fn on the grid ts, within [ts[0], ts[-1]]:
    one-sided where a step would leave it, and second-order one-sided at
    the two ends, where a first-order one errs by h f''/2."""
    t0, t1 = ts[0], ts[-1]
    a, b = np.maximum(ts - _FD_STEP, t0), np.minimum(ts + _FD_STEP, t1)
    out = (fn(b) - fn(a)) / (b - a)
    h = min(_FD_STEP, (t1 - t0) / 2)
    f = fn(np.array([t0, t0 + h, t0 + 2 * h, t1 - 2 * h, t1 - h, t1]))
    out[0] = (4 * f[1] - 3 * f[0] - f[2]) / (2 * h)
    out[-1] = (3 * f[5] - 4 * f[4] + f[3]) / (2 * h)
    return out


def check_scaling(schedule: Schedule) -> ScalingReport:
    """Check gamma' = exp(alpha) and beta' <= exp(alpha) on a uniform grid."""
    ts = np.linspace(schedule.t_min, schedule.horizon_T, _GRID_POINTS)
    gdot = schedule.gamma_dot(ts) if schedule.gamma_dot else _central_diff(schedule.gamma, ts)
    bdot = schedule.beta_dot(ts) if schedule.beta_dot else _central_diff(schedule.beta, ts)
    ea = _exp(schedule.alpha(ts))
    max_gamma = float(np.max(np.abs(gdot - ea)))
    max_beta = max(float(np.max(bdot - ea)), 0.0)
    return ScalingReport(max_gamma_residual=max_gamma, max_beta_excess=max_beta,
                         passed=(max_gamma <= SCALING_TOL) and (max_beta <= SCALING_TOL))


def _uniform_times(schedule: Schedule, steps: int) -> Optional[np.ndarray]:
    """The times t_min + h + ... + h, summed in order with the step
    h = exp(-alpha(t_min)), when they are finite and alpha equals
    alpha(t_min) at each of them but the last; else None."""
    t = schedule.t_min
    try:
        alpha0 = schedule.alpha(t)
        times = np.full(steps + 1, math.exp(-alpha0))
        times[0] = t
        with np.errstate(all="ignore"):
            times = np.add.accumulate(times)
            # h >= 0 or NaN, so the last time is finite only if all are.
            if math.isfinite(times[-1]) and np.equal(schedule.alpha(times[:-1]), alpha0).all():
                return times
    except (TypeError, ValueError, ArithmeticError):
        pass
    return None


def build_mesh(schedule: Schedule, steps: int) -> Mesh:
    """Mesh recursion t_{k+1} = t_k + exp(-alpha(t_k)), K steps from the
    schedule's t_min (0 unless the family sets it).

    When alpha is constant along the mesh, the times are one cumulative
    sum of the step; np.add.accumulate adds in order, so each is the
    recursion's t + h bit for bit.  Otherwise the recursion runs.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = _uniform_times(schedule, steps)
    if times is not None:
        return Mesh(times=times)
    t = schedule.t_min
    times = [t]
    for _ in range(steps):
        try:
            t = t + math.exp(-schedule.alpha(t))
        except OverflowError:
            t = math.inf
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


def _exp(x):
    """np.exp that raises FloatingPointError on overflow, so that an
    overflowing schedule value is refused rather than read as inf."""
    with np.errstate(over="raise"):
        return np.exp(x)


def _weight(schedule: Schedule, u):
    """The weight w = exp(alpha + beta + gamma) at the times u;
    FloatingPointError naming the first time at which it overflows."""
    with np.errstate(over="ignore"):
        w = np.exp(schedule.alpha(u) + schedule.beta(u) + schedule.gamma(u))
    if np.isinf(w).any():
        t = np.ravel(u)[np.argmax(np.isinf(np.ravel(w)))]
        raise FloatingPointError("overflow: the schedule weight exp(alpha + beta + gamma) "
                                 f"passes the float range first at t = {t:.6g}")
    return w


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor
    series, of one matrix or of a stack (..., n, n), each matrix scaled by
    its own power of two.  Intended for small dense matrices (n <= 16).
    NumericalError, naming the first stack index, when an exponential
    overflows the float range."""
    result = _expm(m)
    overflowed = ~np.isfinite(result).all(axis=(-2, -1))
    if overflowed.any():
        index = tuple(int(i) for i in np.argwhere(overflowed)[0])
        where = f" at stack index {index}" if index else ""
        raise NumericalError(f"matrix exponential overflows the float range{where}")
    return result


def _expm(m: np.ndarray) -> np.ndarray:
    """matrix_exp with no overflow check: an exponential past the float
    range holds an inf or a NaN."""
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


def _interval_exps(widths: np.ndarray, m: np.ndarray) -> np.ndarray:
    """expm(Delta_i m) for every interval width Delta_i, with one
    exponential per distinct width (a mesh has few); matrix_exp treats
    each matrix of a stack on its own, so the bits are those of one
    exponential per interval.  A dict, not np.unique: a process's first
    sort maps numpy's sorting kernels, 0.5 MB of resident memory.
    NumericalError, naming the first interval whose exponential overflows
    and its width, as a Phi failure."""
    first = {}
    inverse = [first.setdefault(width, len(first)) for width in widths.tolist()]
    distinct = np.array(list(first))[:, None, None] * m
    try:
        return matrix_exp(distinct)[inverse]
    except NumericalError:
        # Widths are numbered by first appearance: the first that overflows names the interval.
        i = inverse.index(int(np.argmin(np.isfinite(_expm(distinct)).all(axis=(-2, -1)))))
        raise NumericalError(
            f"learning-rate path Phi: the exponential of interval {i}, of width "
            f"{widths[i]:.6g}, overflows the float range at stack index ({i},)") from None


def _local_propagators(schedule: Schedule, a_mat: np.ndarray, edges: np.ndarray):
    """(expm(A Delta_i), J_i) for every interval [e_i, e_{i+1}] of edges,
    J_i = int_{e_i}^{e_{i+1}} w(u) expm(A (u - e_i)) du, as (n, dtilde, dtilde)
    stacks.  For a weight w(u) = w(v) exp(c1 (u - v)) (schedule.weight_slope),
    both are blocks of one stacked exponential (Van Loan 1978):
        expm([[A, I], [0, -c1 I]] Delta_i) = [[expm(A Delta_i), J_i / w(e_{i+1})],
                                              [0,               exp(-c1 Delta_i) I]].
    Otherwise J_i is the quadrature of its local, bounded integrand."""
    lo, widths = edges[:-1], np.diff(edges)
    n = len(a_mat)
    if schedule.weight_slope is not None:
        c1 = schedule.weight_slope
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n], block[:n, n:], block[n:, n:] = a_mat, np.eye(n), -c1 * np.eye(n)
        # An exponential past the float range, exp(-c1 Delta) included, is
        # refused by _interval_exps, naming its interval; a J_i that
        # overflows from finite pieces is refused by _phi_path.
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = _interval_exps(widths, block)
            return (blocks[:, :n, :n],
                    blocks[:, :n, n:] * _weight(schedule, edges[1:])[:, None, None])

    def integrand(u):
        # Quadrature nodes arrive from all intervals at once; each finds its
        # interval's left edge.
        i = np.maximum(np.searchsorted(lo, u, side="right") - 1, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _expm(a_mat * (u - lo[i])[:, None, None])
            values *= _weight(schedule, u)[:, None, None]
        bad = ~np.isfinite(values).all(axis=(-2, -1))
        if bad.any():
            raise NumericalError(f"learning-rate path Phi: the integrand of interval {i[bad][0]} "
                                 f"overflows the float range at the node u = {u[bad][0]:.6g}")
        return values

    with np.errstate(over="ignore", invalid="ignore"):
        steps = _interval_exps(widths, a_mat)
    return steps, integrate_intervals(integrand, edges)


def _phi_path(schedule: Schedule, a_mat: np.ndarray, b_vec: np.ndarray,
              times) -> np.ndarray:
    """Phi(t) = exp(-gamma_t) b' M(t) on a sorted grid, with M propagated
    backward over the edges t_1, ..., t_K, T from M(T) = exp(delta_T) I by
        M(e_i) = expm(A Delta_i) M(e_{i+1}) - J_i
    (_local_propagators).  Every M is a function of A, so b' M follows the
    same recursion as a row.  Returns (len(times), dtilde)."""
    times = np.asarray(times, dtype=float)
    t0, T = schedule.t_min, schedule.horizon_T
    if times.ndim != 1 or not np.all(np.diff(times) >= 0):
        raise ValueError("times must be a sorted 1-d grid")
    if len(times) and not (t0 <= times[0] and times[-1] <= T + _HORIZON_SLACK):
        raise ValueError("times must lie in the schedule horizon")

    edges = np.append(np.minimum(times, T), T)  # a time within the slack past T is T
    steps, jumps = _local_propagators(schedule, a_mat, edges)
    try:
        row = math.exp(schedule.delta_T) * b_vec
    except OverflowError:
        raise NumericalError("learning-rate path Phi: the terminal value exp(delta_T) passes "
                             f"the float range at delta_T = {schedule.delta_T:.6g}") from None
    rows = [row]                                   # b' M at T, t_K, ..., t_1
    with np.errstate(over="ignore", invalid="ignore"):
        for step, b_jump in zip(steps[::-1], b_vec @ jumps[::-1]):
            row = row @ step - b_jump
            rows.append(row)
        decay = np.exp(-schedule.gamma(times))[:, None]
        out = decay * np.reshape(rows[:0:-1], (len(times), len(b_vec)))
    # An overflowing J_i or b' M leaves Phi non-finite from its mesh time
    # back, since the recursion runs backward from T; an overflowing
    # exp(-gamma) leaves it non-finite at its own mesh times.
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NumericalError("learning-rate path Phi: exp(-gamma) b' M passes the float "
                             f"range at the mesh time t = {times[bad][-1]:.6g}")
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


def phi_vector_path(schedule: Schedule, a_mat, b_vec, times) -> np.ndarray:
    """Vector learning-rate path of the linear state-space gradient model
    on a sorted time grid; a_mat must be positive definite.  Returns an
    array of shape (len(times), dtilde)."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    if not _positive_definite(a_mat):
        raise ValueError("A must be positive definite")
    return _phi_path(schedule, a_mat, np.atleast_1d(np.asarray(b_vec, dtype=float)), times)
