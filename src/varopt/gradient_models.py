"""Latent gradient-process models and the filters that track them.

Two priors on the gradient stream are supported:

* martingale model: the true gradient is a scaled Brownian motion
  sigma W^f and observations are g = sigma (W^f + rho W^e) with
  rho^2 = (n - m) / m, the mini-batch variance inflation.  Its Bayes
  filter is the constant rescaling g -> g / (1 + rho^2) = (m/n) g.
* linear state-space model: each gradient coordinate is b' y_i with a
  latent OU-type state dy = -A y dt + L dW observed through white noise
  of scale sigma.  Its filters are the Kalman-Bucy equations in
  continuous time and the standard four-equation Kalman recursion in
  discrete time, whose gains converge to a steady-state gain K_inf.
  K_inf comes from the steady predicted covariance, the solution of the
  recursion's discrete Riccati equation, found by structure-preserving
  doubling in O(log 1/dt) steps.  One step of the recursion from that
  solution must then reproduce it to STEADY_GAIN_RESIDUAL.  The process
  noise L dW has covariance L L' in every filter, as in the stream
  simulator.

All coordinates share the same latent dynamics, so one covariance P is
maintained and applied row-wise to the d x dtilde filter mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MartingaleGradientModel",
    "StateSpaceGradientModel",
    "KalmanState",
    "MartingaleStream",
    "StateSpaceStream",
    "martingale_filter",
    "kalman_mean_update",
    "kalman_discrete_step",
    "kalman_bucy_step",
    "kalman_steady_gain",
    "initial_kalman_state",
    "FilterDivergenceError",
]


# Relative residual allowed when one recursion step from the doubling
# solution P is checked against P.  The residual is rounding, amplified by
# the conditioning of I + G H, which grows like 1/dt.  On
# A = [[0.5, 0.1], [0.1, 0.4]], L = 0.5 I, b = [1, 0.5], sigma = 0.5 it is
# 1e-16 at dt = 0.1, 1.5e-12 at dt = 1e-5 and 6e-10 at dt = 1e-8; on 3000
# random stable models with dtilde <= 5 and dt >= 1e-5 it stayed below
# 3e-11.  The bound admits that rounding down to dt ~ 1e-8 and refuses a
# P that is not a fixed point to nine digits.
STEADY_GAIN_RESIDUAL = 1e-9
# Doubling k covers 2^k steps of the recursion; 64 doublings cover more
# steps than any float64 mesh holds.
_MAX_DOUBLINGS = 64
# Lowest eigenvalue accepted in a posterior covariance of the discrete filter.
_POSTERIOR_PSD_FLOOR = -1e-10


class FilterDivergenceError(RuntimeError):
    """Covariance or innovation variance left its admissible region."""


@dataclass(frozen=True)
class MartingaleGradientModel:
    """Brownian gradient prior matched to mini-batching with n training
    points and batches of size m."""

    sigma: float
    n: int
    m: int
    d: int = 1

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not (1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")

    @property
    def rho2(self) -> float:
        return (self.n - self.m) / self.m

    @property
    def filter_coefficient(self) -> float:
        # 1 / (1 + rho^2) = m / n exactly.
        return self.m / self.n


@dataclass(frozen=True)
class StateSpaceGradientModel:
    """Linear-diffusion gradient prior: dy = -A y dt + L dW, g = b'y + sigma xi."""

    a_mat: np.ndarray
    l_mat: np.ndarray
    b_vec: np.ndarray
    sigma: float
    d: int = 1

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        l = np.atleast_2d(np.asarray(self.l_mat, dtype=float))
        b = np.atleast_1d(np.asarray(self.b_vec, dtype=float))
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "l_mat", l)
        object.__setattr__(self, "b_vec", b)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        for name, mat in (("A", a), ("L", l)):
            if mat.shape != (self.dtilde, self.dtilde):
                raise ValueError(f"{name} must be dtilde x dtilde")
            if np.allclose(mat, 0):
                continue
            try:
                np.linalg.cholesky(0.5 * (mat + mat.T))
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite") from None

    @property
    def dtilde(self) -> int:
        return len(self.b_vec)

    def stationary_covariance(self) -> np.ndarray:
        """Covariance solving A P + P A' = L L' (continuous Lyapunov),
        used as the default prior covariance of the latent state."""
        a = self.a_mat
        q = self.l_mat @ self.l_mat.T
        n = a.shape[0]
        # Vectorized Lyapunov solve: (I (x) A + A (x) I) vec(P) = vec(Q).
        k = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
        p = np.linalg.solve(k, q.reshape(-1)).reshape(n, n)
        return 0.5 * (p + p.T)


class MartingaleStream:
    """Seeded simulator of the martingale model's gradient stream.

    Both Brownian states advance by independent N(0, dt) increments
    scaled by sigma; the same seed reproduces the stream bit for bit.
    """

    def __init__(self, model: MartingaleGradientModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.w_f = np.zeros(model.d)
        self.w_e = np.zeros(model.d)

    def step(self, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        model = self.model
        sqdt = math.sqrt(dt)
        self.w_f = self.w_f + sqdt * self.rng.standard_normal(model.d)
        self.w_e = self.w_e + sqdt * self.rng.standard_normal(model.d)
        grad_true = model.sigma * self.w_f
        rho = math.sqrt(model.rho2)
        g = model.sigma * (self.w_f + rho * self.w_e)
        return grad_true, g


class StateSpaceStream:
    """Seeded simulator of the discretized state-space model.

    One mesh step of size dt = exp(-alpha) advances every latent row by
        y <- (I - dt A) y + dt L w,      g = b'y + sigma dt xi,
    with standard normal draws w, xi (the model noise carries the same
    exp(-alpha) factor as the mesh).
    """

    def __init__(self, model: StateSpaceGradientModel, rng: np.random.Generator,
                 y0: np.ndarray | None = None):
        self.model = model
        self.rng = rng
        if y0 is None:
            self.y = np.zeros((model.d, model.dtilde))
        else:
            self.y = np.array(y0, dtype=float).reshape(model.d, model.dtilde)

    def step(self, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        model = self.model
        a_til = np.eye(model.dtilde) - dt * model.a_mat
        l_til = dt * model.l_mat
        w = self.rng.standard_normal((model.d, model.dtilde))
        xi = self.rng.standard_normal(model.d)
        self.y = self.y @ a_til.T + w @ l_til.T
        grad_true = self.y @ model.b_vec
        g = grad_true + model.sigma * dt * xi
        return grad_true, g


@dataclass(frozen=True)
class KalmanState:
    """Filter state shared across the d independent gradient coordinates."""

    y_hat: np.ndarray        # d x dtilde posterior mean
    p_post: np.ndarray       # dtilde x dtilde posterior covariance
    gain: np.ndarray         # dtilde gain vector
    s_innov: float           # scalar innovation variance
    p_pred: np.ndarray       # dtilde x dtilde predicted covariance


def initial_kalman_state(d: int, dtilde: int, p0: np.ndarray | None = None) -> KalmanState:
    p0 = np.eye(dtilde) if p0 is None else np.atleast_2d(np.asarray(p0, dtype=float))
    return KalmanState(
        y_hat=np.zeros((d, dtilde)),
        p_post=p0,
        gain=np.zeros(dtilde),
        s_innov=float("nan"),
        p_pred=p0,
    )


def martingale_filter(model: MartingaleGradientModel, g: np.ndarray) -> np.ndarray:
    """Best estimate of the true gradient under the martingale prior:
    g / (1 + rho^2), i.e. the mini-batch rescaling (m/n) g."""
    return model.filter_coefficient * np.asarray(g, dtype=float)


def _psd_error(min_eigenvalue: float, what: str) -> FilterDivergenceError:
    return FilterDivergenceError(
        f"{what} lost positive semi-definiteness (min eigenvalue {min_eigenvalue:.3e})"
    )


def _check_psd(p: np.ndarray, floor: float, what: str) -> None:
    eigs = np.linalg.eigvalsh(p)
    if eigs.min() < floor:
        raise _psd_error(eigs.min(), what)


def _posterior_psd_prefix(p_posts: np.ndarray):
    """(k, error) for a (K, dtilde, dtilde) stack of posterior covariances,
    checked with one eigvalsh: the first k pass the check of
    kalman_discrete_step, and error is that step's error for the next
    one (None when all K pass)."""
    min_eigs = np.linalg.eigvalsh(p_posts).min(axis=-1)
    bad = np.flatnonzero(min_eigs < _POSTERIOR_PSD_FLOOR)
    if not bad.size:
        return len(p_posts), None
    return int(bad[0]), _psd_error(min_eigs[bad[0]], "posterior covariance")


def kalman_mean_update(y_hat: np.ndarray, g_k: np.ndarray, a_tilde: np.ndarray,
                       b_vec: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Filter-mean step of every coordinate row with a given gain:
    y_hat' = y_hat A_til' + (g - y_hat A_til' b) gain'."""
    pred_mean = y_hat @ a_tilde.T                             # d x dtilde
    return pred_mean + np.outer(g_k - pred_mean @ b_vec, gain)


def _innovation_error(s: float) -> FilterDivergenceError:
    return FilterDivergenceError(f"innovation variance is not positive ({s:.3e})")


def _kalman_cov_step(p_post, a_tilde, q, b_vec, sigma_disc):
    """Covariance part of one discrete Kalman step: (P_pred, gain, s, P_post)."""
    p_pred = a_tilde @ p_post @ a_tilde.T + q
    p_pred = 0.5 * (p_pred + p_pred.T)
    return (p_pred,) + _kalman_update(p_pred, b_vec, sigma_disc)


def _kalman_update(p_pred, b_vec, sigma_disc):
    """Measurement update of a predicted covariance: (gain, s, P_post)."""
    s = sigma_disc ** 2 + float(b_vec @ p_pred @ b_vec)
    if s <= 0:
        raise _innovation_error(s)
    gain = p_pred @ b_vec / s
    p_post = (np.eye(len(b_vec)) - np.outer(gain, b_vec)) @ p_pred
    return gain, s, 0.5 * (p_post + p_post.T)


def kalman_discrete_step(state: KalmanState, g_k: np.ndarray, a_tilde: np.ndarray,
                         l_tilde: np.ndarray, b_vec: np.ndarray,
                         sigma_disc: float) -> KalmanState:
    """One step of the discrete Kalman recursion, applied with the same
    covariance and gain to every coordinate row of the mean (none for a
    zero-row state).  The process noise L_til w has covariance L_til L_til'."""
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    l_tilde = np.atleast_2d(np.asarray(l_tilde, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))

    p_pred, gain, s, p_post = _kalman_cov_step(state.p_post, a_tilde,
                                               l_tilde @ l_tilde.T, b_vec, sigma_disc)
    _check_psd(p_post, _POSTERIOR_PSD_FLOOR, "posterior covariance")
    y_hat = kalman_mean_update(state.y_hat, g_k, a_tilde, b_vec, gain)
    return KalmanState(y_hat=y_hat, p_post=p_post, gain=gain, s_innov=s,
                       p_pred=p_pred)


def kalman_bucy_step(state: KalmanState, g_t: np.ndarray, dt: float,
                     model: StateSpaceGradientModel) -> KalmanState:
    """Explicit Euler step of the Kalman-Bucy mean/Riccati system.

    dy_hat = -A y_hat dt + sigma^{-2} P b (g - b'y_hat) dt,
    dP     = (-A P - P'A - sigma^{-2} P b b' P' + L L') dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, l, b = model.a_mat, model.l_mat, model.b_vec
    sig2 = model.sigma ** 2
    if sig2 <= 0:
        raise ValueError("Kalman-Bucy filtering needs sigma > 0")
    p = state.p_post
    g_t = np.atleast_1d(np.asarray(g_t, dtype=float))

    innovation = g_t - state.y_hat @ b                        # d
    gain = p @ b / sig2                                       # dtilde
    y_hat = state.y_hat + dt * (-state.y_hat @ a.T + np.outer(innovation, gain))
    p_dot = -a @ p - p.T @ a - (p @ np.outer(b, b) @ p.T) / sig2 + l @ l.T
    p_new = p + dt * p_dot
    p_new = 0.5 * (p_new + p_new.T)
    _check_psd(p_new, -1e-8, "Riccati covariance")
    return KalmanState(y_hat=y_hat, p_post=p_new, gain=gain,
                       s_innov=sig2, p_pred=p_new)


def _steady_covariance(a_tilde, q, b_vec, sigma_disc) -> np.ndarray:
    """Steady predicted covariance P of the time-invariant discrete filter:
    the solution of the discrete Riccati equation of kalman_discrete_step,
    P = A_til P (I + G P)^{-1} A_til' + Q with G = b b' / sigma_disc^2.

    Structure-preserving doubling (Anderson 1978; Chu, Fan, Lin & Wang
    2004) starts from A = A_til', G and H = Q and repeats

        W = (I + G H)^{-1},  A <- A W A,  G <- G + A W G A',  H <- H + A' H W A;

    doubling k covers 2^k recursion steps and H tends to P.  G is carried
    as b b' / sigma_disc^2 + F with only F stored: with M = I + F H,
    Sherman-Morrison gives W = M^{-1} - c e' / s and W G = W F + c b' / s,
    where c = M^{-1} b, e' = b' H M^{-1} and s = sigma_disc^2 + e'b, all
    finite at sigma_disc = 0.  Since H W <= H, an update changes H by at
    most ||A||^2 ||H||, so the loop stops once ||A||_F^2 < eps.
    FilterDivergenceError on a non-positive s, on a non-finite iterate (no
    stabilizing solution, as with an unobserved unstable mode) and after
    _MAX_DOUBLINGS doublings.
    """
    eye = np.eye(len(b_vec))
    a, f, h = a_tilde.T, np.zeros_like(eye), q
    # Overflow is caught as a non-finite iterate below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS):
            m_inv = np.linalg.solve(eye + f @ h, eye)
            c, e = m_inv @ b_vec, b_vec @ h @ m_inv
            s = sigma_disc ** 2 + float(e @ b_vec)
            if not s > 0:
                raise _innovation_error(s)
            w = m_inv - np.outer(c, e) / s
            f = f + a @ (w @ f + np.outer(c, b_vec) / s) @ a.T
            h = h + a.T @ h @ w @ a
            a = a @ w @ a
            f, h = 0.5 * (f + f.T), 0.5 * (h + h.T)
            if not (np.isfinite(a).all() and np.isfinite(f).all() and np.isfinite(h).all()):
                raise FilterDivergenceError(
                    "steady-gain doubling diverged: the filter has no stabilizing "
                    "steady covariance (is an unstable mode unobserved?)")
            if np.sum(a * a) < np.finfo(float).eps:
                return h
    raise FilterDivergenceError(
        f"steady-gain doubling did not converge in {_MAX_DOUBLINGS} doublings")


def kalman_steady_gain(a_tilde: np.ndarray, l_tilde: np.ndarray, b_vec: np.ndarray,
                       sigma_disc: float) -> np.ndarray:
    """Steady-state gain of the time-invariant discrete filter: the gain of
    one _kalman_cov_step from the doubling solution P (_steady_covariance),
    whose predicted covariance must reproduce P to STEADY_GAIN_RESIDUAL
    relative to max |P|; FilterDivergenceError otherwise."""
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    l_tilde = np.atleast_2d(np.asarray(l_tilde, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))
    q = l_tilde @ l_tilde.T
    p_steady = _steady_covariance(a_tilde, q, b_vec, sigma_disc)
    _, _, p_post = _kalman_update(p_steady, b_vec, sigma_disc)
    p_pred, gain, _, _ = _kalman_cov_step(p_post, a_tilde, q, b_vec, sigma_disc)
    resid, scale = float(np.abs(p_pred - p_steady).max()), float(np.abs(p_steady).max())
    if not resid <= STEADY_GAIN_RESIDUAL * scale:
        raise FilterDivergenceError(
            f"steady covariance fails the Riccati check (residual {resid:.3e}, "
            f"max |P| {scale:.3e})")
    return gain
