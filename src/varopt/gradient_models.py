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
  noise L dW has covariance L L' in every filter, as in simulate.

Each model draws its seeded stream on a mesh in one block (simulate); the
state-space model's discretization is written once, in discretize, and
the discrete recursion's covariance pass once, in _covariance_pass, which
kalman_discrete_step runs for one step and kalman_gd's gain pass for a
mesh.  An ensemble draws the streams of all its seeds with one call, each
seed from its own generator, and the latent recursion advances the states
of all seeds together; each row is bit for bit that seed's simulate.  The
filter-mean step acts on one d x dtilde mean or on a stack of them.

All coordinates share the same latent dynamics, so one covariance P is
maintained and applied row-wise to the d x dtilde filter mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bregman import _positive_definite

__all__ = [
    "MartingaleGradientModel",
    "StateSpaceGradientModel",
    "KalmanState",
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
# Lowest eigenvalue accepted in a posterior or steady covariance.
_POSTERIOR_PSD_FLOOR = -1e-10


class FilterDivergenceError(RuntimeError):
    """Covariance or innovation variance left its admissible region."""


def _mesh_steps(dts) -> np.ndarray:
    """dts as a float array; ValueError unless it is 1-d and positive."""
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or not np.all(dts > 0):
        raise ValueError("dts must be a 1-d array of positive mesh steps")
    return dts


@dataclass(frozen=True)
class MartingaleGradientModel:
    """Brownian gradient prior matched to mini-batching with n training
    points and batches of size m."""

    sigma: float
    n: int
    m: int
    d: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        if not (1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")

    @property
    def rho2(self) -> float:
        return (self.n - self.m) / self.m

    @property
    def filter_coefficient(self) -> float:
        # 1 / (1 + rho^2) = m / n exactly.
        return self.m / self.n

    def simulate(self, dts, rng: np.random.Generator):
        """(grad_true, g), each (K, d), on the K mesh steps dts.  Per step
        both Brownian states advance by sqrt(dt) times d standard normals,
        W^f's first, drawn for all K steps in one block and summed in step
        order."""
        return tuple(path[0] for path in self._simulate_seeds(dts, [rng]))

    def _simulate_seeds(self, dts, rngs):
        """simulate for every generator of rngs at once: (grad_true, g),
        each (S, K, d), row i drawn from rngs[i] alone."""
        dts = _mesh_steps(dts)
        increments = np.empty((len(rngs), len(dts), 2, self.d))
        for rng, block in zip(rngs, increments):
            rng.standard_normal(out=block)
        increments *= np.sqrt(dts)[:, None, None]
        w_f, w_e = np.moveaxis(np.cumsum(increments, axis=1), 2, 0)
        return self.sigma * w_f, self.sigma * (w_f + math.sqrt(self.rho2) * w_e)


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
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite")
        for name, mat in (("A", a), ("L", l)):
            if mat.shape != (self.dtilde, self.dtilde) or not np.isfinite(mat).all():
                raise ValueError(f"{name} must be a finite dtilde x dtilde matrix")
        # L enters only as L w and L L', so any square L is a noise factor.
        # A = 0 is the unfiltered kinds' drift-free prior.
        if a.any() and not _positive_definite(a):
            raise ValueError("A must be positive definite")

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

    def discretize(self, dts):
        """The model on the K mesh steps dts = exp(-alpha): transitions
        A_til_k = I - dt_k A (K, dtilde, dtilde), noise factors
        L_til_k = dt_k L (K, dtilde, dtilde) and observation noise scales
        sigma_k = sigma dt_k (K,); the model noise carries the same
        exp(-alpha) factor as the mesh."""
        dts = _mesh_steps(dts)
        steps = dts[:, None, None]
        return np.eye(self.dtilde) - steps * self.a_mat, steps * self.l_mat, self.sigma * dts

    def simulate(self, dts, rng: np.random.Generator):
        """(grad_true, g), each (K, d), of the discretized model from y = 0.
        Step k advances every latent row by
            y <- y A_til_k' + w L_til_k',      g = y b + sigma_k xi,
        with standard normals w (d x dtilde) then xi (d), drawn for all K
        steps in one block; only the current latent state is kept."""
        return tuple(path[0] for path in self._simulate_seeds(dts, [rng]))

    def _simulate_seeds(self, dts, rngs):
        """simulate for every generator of rngs at once: (grad_true, g),
        each (S, K, d).  Each generator fills its own block of draws, and
        the latent recursion advances the (S, d, dtilde) stack of states,
        so row i is bit for bit simulate(dts, rngs[i])."""
        a_tils, l_tils, sigmas = self.discretize(dts)
        n_seeds, k_steps, d, n_w = len(rngs), len(sigmas), self.d, self.d * self.dtilde
        draws = np.empty((n_seeds, k_steps, n_w + d))
        for rng, block in zip(rngs, draws):
            rng.standard_normal(out=block)
        w = draws[..., :n_w].reshape(n_seeds, k_steps, d, self.dtilde)
        grad_true = np.empty((n_seeds, k_steps, d))
        y = np.zeros((n_seeds, d, self.dtilde))
        for k in range(k_steps):
            y = y @ a_tils[k].T + w[:, k] @ l_tils[k].T
            grad_true[:, k] = y @ self.b_vec
        return grad_true, grad_true + sigmas[:, None] * draws[..., n_w:]


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


def _psd_prefix(stack: np.ndarray, floor: float, what: str):
    """(k, error) for a (K, dtilde, dtilde) stack of symmetric matrices,
    checked with one eigvalsh: the first k are finite with no eigenvalue
    below floor, and error names the lowest eigenvalue of the next one, or
    says that it is not finite (None when all K pass).  eigvalsh of a
    matrix with a NaN entry need not be NaN, so finiteness is its own test."""
    n_finite = len(stack)
    if not np.isfinite(stack).all():
        n_finite = int(np.isfinite(stack).all(axis=(-2, -1)).argmin())
    min_eigs = np.linalg.eigvalsh(stack[:n_finite]).min(axis=-1).tolist()
    for k, min_eig in enumerate(min_eigs):
        if min_eig < floor:
            return k, FilterDivergenceError(
                f"{what} lost positive semi-definiteness (min eigenvalue {min_eig:.3e})")
    return n_finite, (None if n_finite == len(stack)
                      else FilterDivergenceError(f"{what} is not finite"))


def kalman_mean_update(y_hat: np.ndarray, g_k: np.ndarray, a_tilde: np.ndarray,
                       b_vec: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Filter-mean step of every coordinate row with a given gain:
    y_hat' = y_hat A_til' + (g - y_hat A_til' b) gain', for one mean
    (d, dtilde) observed through g (d,) or a stack (..., d, dtilde) with
    g (..., d)."""
    pred_mean = y_hat @ a_tilde.T                             # ... x d x dtilde
    return pred_mean + (g_k - pred_mean @ b_vec)[..., None] * gain


def _innovation_variance(sigma_disc, b_p_b: float) -> float:
    """sigma_disc^2 + b' P b; FilterDivergenceError unless it is positive
    and finite.  The square is a float product, which overflows to inf
    where ** raises OverflowError."""
    s = float(sigma_disc) * float(sigma_disc) + b_p_b
    if not 0 < s < math.inf:
        raise FilterDivergenceError(f"innovation variance is not positive and finite ({s:.3e})")
    return s


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _kalman_cov_step(p_post, a_tilde, q, b_vec, sigma_disc):
    """Covariance part of one discrete Kalman step: (P_pred, gain, s, P_post)."""
    p_pred = a_tilde.dot(p_post).dot(a_tilde.T)
    p_pred += q
    p_pred = 0.5 * (p_pred + p_pred.T)
    return (p_pred,) + _kalman_update(p_pred, b_vec, sigma_disc)


def _kalman_update(p_pred, b_vec, sigma_disc):
    """Measurement update of a predicted covariance: (gain, s, P_post)."""
    s = _innovation_variance(sigma_disc, float(b_vec.dot(p_pred).dot(b_vec)))
    gain = p_pred.dot(b_vec) / s
    p_post = (_identity(len(b_vec)) - gain[:, None] * b_vec).dot(p_pred)
    return gain, s, 0.5 * (p_post + p_post.T)


def _covariance_pass(p_post, a_tils, qs, b_vec, sigmas):
    """The covariance part of the discrete Kalman recursion from the
    posterior covariance p_post over K steps (a_tils, qs, sigmas):
    (p_preds, gains, s_innovs, p_posts) of the first k steps, stacked, and
    the error of step k (None when k = K).  A PSD failure of a posterior,
    found by one stacked eigvalsh, wins over a later non-positive
    innovation variance."""
    k_steps, n = len(sigmas), len(b_vec)
    p_preds, p_posts = np.empty((k_steps, n, n)), np.empty((k_steps, n, n))
    gains, s_innovs = np.empty((k_steps, n)), np.empty(k_steps)
    n_steps, error = k_steps, None
    for k in range(k_steps):
        try:
            p_preds[k], gains[k], s_innovs[k], p_post = _kalman_cov_step(
                p_post, a_tils[k], qs[k], b_vec, sigmas[k])
        except FilterDivergenceError as exc:
            n_steps, error = k, exc
            break
        p_posts[k] = p_post
    k, psd_error = _psd_prefix(p_posts[:n_steps], _POSTERIOR_PSD_FLOOR, "posterior covariance")
    return (p_preds[:k], gains[:k], s_innovs[:k], p_posts[:k],
            error if psd_error is None else psd_error)


def kalman_discrete_step(state: KalmanState, g_k: np.ndarray, a_tilde: np.ndarray,
                         l_tilde: np.ndarray, b_vec: np.ndarray,
                         sigma_disc: float) -> KalmanState:
    """One step of the discrete Kalman recursion (the one-step _covariance_pass),
    applied with the same covariance and gain to every coordinate row of the
    mean (none for a zero-row state).  The process noise L_til w has
    covariance L_til L_til'."""
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    l_tilde = np.atleast_2d(np.asarray(l_tilde, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))

    p_preds, gains, s_innovs, p_posts, error = _covariance_pass(
        state.p_post, [a_tilde], [l_tilde @ l_tilde.T], b_vec, [sigma_disc])
    if error is not None:
        raise error
    y_hat = kalman_mean_update(state.y_hat, g_k, a_tilde, b_vec, gains[0])
    return KalmanState(y_hat=y_hat, p_post=p_posts[0], gain=gains[0],
                       s_innov=float(s_innovs[0]), p_pred=p_preds[0])


def kalman_bucy_step(state: KalmanState, g_t: np.ndarray, dt: float,
                     model: StateSpaceGradientModel) -> KalmanState:
    """Explicit Euler step of the Kalman-Bucy mean/Riccati system.

    dy_hat = -A y_hat dt + sigma^{-2} P b (g - b'y_hat) dt,
    dP     = (-A P - P A' - sigma^{-2} P b b' P + L L') dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, l, b = model.a_mat, model.l_mat, model.b_vec
    sig2 = model.sigma ** 2
    if sig2 <= 0:
        raise ValueError("Kalman-Bucy filtering needs sigma > 0")
    p = state.p_post
    g_t = np.atleast_1d(np.asarray(g_t, dtype=float))

    innovation = g_t - state.y_hat.dot(b)                     # d
    p_b = p.dot(b)
    gain = p_b / sig2                                         # dtilde
    y_hat = state.y_hat + dt * ((-state.y_hat).dot(a.T) + np.outer(innovation, gain))
    a_p = a.dot(p)                                            # P A' = (A P)'
    p_dot = l.dot(l.T) - a_p - a_p.T - np.outer(p_b, gain)
    p_new = p + dt * p_dot
    p_new = 0.5 * (p_new + p_new.T)
    _, error = _psd_prefix(p_new[None], -1e-8, "Riccati covariance")
    if error is not None:
        raise error
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
    FilterDivergenceError on an s that is not positive and finite, on a
    non-finite iterate (no stabilizing solution, as with an unobserved
    unstable mode) and after _MAX_DOUBLINGS doublings.
    """
    eye = np.eye(len(b_vec))
    a, f, h = a_tilde.T, np.zeros_like(eye), q
    # Overflow is caught as a non-finite iterate below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS):
            m_inv = np.linalg.solve(eye + f @ h, eye)
            c, e = m_inv @ b_vec, b_vec @ h @ m_inv
            s = _innovation_variance(sigma_disc, float(e @ b_vec))
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
    which must be PSD and which that step's predicted covariance must
    reproduce to STEADY_GAIN_RESIDUAL relative to max |P|; else
    FilterDivergenceError."""
    a_tilde = np.atleast_2d(np.asarray(a_tilde, dtype=float))
    l_tilde = np.atleast_2d(np.asarray(l_tilde, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))
    q = l_tilde @ l_tilde.T
    p_steady = _steady_covariance(a_tilde, q, b_vec, sigma_disc)
    _, error = _psd_prefix(p_steady[None], _POSTERIOR_PSD_FLOOR, "steady covariance")
    if error is not None:
        raise error
    _, _, p_post = _kalman_update(p_steady, b_vec, sigma_disc)
    p_pred, gain, _, _ = _kalman_cov_step(p_post, a_tilde, q, b_vec, sigma_disc)
    resid, scale = float(np.abs(p_pred - p_steady).max()), float(np.abs(p_steady).max())
    if not resid <= STEADY_GAIN_RESIDUAL * scale:
        raise FilterDivergenceError(
            f"steady covariance fails the Riccati check (residual {resid:.3e}, "
            f"max |P| {scale:.3e})")
    return gain
