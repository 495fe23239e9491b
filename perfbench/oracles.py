"""Closed forms of the learning-rate path Phi for the benchmark schedules.

The library computes Phi by quadrature of w(u) = exp(alpha + beta + gamma)
and a subtraction from exp(delta_T).  For the three schedule shapes the
workloads use, the path has an exact form that involves no cancellation:

* scaling linear (alpha = alpha0, beta = beta0, gamma = gamma1 t with
  gamma1 = exp(alpha0) and delta_T = beta0 + gamma1 T): Phi = exp(beta0);
* constant scalar: Phi(t) = e^{-gamma0} (e^{delta_T} - w (T - t));
* constant vector: Phi(t) = e^{-gamma0} b' [e^{delta_T} E - w A^{-1} (E - I)]
  with E = expm(A (T - t)), evaluated through eigh of a symmetric A.

PHI_RTOL is the relative tolerance the benchmark holds the library to.
Phi multiplies every step, so a relative error of 1e-5 is far below the
mini-batch noise of any workload.  It admits the cancellation error of the
scaling linear path at the README horizon (about 1.3e-6 at gamma1 T = 20,
where exp(delta_T) / Phi = e^20) and flags a workload that drifts to
gamma1 T >= 30, where that error reaches 1e-2, or to a long vector horizon
where Phi overflows.
"""

from __future__ import annotations

import math

import numpy as np

PHI_RTOL = 1e-5


def phi_scaling_linear(params: dict, delta_T: float, horizon_T: float,
                       times) -> np.ndarray:
    """exp(beta0) on every time of the scaling linear schedule."""
    alpha0 = params.get("alpha0", 0.0)
    beta0 = params.get("beta0", 0.0)
    gamma1 = params.get("gamma1", 0.0)
    if any(params.get(k, 0.0) for k in ("alpha1", "beta1", "gamma0")):
        raise ValueError("oracle needs alpha1 = beta1 = gamma0 = 0")
    if not math.isclose(gamma1, math.exp(alpha0), rel_tol=1e-12):
        raise ValueError("oracle needs gamma1 = exp(alpha0)")
    if not math.isclose(delta_T, beta0 + gamma1 * horizon_T, rel_tol=1e-12):
        raise ValueError("oracle needs delta_T = beta0 + gamma1 T")
    return np.full(len(times), math.exp(beta0))


def _constant_exponents(params: dict):
    alpha0 = params.get("alpha0", 0.0)
    beta0 = params.get("beta0", 0.0)
    gamma0 = params.get("gamma0", 0.0)
    return math.exp(alpha0 + beta0 + gamma0), gamma0


def phi_constant_scalar(params: dict, delta_T: float, horizon_T: float,
                        times) -> np.ndarray:
    """e^{-gamma0} (e^{delta_T} - w (T - t)) for a constant schedule."""
    w, gamma0 = _constant_exponents(params)
    s = horizon_T - np.asarray(times, dtype=float)
    return math.exp(-gamma0) * (math.exp(delta_T) - w * s)


def phi_constant_vector(params: dict, delta_T: float, horizon_T: float,
                        a_mat, b_vec, times) -> np.ndarray:
    """Vector path of the state-space model on a constant schedule.

    Returns shape (len(times), dtilde).  A must be symmetric positive
    definite; in its eigenbasis E and A^{-1}(E - I) are diagonal, with
    expm1 keeping (e^{lambda s} - 1) / lambda exact for small lambda s.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    if not np.array_equal(a_mat, a_mat.T):
        raise ValueError("oracle needs a symmetric A")
    lam, vecs = np.linalg.eigh(a_mat)
    if lam.min() <= 0:
        raise ValueError("oracle needs a positive definite A")
    w, gamma0 = _constant_exponents(params)
    s = horizon_T - np.asarray(times, dtype=float)
    ls = np.outer(s, lam)
    coeff = math.exp(delta_T) * np.exp(ls) - w * np.expm1(ls) / lam
    return math.exp(-gamma0) * ((coeff * (b_vec @ vecs)) @ vecs.T)


def max_rel_err(phi, expected) -> float:
    """Largest normwise relative deviation over the time points."""
    phi = np.asarray(phi, dtype=float).reshape(len(expected), -1)
    expected = np.asarray(expected, dtype=float).reshape(len(expected), -1)
    scale = np.max(np.abs(expected), axis=1)
    return float(np.max(np.max(np.abs(phi - expected), axis=1) / scale))
