"""Independent oracles, and the schedule, that more than one test module uses."""

import math

import numpy as np

from varopt import linear_schedule


def scaling_linear(steps=20, beta0=-0.7, dt=1.0):
    """Linear schedule satisfying the scaling conditions with constant
    alpha and beta whose mesh covers the horizon in exactly `steps`
    steps of size dt.  delta_T is chosen so the learning-rate path is
    the constant exp(beta0)."""
    c = 1.0 / dt
    horizon_T = steps * dt
    return linear_schedule(alpha0=math.log(c), beta0=beta0, gamma1=c,
                           delta_T=beta0 + c * horizon_T, horizon_T=horizon_T)


def fine_simpson(fn, a, b, panels=4096):
    """Independent fixed-grid composite Simpson oracle."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum(axis=0)
                      + 2.0 * ys[2:-1:2].sum(axis=0))


def conditioning_oracle(a_til, l_til, b, sigma_d, p0, g_obs):
    """E[y_k | g_1..g_k] and its covariance by direct joint-Gaussian
    conditioning on the stacked noise basis."""
    k = len(g_obs)
    dt = len(b)
    q = l_til @ l_til.T
    dim = dt + k * dt + k          # y0, w_1..w_k, xi_1..xi_k
    cov = np.zeros((dim, dim))
    cov[:dt, :dt] = p0
    for j in range(k):
        cov[dt + j * dt: dt + (j + 1) * dt, dt + j * dt: dt + (j + 1) * dt] = q
    for j in range(k):
        cov[dt + k * dt + j, dt + k * dt + j] = 1.0

    # y_j as a linear map of the basis.
    maps = []
    cur = np.zeros((dt, dim))
    cur[:, :dt] = np.eye(dt)
    for j in range(k):
        cur = a_til @ cur
        cur = cur.copy()
        cur[:, dt + j * dt: dt + (j + 1) * dt] += np.eye(dt)
        maps.append(cur)
    g_map = np.zeros((k, dim))
    for j in range(k):
        g_map[j] = b @ maps[j]
        g_map[j, dt + k * dt + j] = sigma_d

    s_gg = g_map @ cov @ g_map.T
    c_yg = maps[-1] @ cov @ g_map.T
    sol = np.linalg.solve(s_gg, np.asarray(g_obs))
    mean = c_yg @ sol
    p_cond = maps[-1] @ cov @ maps[-1].T - c_yg @ np.linalg.solve(s_gg, c_yg.T)
    return mean, 0.5 * (p_cond + p_cond.T)
