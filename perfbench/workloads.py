"""Benchmark workloads: experiment configs generated from a workload seed.

Each workload function takes (seed, output dir) and returns the raw config
dict that `varopt run` would parse from a file, plus the closed-form
learning-rate path for its schedule.
The workload seed fixes the seed list and the problem data, so a claim
can be re-checked on a seed not used while writing it; the program only
ever receives the generated config.
"""

from __future__ import annotations

import math
import random

import oracles


def _seeds(seed: int, count: int):
    """count run seeds and one problem seed, all distinct, from seed."""
    drawn = random.Random(seed).sample(range(1_000_000), count + 1)
    return drawn[:count], drawn[count]


def ensemble_quadratic(seed: int, output: str):
    """The README config at d = 8, N = 2000 over 4 seeds, started at
    x0 = 1: from the default x0 = 0, which lies within about sqrt(d / N) of
    the minimizer, mini-batch noise can end above the initial gap, so the
    convergence check would not be meaningful."""
    seeds, problem_seed = _seeds(seed, 4)
    params = {"alpha0": math.log(10.0), "beta0": -math.log(2.0), "gamma1": 10.0}
    horizon = 2.0
    delta_T = params["beta0"] + params["gamma1"] * horizon
    cfg = {
        "problem": {"kind": "quadratic", "d": 8, "N": 2000, "seed": problem_seed},
        "map": {"name": "quadratic"},
        "schedule": {"family": "linear", "params": params,
                     "delta_T": delta_T, "T": horizon},
        "mesh": {"steps": 20},
        "model": {"kind": "martingale", "sigma": 0.5, "n": 2000, "m": 50},
        "optimizer": {"kind": "mirror_sgd", "mode": "empirical", "x0": [1.0] * 8},
        "seeds": seeds,
        "output": output,
    }
    return cfg, lambda t: oracles.phi_scaling_linear(params, delta_T, horizon, t)


# Symmetric with nonnegative entries and eigenvalues 0.2, 0.05, 0.05, so
# lambda_max T = 4 and b' expm(A s) stays positive; b is not an
# eigenvector, so all three eigen-directions enter Phi.
_KALMAN_A = [[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]]
_KALMAN_B = [1.0, 0.5, 0.25]


def kalman_synthetic(seed: int, output: str):
    """kalman_gd on the simulated state-space stream, K = 500, T = 20."""
    seeds, _ = _seeds(seed, 2)
    alpha0 = math.log(25.0)
    # w = exp(alpha0 + beta0) = 0.01 keeps Phi positive on the horizon.
    params = {"alpha0": alpha0, "beta0": math.log(0.01) - alpha0}
    horizon, delta_T = 20.0, 0.0
    cfg = {
        "map": {"name": "quadratic"},
        "schedule": {"family": "constant", "params": params,
                     "delta_T": delta_T, "T": horizon},
        "mesh": {"steps": 500},
        "model": {"kind": "state_space", "d": 16, "dtilde": 3, "A": _KALMAN_A,
                  "L": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
                  "b": _KALMAN_B, "sigma": 0.5},
        "optimizer": {"kind": "kalman_gd", "mode": "synthetic"},
        "seeds": seeds,
        "output": output,
    }
    return cfg, lambda t: oracles.phi_constant_vector(
        params, delta_T, horizon, _KALMAN_A, _KALMAN_B, t)


def logistic_long(seed: int, output: str):
    """mirror_sgd on ridge-logistic N = 20000, d = 16, m = 64, K = 50."""
    seeds, problem_seed = _seeds(seed, 2)
    n, m, steps = 20000, 64, 50
    alpha0 = math.log(100.0)
    horizon = steps * math.exp(-alpha0)
    # Phi rises linearly from 0.3 n/m to n/m, so the filtered step
    # Phi (m/n) g has a scale between 0.3 and 1.
    w = 0.7 * (n / m) / horizon
    params = {"alpha0": alpha0, "beta0": math.log(w) - alpha0}
    delta_T = math.log(n / m)
    cfg = {
        "problem": {"kind": "logistic", "d": 16, "N": n, "seed": problem_seed},
        "map": {"name": "quadratic"},
        "schedule": {"family": "constant", "params": params,
                     "delta_T": delta_T, "T": horizon},
        "mesh": {"steps": steps},
        "model": {"kind": "martingale", "sigma": 1.0, "n": n, "m": m},
        "optimizer": {"kind": "mirror_sgd", "mode": "empirical"},
        "seeds": seeds,
        "output": output,
    }
    return cfg, lambda t: oracles.phi_constant_scalar(params, delta_T, horizon, t)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {fn.__name__: fn
             for fn in (ensemble_quadratic, kalman_synthetic, logistic_long)}

# The hostspeed kernel whose kind of work matches the bulk of each
# workload's experiment and of its set-up, from cProfile: Phi quadrature
# on scalars or 3 x 3 matrices; schedule checks and the mesh recursion;
# the logistic Newton solve and per-sample gradients over N x d arrays.
SPEED_KINDS = {
    "ensemble_quadratic": {"experiment_s": "small_array", "setup_s": "scalar"},
    "kalman_synthetic": {"experiment_s": "small_array", "setup_s": "scalar"},
    "logistic_long": {"experiment_s": "large_array", "setup_s": "large_array"},
}
