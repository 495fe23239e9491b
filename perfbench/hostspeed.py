"""Reference kernels that measure how fast the host runs right now.

A shared host's speed drifts by up to 2x within a minute, and every wall
time drifts with it, so the medians of two runs of the same code can
differ by a third.  The drift does not slow all code alike: Python loops
over numpy calls on tiny arrays suffer differently from numpy over large
arrays.  Each kernel below is fixed work of one of these kinds that runs
no varopt code.  run.py times the kernel that matches a stage's work just
before and just after the stage, and reports the stage's time as it
would read on a host where the kernel takes its nominal time:

    elapsed * NOMINAL_S[kind] / mean(kernel time before, kernel time after)

A change to varopt moves the stage's time and not the kernel's, so the
rescaled time moves with the change and not with the host.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

_A = np.array([[0.1, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.1]])
_EYE = np.eye(3)
_X = np.random.default_rng(0).standard_normal((20000, 16))
_Y = np.sign(np.random.default_rng(1).standard_normal(20000))
_ROWS = np.random.default_rng(2).integers(0, len(_X), (6, 64))


def _scalar() -> float:
    """Python float arithmetic, like the mesh recursion and the schedule's
    alpha, beta and gamma."""
    weight = lambda u: math.exp(0.3 * u - 0.1 * u * u)
    return sum(weight(i * 1e-5) for i in range(100000))


def _small_array() -> float:
    """numpy calls on 3 x 3 arrays (Taylor series of expm), like the
    quadrature of the learning-rate path and the per-step updates."""
    total = 0.0
    for _ in range(300):
        result = term = _EYE
        for j in range(1, 8):
            term = term @ _A / j
            result = result + term
            total += float(np.max(np.abs(term)))
    return total


def _large_array() -> float:
    """numpy over a 20000 x 16 array with 20000 x 16 temporaries
    (per-sample logistic gradients, a mini-batch mean and the full-data
    loss), like the logistic problem's steps and its generation."""
    w = np.full(16, 0.01)
    total = 0.0
    for rows in _ROWS:
        margins = _Y * (_X @ w)
        grads = (-_Y / (1.0 + np.exp(margins)))[:, None] * _X + 1e-3 * w[None, :]
        w = w - 0.1 * grads[rows].mean(axis=0)
        total += float(np.mean(np.logaddexp(0.0, -margins)))
    return total


KERNELS = {"scalar": _scalar, "small_array": _small_array, "large_array": _large_array}
# Each kernel's time on an idle 2-vCPU x86-64 VM (Python 3, one BLAS
# thread), so rescaled times read as seconds on that host.
NOMINAL_S = {"scalar": 0.013, "small_array": 0.010, "large_array": 0.012}


def time_kernels(kinds) -> dict:
    """Wall time of one run of each named kernel."""
    gc.collect()
    times = {}
    for kind in kinds:
        start = time.perf_counter()
        KERNELS[kind]()
        times[kind] = time.perf_counter() - start
    return times


def at_nominal_speed(elapsed: float, kind: str, before: dict, after: dict) -> float:
    """elapsed rescaled to the host speed at which kernel kind takes
    NOMINAL_S[kind], from its times just before and just after."""
    return elapsed * NOMINAL_S[kind] / (0.5 * (before[kind] + after[kind]))
