"""Fixtures shared by the test modules, and the import path of the
benchmark's closed forms of Phi (perfbench/oracles.py), which the tests
check against too."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from varopt import StateSpaceGradientModel, kalman_bucy_step
from varopt.gradient_models import initial_kalman_state


@pytest.fixture(scope="session")
def riccati_equilibrium_state():
    """The Kalman-Bucy state after 100 000 steps of dt = 1e-4 from p0 = 1,
    with g = 0 and scalar A = L = b = sigma = 1; two tests check its
    covariance against the stationary value sqrt(2) - 1."""
    model = StateSpaceGradientModel(a_mat=np.array([[1.0]]),
                                    l_mat=np.array([[1.0]]),
                                    b_vec=np.array([1.0]), sigma=1.0)
    state = initial_kalman_state(1, 1, p0=np.array([[1.0]]))
    for _ in range(100_000):
        state = kalman_bucy_step(state, np.zeros(1), 1e-4, model)
    return state
