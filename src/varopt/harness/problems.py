"""Synthetic finite-sum problems with known minimizers.

Losses have the empirical-risk form f(x) = (1/N) sum_i l(x; z_i).  Two
families ship:

* quadratic: l(x; z) = 1/2 ||x - z||^2 with data z_i drawn standard
  normal; the minimizer is the sample mean and f(x*) is the within-
  sample variance, both exact.
* logistic: ridge-regularized binary logistic regression; the minimizer
  is found once at generation time by a full-batch Newton solve to a
  1e-10 gradient norm.

Mini-batch gradients sample m indices without replacement per batch,
independently across steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ProblemInstance", "generate_problem"]

_REFERENCE_TOL = 1e-10


@dataclass
class ProblemInstance:
    """A finite-sum loss with a certified minimizer."""

    kind: str                      # "quadratic" or "logistic"
    d: int
    n: int
    x_star: np.ndarray
    f_star: float
    z: np.ndarray                  # quadratic: (n, d) data points
    features: Optional[np.ndarray] = None   # logistic: (n, d)
    labels: Optional[np.ndarray] = None     # logistic: (n,) in {-1, +1}
    ridge: float = 0.0

    def loss(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            diff = x[None, :] - self.z
            return 0.5 * float(np.mean(np.sum(diff * diff, axis=1)))
        margins = self.labels * (self.features @ x)
        return float(np.mean(np.logaddexp(0.0, -margins))
                     + 0.5 * self.ridge * float(x @ x))

    def per_sample_gradients(self, x) -> np.ndarray:
        """(n, d) array of per-sample loss gradients at x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return x[None, :] - self.z
        margins = self.labels * (self.features @ x)
        w = -self.labels / (1.0 + np.exp(margins))
        return w[:, None] * self.features + self.ridge * x[None, :]

    def full_gradient(self, x) -> np.ndarray:
        # Same arithmetic order as the stored average so the m = n
        # mini-batch call reproduces it exactly.
        return self.per_sample_gradients(x).mean(axis=0)

    def minibatch_gradient(self, x, m: int, rng: np.random.Generator) -> np.ndarray:
        if not (1 <= m <= self.n):
            raise ValueError(f"batch size must satisfy 1 <= m <= {self.n}")
        if m == self.n:
            return self.full_gradient(x)
        idx = rng.choice(self.n, size=m, replace=False)
        grads = self.per_sample_gradients(np.asarray(x, dtype=float))
        return grads[idx].mean(axis=0)


def generate_problem(kind: str, d: int, n: int, rng: np.random.Generator,
                     ridge: float = 1e-2) -> ProblemInstance:
    """Draw a random problem instance of the requested family."""
    if d > 64 or n > 100_000:
        raise ValueError("problem generation is desk scale: d <= 64, N <= 1e5")
    if kind == "quadratic":
        z = rng.standard_normal((n, d))
        x_star = z.mean(axis=0)
        problem = ProblemInstance(kind="quadratic", d=d, n=n, x_star=x_star,
                                  f_star=0.0, z=z)
        problem.f_star = problem.loss(x_star)
        return problem
    if kind == "logistic":
        features = rng.standard_normal((n, d))
        truth = rng.standard_normal(d)
        labels = np.where(features @ truth + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
        problem = ProblemInstance(kind="logistic", d=d, n=n,
                                  x_star=np.zeros(d), f_star=0.0, z=features,
                                  features=features, labels=labels, ridge=ridge)
        problem.x_star = _newton_solve(problem)
        problem.f_star = problem.loss(problem.x_star)
        return problem
    raise ValueError(f"unknown problem kind {kind!r}")


def _newton_solve(problem: ProblemInstance, max_iter: int = 100) -> np.ndarray:
    """Full-batch Newton reference solve of the ridge-logistic problem."""
    x = np.zeros(problem.d)
    feats, labels, ridge = problem.features, problem.labels, problem.ridge
    for _ in range(max_iter):
        grad = problem.full_gradient(x)
        if float(np.linalg.norm(grad)) <= _REFERENCE_TOL:
            return x
        margins = labels * (feats @ x)
        p = 1.0 / (1.0 + np.exp(margins))
        w = p * (1.0 - p)
        hess = (feats.T * w) @ feats / problem.n + ridge * np.eye(problem.d)
        x = x - np.linalg.solve(hess, grad)
    grad_norm = float(np.linalg.norm(problem.full_gradient(x)))
    raise RuntimeError(
        f"reference Newton solve did not converge (gradient norm {grad_norm:.3e})"
    )
