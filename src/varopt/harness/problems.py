"""Synthetic finite-sum problems with known minimizers.

Losses have the empirical-risk form f(x) = (1/N) sum_i l(x; z_i).  Two
families ship:

* quadratic: l(x; z) = 1/2 ||x - z||^2 with data z_i drawn standard
  normal; the minimizer is the sample mean and f(x*) is the within-
  sample variance, both exact.
* logistic: ridge-regularized binary logistic regression; the minimizer
  is found once at generation time by a full-batch Newton solve to a
  1e-10 gradient norm, one pass over the data per iteration.

Mini-batch gradients sample m indices without replacement per batch,
independently across steps, and evaluate the gradient on those m rows
only, so a step costs O(m d) whatever N is.  Each sample's gradient
depends only on its own row, so the batch mean equals the mean of the
matching rows of `per_sample_gradients` bit for bit.

`loss` and `loss_gap` take one point or a (k, d) stack of points; the
logistic loss of a stack takes one X @ features' product per block of
rows.  The logistic terms use exp(-|margin|) only, so they cannot
overflow: the loss is the stable softplus max(-m, 0) + log1p(exp(-|m|))
= logaddexp(0, -m).  The quadratic gap f(x) - f(x*) is the closed form
1/2 ||x - x*||^2, exact because x* is the sample mean, which avoids the
cancellation of subtracting two O(d) losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ProblemInstance", "generate_problem"]

_REFERENCE_TOL = 1e-10
# Doubles (512 KB) per temporary of one block of the stacked logistic
# loss, well below the (n, d) arrays of a large problem, so stacking adds
# no memory.
_LOSS_BLOCK = 1 << 16


def _sigmoid_neg(margins: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(margins)) = where(margins >= 0, e, 1) / (1 + e) with
    e = exp(-|margins|), in place to hold few temporaries."""
    e = np.abs(margins)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(margins >= 0, e, 1.0)
    e += 1.0
    out /= e
    return out


def _softplus_neg(margins: np.ndarray) -> np.ndarray:
    """log(1 + exp(-margins)) = max(-margins, 0) + log1p(exp(-|margins|)),
    overwriting margins to hold one temporary at a time."""
    out = np.abs(margins)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.negative(margins, out=margins)
    np.maximum(margins, 0.0, out=margins)
    out += margins
    return out


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

    def loss(self, x):
        """f(x) at one point (a float) or at each row of a (k, d) stack
        (an array of k losses)."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_2d(x)
        if self.kind == "quadratic":
            out = np.array([0.5 * np.mean(np.sum((row - self.z) ** 2, axis=1))
                            for row in xs])
        else:
            rows = max(1, _LOSS_BLOCK // self.n)
            out = np.concatenate([self._logistic_losses(xs[i:i + rows])
                                  for i in range(0, len(xs), rows)])
        return float(out[0]) if x.ndim == 1 else out

    def _logistic_losses(self, xs: np.ndarray) -> np.ndarray:
        margins = xs @ self.features.T
        margins *= self.labels
        return (np.mean(_softplus_neg(margins), axis=1)
                + 0.5 * self.ridge * np.sum(xs * xs, axis=1))

    def loss_gap(self, x):
        """f(x) - f(x*) at one point or at each row of a (k, d) stack."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            diff = x - self.x_star
            gap = 0.5 * np.sum(diff * diff, axis=-1)
        else:
            gap = self.loss(x) - self.f_star
        return float(gap) if x.ndim == 1 else gap

    def per_sample_gradients(self, x) -> np.ndarray:
        """(n, d) array of per-sample loss gradients at x."""
        return self._gradients(x, slice(None))

    def _gradients(self, x, rows) -> np.ndarray:
        """Per-sample gradients at x of the samples selected by rows.
        The margins use einsum, whose per-row sums do not depend on how
        many rows are selected (BLAS matrix-vector kernels round the
        rows of a remainder block differently)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return x[None, :] - self.z[rows]
        feats, labels = self.features[rows], self.labels[rows]
        w = -labels * _sigmoid_neg(labels * np.einsum("ij,j->i", feats, x))
        return w[:, None] * feats + self.ridge * x[None, :]

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
        return self._gradients(x, idx).mean(axis=0)


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
    """Full-batch Newton reference solve of the ridge-logistic problem.
    One margin pass per iteration gives both the gradient
    features' (-labels p) / n + ridge x and the Hessian weights p (1 - p),
    with p = 1 / (1 + exp(margins))."""
    x = np.zeros(problem.d)
    feats, labels, ridge, n = problem.features, problem.labels, problem.ridge, problem.n
    for it in range(max_iter + 1):
        p = _sigmoid_neg(labels * (feats @ x))
        grad = feats.T @ (-labels * p) / n + ridge * x
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= _REFERENCE_TOL:
            return x
        if it == max_iter:
            break
        hess = (feats.T * (p * (1.0 - p))) @ feats / n + ridge * np.eye(problem.d)
        x = x - np.linalg.solve(hess, grad)
    raise RuntimeError(
        f"reference Newton solve did not converge (gradient norm {grad_norm:.3e})"
    )
