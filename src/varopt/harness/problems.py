"""Synthetic finite-sum problems with known minimizers.

Losses have the empirical-risk form f(x) = (1/N) sum_i l(x; z_i).  Two
families ship:

* quadratic: l(x; z) = 1/2 ||x - z||^2 with data z_i drawn standard
  normal; the minimizer is the sample mean and f(x*) is the within-
  sample variance, both exact.  A problem is built from its draws and x*
  alone: no run reads f(x*), since the gap is a closed form, so
  `f_star` is computed on its first read, as loss(x*).
* logistic: ridge-regularized binary logistic regression on the signed
  rows z_i = y_i a_i (labels +-1 folded into the features at generation),
  so margins are z @ x.  Every loss gap reads f(x*), so it is computed at
  generation; the minimizer is found by Newton's method, certified by a
  full-data gradient norm of at most 1e-10, one pass over the data per
  iteration, whose Hessian sums chunks of _LOSS_CHUNK rows and builds no
  (N, d) temporary.  When N // 8 rows make at least one chunk, the solve
  starts from the solution on the first N // 8 rows.  Once the gradient
  meets 1e-10, one more step on the last Hessian, with no pass over the
  data, takes x* to within a few 1e-15 (at most 4e-14 measured) of the
  exact minimizer, normwise relative.

Mini-batch gradients sample m indices without replacement per batch,
independently across steps, and evaluate the gradient on those m rows
only, so a step costs O(m d) whatever N is.  `minibatch_gradients`
evaluates the batches of S seeds as one stacked gradient.  Each sample's
gradient depends only on its own row, so every batch mean equals the
mean of the matching rows of `per_sample_gradients` bit for bit.

`loss` and `loss_gap` take one point or a (k, d) stack of points.  The
logistic loss of a stack tiles the data, not the points: each chunk of
_LOSS_CHUNK data rows (fewer rows are padded with zero rows to one
chunk) meets each block of points in one product, whose
margins X @ z' are written into one of two (rows, chunk) buffers
allocated once per call and whose softplus terms go into the other, all
in place; each row's sum goes into a (points, chunks) array of partial
sums, and a point's loss is its row's total over n.  The
logistic terms use exp(-|margin|) only, so they cannot overflow: the
loss is the stable softplus log1p(exp(-|m|)) - min(m, 0)
= logaddexp(0, -m).  The quadratic gap f(x) - f(x*) is the closed form
1/2 ||x - x*||^2, exact because x* is the sample mean, which avoids the
cancellation of subtracting two O(d) losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ProblemInstance", "generate_problem"]

_REFERENCE_TOL = 1e-10
_NEWTON_MAX_ITER = 100
# Doubles (1 MB) per buffer of the stacked logistic loss: blocks of
# _LOSS_BLOCK // _LOSS_CHUNK points (128) against one chunk of the data, so
# that both buffers stay in a 2 MB per-core L2 cache and each chunk of
# data is packed once per block, not once per few points.  Stacking
# adds one partial sum per point and chunk beyond the two buffers.  The
# stacked mini-batch gradients gather this many doubles at a time, or one
# batch if it is larger.
_LOSS_BLOCK = 1 << 17
# Data rows per chunk of the logistic loss and of the Newton Hessian.
# Every loss product has this width whatever the stack and whatever n
# (fewer data rows are padded with zero rows), so that a point's loss does
# not depend on its block.  It is a multiple of 8, since OpenBLAS's SkylakeX
# dgemm rounds the last (width mod 8) columns by the row count, and above
# 600, since with d >= 32 it takes a product of at most 1200 entries to a
# small-matrix kernel that rounds differently (512 did, at d = 40 and 64).
# 512 was as fast.  A chunk's (d, chunk) Hessian temporary stays in a 2 MB
# L2 cache, where one (d, n) temporary would not.
_LOSS_CHUNK = 1024


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


def _softplus_neg(margins: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(1 + exp(-margins)) = log1p(exp(-|margins|)) - min(margins, 0)
    into out, overwriting margins.  This is bit for bit the
    max(-margins, 0) + log1p(...) form: -min(m, 0) is max(-m, 0) up to
    the sign of a zero, which adding to the non-negative log1p term absorbs."""
    np.abs(margins, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.minimum(margins, 0.0, out=margins)
    out -= margins
    return out


@dataclass
class ProblemInstance:
    """A finite-sum loss with a certified minimizer."""

    kind: str                      # "quadratic" or "logistic"
    d: int
    n: int
    x_star: np.ndarray
    # (n, d) data: quadratic, the points z_i; logistic, the signed rows
    # y_i a_i of features a_i and labels y_i in {-1, +1}, so margins are z @ x.
    z: np.ndarray
    ridge: float = 0.0

    @cached_property
    def f_star(self) -> float:
        """f(x*), computed on the first read; an assignment overrides it."""
        return self.loss(self.x_star)

    def loss(self, x):
        """f(x) at one point (a float) or at each row of a (k, d) stack
        (an array of k losses)."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_2d(x)
        if self.kind == "quadratic":
            out = np.array([0.5 * np.mean(np.sum((row - self.z) ** 2, axis=1))
                            for row in xs])
        else:
            out = self._logistic_losses(xs)
        return float(out[0]) if x.ndim == 1 else out

    def _logistic_losses(self, xs: np.ndarray) -> np.ndarray:
        """Losses of the rows of xs: each block of rows meets each chunk of
        `width` data rows in one product.  The last chunk ends at n and sums
        only its new columns; data of fewer than `width` rows is padded with
        zero rows and sums only its first n columns.  So no product's width
        depends on the stack or on n."""
        width, data = _LOSS_CHUNK, self.z
        if self.n < width:
            data = np.concatenate([data, np.zeros((width - self.n, self.d))])
        rows = max(2, min(len(xs), _LOSS_BLOCK // width))
        margins, terms = np.empty((rows, width)), np.empty((rows, width))
        starts = range(0, self.n, width)
        partials = np.empty((len(xs), len(starts)))
        for c, k in enumerate(starts):
            j = min(k, len(data) - width)
            chunk = data[j:j + width].T
            for i in range(0, len(xs), rows):
                block = xs[i:i + rows]
                # BLAS takes a one-row product by a matrix-vector kernel, which
                # rounds differently: a one-row block is multiplied as two rows.
                lhs = block[[0, 0]] if len(block) == 1 else block
                np.matmul(lhs, chunk, out=margins[:len(lhs)])
                m, s = margins[:len(block)], terms[:len(block)]
                np.sum(_softplus_neg(m, s)[:, k - j:self.n - j], axis=1,
                       out=partials[i:i + len(block), c])
        return partials.sum(axis=1) / self.n + 0.5 * self.ridge * np.sum(xs * xs, axis=1)

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
        """Per-sample gradients (..., m, d): at the point x (d,) of the
        samples selected by rows, or at each point of a stack x (S, d) of
        the samples in its row of an (S, m) index block.  The margins use
        einsum, whose per-row sums do not depend on how many rows or
        points are selected (BLAS matrix-vector kernels round the rows of
        a remainder block differently)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return x[..., None, :] - self.z[rows]
        signed = self.z[rows]
        w = -_sigmoid_neg(np.einsum("...ij,...j->...i", signed, x))
        grads = w[..., None] * signed
        grads += self.ridge * x[..., None, :]
        return grads

    def full_gradient(self, x) -> np.ndarray:
        # The sum runs over the rows in order, as the m = n mini-batch
        # reduction does, so that call reproduces it exactly.
        return self.per_sample_gradients(x).mean(axis=0)

    def minibatch_gradients(self, xs, m: int, rngs) -> np.ndarray:
        """(S, d) mini-batch gradients, row i at xs[i] on m rows drawn by
        rngs[i] with one rng.choice, in order; m = n draws nothing and
        takes every row in order, so row i is full_gradient(xs[i]).  The
        batches are gathered and evaluated as one stack, in chunks of
        seeds within the _LOSS_BLOCK budget; the sum and the division by m
        are those of mean."""
        if not (1 <= m <= self.n):
            raise ValueError(f"batch size must satisfy 1 <= m <= {self.n}")
        rows = max(1, _LOSS_BLOCK // (m * self.d))
        if len(rngs) > rows:
            return np.concatenate([self.minibatch_gradients(xs[i:i + rows], m, rngs[i:i + rows])
                                   for i in range(0, len(rngs), rows)])
        idx = np.empty((len(rngs), m), dtype=np.intp)
        for i, rng in enumerate(rngs):
            idx[i] = np.arange(m) if m == self.n else rng.choice(self.n, size=m, replace=False)
        out = np.add.reduce(self._gradients(xs, idx), axis=-2)
        out /= m
        return out


def generate_problem(kind: str, d: int, n: int, rng: np.random.Generator,
                     ridge: float = 1e-2) -> ProblemInstance:
    """Draw a random problem instance of the requested family."""
    if d > 64 or n > 100_000:
        raise ValueError("problem generation is desk scale: d <= 64, N <= 1e5")
    if kind == "quadratic":
        z = rng.standard_normal((n, d))
        x_star = z.mean(axis=0)
        return ProblemInstance(kind="quadratic", d=d, n=n, x_star=x_star, z=z)
    if kind == "logistic":
        features = rng.standard_normal((n, d))
        truth = rng.standard_normal(d)
        labels = np.where(features @ truth + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
        features *= labels[:, None]     # in place: the signed rows, no (n, d) temporary
        problem = ProblemInstance(kind="logistic", d=d, n=n, x_star=np.zeros(d),
                                  z=features, ridge=ridge)
        problem.x_star = _newton_solve(problem)
        problem.f_star = problem.loss(problem.x_star)  # every loss gap reads it
        return problem
    raise ValueError(f"unknown problem kind {kind!r}")


def _newton_solve(problem: ProblemInstance) -> np.ndarray:
    """Newton reference solve of the ridge-logistic problem, certified by a
    full-data gradient norm of at most _REFERENCE_TOL.  When n // 8 rows
    make at least one chunk, it starts from the solution on the first
    n // 8 rows (a contiguous sample, since the rows are i.i.d.), which
    saves about three passes over all n rows."""
    z, x = problem.z, np.zeros(problem.d)
    sub = problem.n // 8
    if sub >= _LOSS_CHUNK:
        x = _newton(z[:sub], problem.ridge, x)
    return _newton(z, problem.ridge, x)


def _newton(z: np.ndarray, ridge: float, x: np.ndarray) -> np.ndarray:
    """Newton's method from x on the signed rows z.  One margin pass per
    iteration gives both the gradient -(z' p) / n + ridge x and the Hessian
    weights p (1 - p), with p = 1 / (1 + exp(z @ x));
    the Hessian sums chunks of _LOSS_CHUNK rows.  Once the gradient norm
    is at most _REFERENCE_TOL, one more step on the last Hessian, a d x d
    solve with no pass over the data, takes the gradient to rounding, so
    the result does not depend on the path that reached the tolerance."""
    n, d = z.shape
    hess = None
    for it in range(_NEWTON_MAX_ITER + 1):
        p = _sigmoid_neg(z @ x)
        grad = -(z.T @ p) / n + ridge * x
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= _REFERENCE_TOL:
            return x if hess is None else x - np.linalg.solve(hess, grad)
        if it == _NEWTON_MAX_ITER:
            break
        w, hess = p * (1.0 - p), np.zeros((d, d))
        for j in range(0, n, _LOSS_CHUNK):
            chunk = z[j:j + _LOSS_CHUNK]
            hess += (chunk.T * w[j:j + _LOSS_CHUNK]) @ chunk
        hess = hess / n + ridge * np.eye(d)
        x = x - np.linalg.solve(hess, grad)
    raise RuntimeError(f"reference Newton solve on {n} rows did not converge "
                       f"(gradient norm {grad_norm:.3e})")
