"""Mirror maps, Bregman divergences and convex duality.

Every optimizer in this library measures distance through a Bregman
divergence D_h(y, x) = h(y) - h(x) - <grad h(x), y - x> induced by a
strictly convex reference function h.  The convergence analysis further
assumes h strongly convex with a Lipschitz gradient on the region the
iterates visit; no computation reads the two moduli, so no map stores
them.  Two reference maps ship built in:

* quadratic: h(x) = 1/2 x' M x for a symmetric positive-definite M
  (default M = I), which reduces every mirror update to plain SGD-style
  arithmetic;
* negative entropy: h(x) = sum_i x_i log x_i on the open positive
  orthant, which exercises genuinely nonlinear mirror updates.

Every callable of a map except hess_h, which takes one point, acts on the
last axis: h maps points (..., d) to (...), grad_h and grad_h_dual map
(..., d) to (..., d), so a whole path is evaluated with one call.
User-supplied maps must do the same, and may omit the dual gradient, in
which case it is recovered by damped Newton inversion of grad h per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MirrorMap",
    "DomainError",
    "NumericalError",
    "quadratic_map",
    "entropy_map",
    "divergence",
    "grad_dual",
    "dual_divergence_check",
]


class DomainError(ValueError):
    """Input lies outside the domain of the mirror map."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


def _positive_definite(a_mat: np.ndarray) -> bool:
    """Whether the symmetric part of the square matrix a_mat is positive
    definite: it has a Cholesky factor, and a finite one (the factor of a
    NaN or an infinite entry is NaN or inf, not an error)."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(0.5 * (a_mat + a_mat.T))).all())
    except np.linalg.LinAlgError:
        return False


_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class MirrorMap:
    """A strictly convex C^2 reference function with its derivatives,
    assumed strongly convex with a Lipschitz gradient where the iterates
    go (see the module docstring).  A user-supplied map is built directly:
    its callables must act on the last axis like the built-in maps'
    (hess_h on one point), and omitting grad_h_dual requests damped-Newton
    inversion of grad_h inside grad_dual."""

    name: str
    h: Callable[[np.ndarray], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    hess_h: Callable[[np.ndarray], np.ndarray]
    grad_h_dual: Optional[Callable[[np.ndarray], np.ndarray]] = None
    in_domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)

    def check_domain(self, x: np.ndarray) -> None:
        """DomainError unless every point of x (..., d) is finite and in the
        domain, checked once for the whole stack; the error names the first
        point that is not, so a one-row stack reports as its point."""
        x = np.asarray(x, dtype=float)
        if np.isfinite(x).all() and self.in_domain(x):
            return
        for point in x.reshape(-1, x.shape[-1]) if x.ndim else [x]:
            if not (np.isfinite(point).all() and self.in_domain(point)):
                break
        raise DomainError(
            f"point outside the domain of mirror map {self.name!r}: {point!r}"
        )


def quadratic_map(m_diag=None, m_full=None) -> MirrorMap:
    """h(x) = 1/2 x' M x with M symmetric positive definite.

    Pass either a diagonal (1-d array) or a full matrix; the default is
    the identity (the diagonal 1.0), which makes grad h the identity map.
    """
    if m_diag is not None and m_full is not None:
        raise ValueError("pass at most one of m_diag, m_full")
    if m_full is not None:
        m = np.asarray(m_full, dtype=float)
        m = 0.5 * (m + m.T)
        if not _positive_definite(m):
            raise ValueError("M must be positive definite")
        m_inv = np.linalg.inv(m)
        # A stacked X @ M need not equal its rows' x @ M bit for bit; this does.
        grad_h = lambda x: np.vecdot(m, np.asarray(x, dtype=float)[..., None, :])
        return MirrorMap(
            name="quadratic",
            h=lambda x: 0.5 * np.vecdot(x, grad_h(x)),
            grad_h=grad_h,
            grad_h_dual=lambda z: np.vecdot(m_inv, np.asarray(z, dtype=float)[..., None, :]),
            hess_h=lambda x: m,
        )
    diag = np.asarray(1.0 if m_diag is None else m_diag, dtype=float)
    if not np.all((diag > 0) & (diag < np.inf)):
        raise ValueError("diagonal of M must be positive and finite")
    return MirrorMap(
        name="quadratic",
        h=lambda x: 0.5 * np.vecdot(x, diag * x),
        grad_h=lambda x: diag * x,
        grad_h_dual=lambda z: z / diag,
        hess_h=lambda x: np.diag(np.broadcast_to(diag, np.shape(x))),
    )


def entropy_map() -> MirrorMap:
    """Negative entropy h(x) = sum_i x_i log x_i on the positive orthant.

    grad h(x) = 1 + log x and grad h*(z) = exp(z - 1) componentwise.  Since
    hess h(x) = diag(1/x), h is strongly convex with a Lipschitz gradient
    only on a compact box [a, b]^d of the open orthant, with moduli 1/b
    and 1/a.  Points outside the orthant are rejected, never clamped.
    """
    return MirrorMap(
        name="entropy",
        h=lambda x: np.sum(x * np.log(x), axis=-1),
        grad_h=lambda x: 1.0 + np.log(x),
        grad_h_dual=lambda z: np.exp(z - 1.0),
        hess_h=lambda x: np.diag(1.0 / x),
        in_domain=lambda x: bool((x > 0).all()),
    )


def _h(mirror: MirrorMap, x: np.ndarray) -> np.ndarray:
    """h at the points x (..., d); ValueError naming h unless it returns
    one value per point."""
    value = np.asarray(mirror.h(x), dtype=float)
    if value.shape != x.shape[:-1]:
        raise ValueError(f"h of mirror map {mirror.name!r} maps points of shape {x.shape} "
                         f"to shape {value.shape}; it must act on the last axis")
    return value


def divergence(mirror: MirrorMap, y, x):
    """D_h(y, x) = h(y) - h(x) - <grad h(x), y - x>, non-negative, for
    points y, x broadcasting to (..., d): one value per point, a float
    for one point."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    mirror.check_domain(x)
    mirror.check_domain(y)
    return _h(mirror, y) - _h(mirror, x) - np.vecdot(mirror.grad_h(x), y - x)


def grad_dual(mirror: MirrorMap, z) -> np.ndarray:
    """grad h*(z), the inverse of grad h, at dual points z (..., d): the
    map's closed form, else damped Newton on grad h(x) - z point by point,
    which raises NumericalError with the achieved residual on
    non-convergence."""
    z = np.asarray(z, dtype=float)
    if mirror.grad_h_dual is not None:
        return np.asarray(mirror.grad_h_dual(z), dtype=float)
    rows = [_newton_invert(mirror, row) for row in z.reshape(-1, *z.shape[-1:])]
    return np.reshape(rows, z.shape)


def _newton_invert(mirror: MirrorMap, z: np.ndarray) -> np.ndarray:
    x = np.zeros_like(z)
    if not mirror.in_domain(x):
        x = np.ones_like(z)
    tol = _NEWTON_TOL * (1.0 + float(np.linalg.norm(z)))
    for _ in range(_NEWTON_MAX_ITER):
        resid = mirror.grad_h(x) - z
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= tol:
            return x
        step = np.linalg.solve(np.atleast_2d(mirror.hess_h(x)), resid)
        # Damped update: halve until the trial point stays in the domain
        # and does not increase the residual.
        lam = 1.0
        for _ in range(50):
            trial = x - lam * step
            if mirror.in_domain(trial):
                tnorm = float(np.linalg.norm(mirror.grad_h(trial) - z))
                if tnorm < rnorm:
                    x = trial
                    break
            lam *= 0.5
        else:
            break
    rnorm = float(np.linalg.norm(mirror.grad_h(x) - z))
    if rnorm <= tol:
        return x
    raise NumericalError(
        f"Newton inversion of grad h did not converge (residual {rnorm:.3e})"
    )


def _dual_divergence(mirror: MirrorMap, z1, z2):
    """D_{h*}(z1, z2) through the dual gradient: h*(z) = <z, x> - h(x)
    with x = grad h*(z), for dual points broadcasting to (..., d)."""
    x1 = grad_dual(mirror, z1)
    x2 = grad_dual(mirror, z2)
    hstar1 = np.vecdot(z1, x1) - _h(mirror, x1)
    hstar2 = np.vecdot(z2, x2) - _h(mirror, x2)
    return hstar1 - hstar2 - np.vecdot(x2, z1 - z2)


def dual_divergence_check(mirror: MirrorMap, x, y):
    """Residual of the duality identity D_h(x, y) = D_{h*}(grad h(y), grad h(x))
    (convex duality swaps the arguments), one per point of x, y (..., d).

    Returns |lhs - rhs|; at most ~1e-8 for the built-in maps.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lhs = divergence(mirror, x, y)
    rhs = _dual_divergence(mirror, mirror.grad_h(y), mirror.grad_h(x))
    return np.abs(lhs - rhs)
