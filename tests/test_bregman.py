"""Mirror maps: round trips, divergence properties, convex duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varopt import (
    DomainError,
    MirrorMap,
    NumericalError,
    divergence,
    dual_divergence_check,
    entropy_map,
    grad_dual,
    quadratic_map,
)
from varopt.bregman import _dual_divergence


def _points(rng, mirror, n, d):
    if mirror.name == "entropy":
        return rng.uniform(0.1, 10.0, size=(n, d))
    return rng.standard_normal((n, d)) * 3.0


class TestRoundTrip:
    @pytest.mark.parametrize("make_map", [
        lambda d, rng: quadratic_map(),
        lambda d, rng: quadratic_map(m_diag=rng.uniform(0.5, 3.0, d)),
        lambda d, rng: entropy_map(),
    ])
    def test_dual_inverts_primal(self, make_map):
        rng = np.random.default_rng(7)
        d = 4
        mirror = make_map(d, rng)
        pts = _points(rng, mirror, 1000, d)
        for x in pts:
            back = grad_dual(mirror, mirror.grad_h(x))
            assert np.linalg.norm(back - x) <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_full_matrix_quadratic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        mirror = quadratic_map(m_full=a @ a.T + 5 * np.eye(5))
        for x in rng.standard_normal((50, 5)):
            back = grad_dual(mirror, mirror.grad_h(x))
            np.testing.assert_allclose(back, x, atol=1e-10)


class TestDivergence:
    def test_known_value(self):
        # Identity map: D(y, x) = 1/2 ||y - x||^2; here ||y - x||^2 = 25.
        mirror = quadratic_map()
        assert divergence(mirror, np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(12.5)

    def test_scaled_diagonal(self):
        mirror = quadratic_map(m_diag=np.array([2.0, 0.5]))
        y = np.array([1.0, 2.0])
        x = np.array([-1.0, 0.0])
        expected = 0.5 * (2.0 * 4.0 + 0.5 * 4.0)
        assert divergence(mirror, y, x) == pytest.approx(expected)

    def test_entropy_closed_form(self):
        # D(y, x) = sum y log(y/x) - y + x for negative entropy.
        mirror = entropy_map()
        rng = np.random.default_rng(11)
        y = rng.uniform(0.2, 5.0, 3)
        x = rng.uniform(0.2, 5.0, 3)
        expected = float(np.sum(y * np.log(y / x) - y + x))
        assert divergence(mirror, y, x) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_at_equal(self, seed):
        rng = np.random.default_rng(seed)
        for mirror in (quadratic_map(), entropy_map()):
            x, y = _points(rng, mirror, 2, 3)
            assert divergence(mirror, y, x) >= -1e-12
            assert abs(divergence(mirror, x, x)) <= 1e-12

    def test_strong_convexity_lower_bound(self):
        # On the box [0.05, 20]^4 the entropy is strongly convex with modulus 1/20.
        rng = np.random.default_rng(5)
        mirror = entropy_map()
        for _ in range(100):
            x = rng.uniform(0.05, 20.0, 4)
            y = rng.uniform(0.05, 20.0, 4)
            lower = 0.5 * (1.0 / 20.0) * float(np.sum((y - x) ** 2))
            assert divergence(mirror, y, x) >= lower - 1e-10


class TestDuality:
    @pytest.mark.parametrize("mirror", [quadratic_map(), entropy_map()],
                             ids=["quadratic", "entropy"])
    def test_identity_residual(self, mirror):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x, y = _points(rng, mirror, 2, 3)
            assert dual_divergence_check(mirror, x, y) <= 1e-8


class TestDomain:
    def test_entropy_rejects_nonpositive(self):
        mirror = entropy_map()
        with pytest.raises(DomainError):
            divergence(mirror, np.array([1.0, -1.0]), np.ones(2))
        with pytest.raises(DomainError):
            mirror.check_domain(np.array([0.0, 1.0]))

    def test_nonfinite_rejected(self):
        mirror = quadratic_map()
        with pytest.raises(DomainError):
            mirror.check_domain(np.array([np.nan, 1.0]))

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            quadratic_map(m_diag=np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            quadratic_map(m_full=np.array([[1.0, 2.0], [2.0, 1.0]]))
        # NaN and inf are refused in either form of M, not turned into grad_h.
        with pytest.raises(ValueError):
            quadratic_map(m_full=np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            quadratic_map(m_diag=np.array([np.nan, 1.0]))
        with pytest.raises(ValueError):
            quadratic_map(m_diag=np.array([np.inf, 1.0]))


class TestNewtonInversion:
    def test_custom_map_without_dual(self):
        # h(x) = sum cosh(x_i): grad h = sinh, whose inverse is asinh.
        mirror = MirrorMap(
            name="cosh",
            h=lambda x: float(np.sum(np.cosh(x))),
            grad_h=np.sinh,
            hess_h=lambda x: np.diag(np.cosh(x)),
        )
        rng = np.random.default_rng(2)
        for z in rng.uniform(-5.0, 5.0, size=(50, 3)):
            x = grad_dual(mirror, z)
            np.testing.assert_allclose(x, np.arcsinh(z), atol=1e-8)

    def test_nonconvergence_raises(self):
        # A deliberately wrong Hessian stalls the damped Newton iteration.
        mirror = MirrorMap(
            name="broken",
            h=lambda x: 0.5 * float(x @ x),
            grad_h=lambda x: np.array(x, dtype=float),
            hess_h=lambda x: 1e12 * np.eye(len(x)),
        )
        with pytest.raises(NumericalError):
            grad_dual(mirror, np.array([5.0, -3.0]))


def _cosh_map(with_dual):
    """h(x) = sum cosh(x_i) written per point: one float for any input."""
    return MirrorMap(
        name="cosh",
        h=lambda x: float(np.sum(np.cosh(x))),
        grad_h=np.sinh,
        hess_h=lambda x: np.diag(np.cosh(x)),
        grad_h_dual=np.arcsinh if with_dual else None,
    )


class TestLastAxisContract:
    """Every map callable but hess_h acts on the last axis, so a stack of
    points gives, row for row, the bits of the one-point calls."""

    @staticmethod
    def _maps():
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5))
        return [quadratic_map(), quadratic_map(m_diag=rng.uniform(0.5, 3.0, 5)),
                quadratic_map(m_full=a @ a.T + 5 * np.eye(5)), entropy_map()]

    @pytest.mark.parametrize("index", range(4), ids=["identity", "diagonal", "full", "entropy"])
    def test_stack_equals_rows(self, index):
        mirror = self._maps()[index]
        rng = np.random.default_rng(8)
        xs, ys = _points(rng, mirror, 14, 5).reshape(2, 7, 5)
        zs, ws = mirror.grad_h(xs), mirror.grad_h(ys)

        def assert_rows(stacked, one_point):
            assert np.shape(stacked) == np.shape(one_point)
            np.testing.assert_array_equal(stacked, one_point, strict=True)

        assert_rows(mirror.h(xs), np.array([mirror.h(x) for x in xs]))
        assert_rows(zs, np.array([mirror.grad_h(x) for x in xs]))
        assert_rows(mirror.grad_h_dual(zs), np.array([mirror.grad_h_dual(z) for z in zs]))
        assert_rows(divergence(mirror, ys, xs),
                    np.array([divergence(mirror, y, x) for y, x in zip(ys, xs)]))
        assert_rows(_dual_divergence(mirror, ws, zs),
                    np.array([_dual_divergence(mirror, w, z) for w, z in zip(ws, zs)]))
        assert_rows(dual_divergence_check(mirror, xs, ys),
                    np.array([dual_divergence_check(mirror, x, y) for x, y in zip(xs, ys)]))

    @pytest.mark.parametrize("m_diag", [None, np.array([2.0, 0.5, 1.5])],
                             ids=["identity", "diagonal"])
    def test_quadratic_values_are_the_one_point_formulas(self, m_diag):
        # The identity is the diagonal 1.0: m * x is x, bit for bit.
        mirror = quadratic_map(m_diag=m_diag)
        m = np.ones(3) if m_diag is None else m_diag
        rng = np.random.default_rng(4)
        for x, y in rng.standard_normal((20, 2, 3)) * 3.0:
            assert mirror.h(x) == 0.5 * float(x @ (m * x))
            np.testing.assert_array_equal(mirror.grad_h(x), m * x)
            np.testing.assert_array_equal(mirror.grad_h_dual(x), x / m)
            assert divergence(mirror, y, x) == float(
                0.5 * float(y @ (m * y)) - 0.5 * float(x @ (m * x)) - (m * x) @ (y - x))
        np.testing.assert_array_equal(mirror.hess_h(x), np.diag(m))

    def test_per_point_h_is_refused_on_a_stack(self):
        mirror = _cosh_map(with_dual=True)
        rng = np.random.default_rng(6)
        xs, ys = rng.uniform(-1.0, 1.0, (2, 4, 3))
        with pytest.raises(ValueError, match="h of mirror map 'cosh'"):
            divergence(mirror, ys, xs)
        with pytest.raises(ValueError, match="h of mirror map 'cosh'"):
            _dual_divergence(mirror, np.sinh(ys), np.sinh(xs))
        # One point is still one value.
        expected = float(np.sum(np.cosh(ys[0]) - np.cosh(xs[0]) - np.sinh(xs[0]) * (ys[0] - xs[0])))
        assert divergence(mirror, ys[0], xs[0]) == pytest.approx(expected, abs=1e-12)

    def test_newton_dual_is_per_row_on_a_stack(self):
        mirror = _cosh_map(with_dual=False)
        zs = np.random.default_rng(9).uniform(-5.0, 5.0, (2, 3, 3))
        rows = np.array([grad_dual(mirror, z) for z in zs.reshape(-1, 3)]).reshape(zs.shape)
        np.testing.assert_array_equal(grad_dual(mirror, zs), rows, strict=True)
        np.testing.assert_allclose(rows, np.arcsinh(zs), atol=1e-8)
