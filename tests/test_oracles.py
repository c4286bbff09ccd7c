import numpy as np
import pytest

from hpbl.oracles import ManufacturedSolution

from helpers import BoundaryLayerFn, CornerSingularityFn, X_dX_unmasked, manufactured_residual


def _fd_grad(f, x, y, h=1e-6):
    return np.stack(
        [
            (f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h),
        ],
        axis=-1,
    )


def test_manufactured_1d_profile():
    ms = ManufacturedSolution(0.1)
    # X solves -eps^2 X'' + X = 1 with X(0)=X(1)=0, written with decaying
    # exponentials only: X(t) = 1 - (e^(-t/e) + e^(-(1-t)/e)) / (1 + e^(-1/e))
    mid = 1.0 - 2.0 * np.exp(-5.0) / (1.0 + np.exp(-10.0))
    assert ms.X(np.array([0.5]))[0] == pytest.approx(mid, abs=1e-14)
    assert mid == pytest.approx(0.986525, abs=1e-6)
    assert ms.X(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert ms.X(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    # tensor structure u = X(x) X(y)
    assert ms.value_grad(np.array([0.5]), np.array([0.5]))[0][0] == pytest.approx(
        mid * mid, abs=1e-14
    )


def test_manufactured_residual_small():
    # -eps^2 lap(u) + u - f == 0 pointwise
    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.01, 0.99, size=(2, 10000))
    for eps in (1.0, 0.1, 0.01, 0.001):
        ms = ManufacturedSolution(eps)
        res = manufactured_residual(ms, x, y)
        assert np.abs(res).max() < 1e-10, eps


def test_manufactured_exponentials_skip_only_exact_zeros():
    # exp(-u/eps) is taken only where it does not underflow; around the
    # cut, u/eps from 700 to 760, and at the ends, X and X' are the
    # formula with every exponential taken, bit for bit
    r = np.linspace(700.0, 760.0, 6001)
    for eps in 10.0 ** -np.arange(9):
        ms = ManufacturedSolution(eps)
        t = np.concatenate([eps * r, 1.0 - eps * r, [0.0, 1.0]])
        with np.errstate(over="ignore"):  # t far outside [0, 1] at eps >= 1e-2
            got, want = ms._X_dX(t), X_dX_unmasked(ms, t)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), eps
    assert np.isnan(ManufacturedSolution(1e-3)._X_dX(np.array([0.5, np.nan]))).tolist() == [
        [False, True], [False, True]]


def test_value_grad_is_the_separate_formulas_bit_for_bit():
    # u = X(x) X(y) and grad u = (X'(x) X(y), X(x) X'(y)), as the separate
    # value and gradient formed them, from one _X_dX pass per coordinate
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0.0, 1.0, size=(2, 500))
    x[:3], y[:3] = [0.0, 1.0, 0.5], [1.0, 0.0, 1e-300]
    for eps in (0.3, 1e-2, 1e-5, 1e-9):
        ms = ManufacturedSolution(eps)
        (xx, dx), (yy, dy) = ms._X_dX(x), ms._X_dX(y)
        u, du = ms.value_grad(x, y)
        assert u.tobytes() == (ms.X(x) * ms.X(y)).tobytes(), eps
        assert du.shape == (500, 2)
        assert du.tobytes() == np.stack([dx * yy, xx * dy], axis=-1).tobytes(), eps


def test_manufactured_grad_consistent():
    ms = ManufacturedSolution(0.05)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.05, 0.95, size=(2, 200))
    fd = _fd_grad(lambda x, y: ms.value_grad(x, y)[0], x, y)
    np.testing.assert_allclose(ms.value_grad(x, y)[1], fd, atol=1e-6)


def test_boundary_layer_fn():
    f = BoundaryLayerFn(2.0, 0.1)
    x = np.array([0.3, 0.8])
    y = np.array([0.0, 0.05])
    np.testing.assert_allclose(f.value(x, y), np.exp(-2.0 * y / 0.1), atol=1e-15)
    np.testing.assert_allclose(f.grad(x, y), _fd_grad(f.value, x, y), atol=1e-5)


def test_corner_singularity_fn():
    f = CornerSingularityFn(0.5)  # r^(1-beta) = r^(1/2)
    assert f.value(np.array([0.25]), np.array([0.0]))[0] == pytest.approx(0.5)
    # |grad r^(1/2)| = 1/(2 sqrt(r)): steep near the origin
    g = f.grad(np.array([1e-4]), np.array([0.0]))
    assert np.hypot(*g[0]) == pytest.approx(50.0, rel=1e-9)
    rng = np.random.default_rng(9)
    x, y = rng.uniform(0.1, 1.0, size=(2, 100))
    np.testing.assert_allclose(f.grad(x, y), _fd_grad(f.value, x, y), atol=1e-6)

