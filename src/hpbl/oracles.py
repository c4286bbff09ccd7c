"""Analytic layer functions and a manufactured reaction-diffusion solution.

These are the model functions whose approximation drives every accuracy
test in the package:

* ``boundary_layer_fn``    exp(-alpha*y/eps), the one-dimensional edge layer;
* ``corner_singularity_fn`` r^(1-beta), the leading corner singularity;
* ``corner_layer_fn``      eps^(beta-1) r^(1-beta) exp(-alpha*r/eps),
  the corner layer combining both effects;
* ``manufactured_layer_solution``  an exact solution of
  -eps^2 Lap(u) + u = f on the unit square with u = 0 on the boundary,
  exhibiting genuine boundary layers on all four edges.

All evaluations are stable for arbitrarily small eps: no exponential is
ever taken of a positive argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "boundary_layer_fn",
    "corner_singularity_fn",
    "corner_layer_fn",
    "manufactured_layer_solution",
    "ManufacturedSolution",
]


class BoundaryLayerFn:
    """exp(-alpha * y / eps) and its gradient."""

    def __init__(self, alpha: float, eps: float):
        if alpha <= 0 or eps <= 0:
            raise ValueError("alpha and eps must be positive")
        self.alpha = alpha
        self.eps = eps

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.exp(-self.alpha * np.asarray(y, dtype=float) / self.eps) * np.ones_like(x)

    def grad(self, x, y):
        v = self.value(x, y)
        return np.stack([np.zeros_like(v), -(self.alpha / self.eps) * v], axis=-1)


class CornerSingularityFn:
    """r^(1-beta) for beta in [0, 1); the gradient blows up at the origin."""

    def __init__(self, beta: float):
        if not (0.0 <= beta < 1.0):
            raise ValueError(f"beta must lie in [0,1), got {beta}")
        self.beta = beta

    def value(self, x, y):
        r = np.hypot(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return r ** (1.0 - self.beta)

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        if np.any(r == 0.0):
            raise ValueError("gradient of the corner singularity is singular at r=0")
        scale = (1.0 - self.beta) * r ** (-1.0 - self.beta)
        return np.stack([scale * x, scale * y], axis=-1)


class CornerLayerFn:
    """eps^(beta-1) r^(1-beta) exp(-alpha r / eps)."""

    def __init__(self, beta: float, alpha: float, eps: float):
        if not (0.0 <= beta < 1.0):
            raise ValueError(f"beta must lie in [0,1), got {beta}")
        if alpha <= 0 or eps <= 0:
            raise ValueError("alpha and eps must be positive")
        self.beta = beta
        self.alpha = alpha
        self.eps = eps

    def value(self, x, y):
        r = np.hypot(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.eps ** (self.beta - 1.0) * r ** (1.0 - self.beta) * np.exp(
            -self.alpha * r / self.eps
        )

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        if np.any(r == 0.0):
            raise ValueError("gradient of the corner layer is singular at r=0")
        v = self.value(x, y)
        radial = ((1.0 - self.beta) / r - self.alpha / self.eps) * v
        return np.stack([radial * x / r, radial * y / r], axis=-1)


def boundary_layer_fn(alpha: float, eps: float) -> BoundaryLayerFn:
    return BoundaryLayerFn(alpha, eps)


def corner_singularity_fn(beta: float) -> CornerSingularityFn:
    return CornerSingularityFn(beta)


def corner_layer_fn(beta: float, alpha: float, eps: float) -> CornerLayerFn:
    return CornerLayerFn(beta, alpha, eps)


class ManufacturedSolution:
    """Exact solution u(x,y) = X(x) X(y) on the unit square.

    The univariate factor solves -eps^2 X'' + X = 1 with X(0) = X(1) = 0:

        X(t) = 1 - (exp(-t/eps) + exp(-(1-t)/eps)) / (1 + exp(-1/eps)).

    Then u = X(x) X(y) satisfies -eps^2 Lap(u) + u = f with
    f(x,y) = X(x) + X(y) - X(x) X(y) and homogeneous Dirichlet data.
    """

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps
        self._denom = 1.0 + np.exp(-1.0 / eps)

    def X(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 - (np.exp(-t / self.eps) + np.exp(-(1.0 - t) / self.eps)) / self._denom

    def dX(self, t):
        t = np.asarray(t, dtype=float)
        return (np.exp(-t / self.eps) - np.exp(-(1.0 - t) / self.eps)) / (
            self.eps * self._denom
        )

    def d2X(self, t):
        return (self.X(t) - 1.0) / self.eps**2

    def value(self, x, y):
        return self.X(x) * self.X(y)

    def grad(self, x, y):
        return np.stack([self.dX(x) * self.X(y), self.X(x) * self.dX(y)], axis=-1)

    def f(self, x, y):
        xx, yy = self.X(x), self.X(y)
        return xx + yy - xx * yy

    def residual(self, x, y):
        """-eps^2 Lap(u) + u - f, pointwise (zero up to roundoff)."""
        lap = self.d2X(x) * self.X(y) + self.X(x) * self.d2X(y)
        return -self.eps**2 * lap + self.value(x, y) - self.f(x, y)


def manufactured_layer_solution(eps: float) -> ManufacturedSolution:
    return ManufacturedSolution(eps)
