"""The manufactured reaction-diffusion solution behind manufactured mode.

``ManufacturedSolution(eps)`` is an exact solution of -eps^2 Lap(u) + u = f
on the unit square with u = 0 on the boundary, exhibiting genuine
boundary layers on all four edges.  Its evaluations are stable for
arbitrarily small eps: no exponential is ever taken of a positive
argument, nor of one below -745.2, which underflows to 0.0 at 15-25x the cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ManufacturedSolution"]


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

    def _X_dX(self, t):
        """X(t) and X'(t) from one evaluation of the two exponentials."""
        t = np.asarray(t, dtype=float)
        a, b = self._decay(t), self._decay(1.0 - t)
        return 1.0 - (a + b) / self._denom, (a - b) / (self.eps * self._denom)

    def _decay(self, u):
        """exp(-u/eps), taken only where it does not underflow; NaN stays NaN."""
        return np.exp(-u / self.eps, out=np.zeros_like(u), where=~(u >= 745.2 * self.eps))

    def X(self, t):
        return self._X_dX(t)[0]

    def value_grad(self, x, y):
        """u (N,) and grad u (N, 2), from one ``_X_dX`` pass per coordinate."""
        (xx, dx), (yy, dy) = self._X_dX(x), self._X_dX(y)
        return xx * yy, np.stack([dx * yy, xx * dy], axis=-1)

    def f(self, x, y):
        xx, yy = self.X(x), self.X(y)
        return xx + yy - xx * yy

