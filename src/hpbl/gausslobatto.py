"""Gauss-Lobatto nodes, weights and barycentric Lagrange interpolation.

The Gauss-Lobatto (GL) points of degree q are the q+1 roots of
(1 - x^2) P_q'(x) on [-1, 1], where P_q is the Legendre polynomial.
The interior points come from one symmetric tridiagonal eigenvalue solve
(Golub-Welsch), so no iterative root finder can stop on a wrong root.
Interpolation at these points is the workhorse of the whole package:
every element operator (tensorized on quadrilaterals, trace-matched on
triangles) reduces to univariate GL interpolation along edges, which is
what makes the elementwise interpolants glue together continuously.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gauss_lobatto_rule",
    "LagrangeBasis1D",
    "gauss_legendre_rule",
]

_GL_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_lobatto_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the (q+1)-point Gauss-Lobatto rule on [-1, 1].

    The rule integrates polynomials up to degree 2q-1 exactly.  The
    interior nodes, the roots of P_q', are the Gauss-Jacobi(1, 1) nodes:
    the eigenvalues of the (q-1)x(q-1) symmetric tridiagonal Jacobi
    matrix with zero diagonal and off-diagonal
    sqrt(k (k+2) / ((2k+1) (2k+3))), k = 1..q-2 (Golub & Welsch, Math.
    Comp. 23, 1969).  Weights are w_i = 2 / (q (q+1) P_q(x_i)^2).  Nodes
    are returned ascending and are exactly antisymmetric about 0.  Each
    degree is computed once; the arrays are cached and read-only.
    """
    if q < 1:
        raise ValueError(f"Gauss-Lobatto rule needs degree q >= 1, got {q}")
    if q in _GL_RULES:
        return _GL_RULES[q]
    k = np.arange(1, q - 1)
    jacobi = np.zeros((q - 1, q - 1))
    jacobi[k, k - 1] = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    interior = np.linalg.eigvalsh(jacobi)  # reads the lower triangle
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    # enforce exact symmetry (the eigenvalues carry independent rounding)
    nodes = 0.5 * (nodes - nodes[::-1])
    p = np.polynomial.legendre.legval(nodes, np.eye(q + 1)[q])
    weights = 2.0 / (q * (q + 1) * p * p)
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = weights.flags.writeable = False
    _GL_RULES[q] = nodes, weights
    return nodes, weights


class LagrangeBasis1D:
    """Lagrange basis on a fixed node set in barycentric form.

    Evaluation uses the second (true) barycentric formula, which is
    numerically stable for the clustered node families used here; see
    Berrut & Trefethen, SIAM Review 46 (2004).  Derivatives of the basis
    are obtained by interpolating the columns of the differentiation
    matrix, which is exact because each l_j' again has degree <= q.
    """

    def __init__(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two distinct 1d nodes")
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        self.nodes = nodes
        # scale-invariant barycentric weights (only ratios enter the formula)
        logs = np.sum(np.log(np.abs(diff)), axis=1)
        signs = np.prod(np.sign(diff), axis=1)
        self.bary = signs * np.exp(-(logs - logs.mean()))
        self._dmat: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.nodes.size

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Basis values; shape (npts, nnodes)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dx = x[:, None] - self.nodes[None, :]
        hit = dx == 0.0
        on_node = hit.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.bary[None, :] / dx
            vals = terms / terms.sum(axis=1, keepdims=True)
        if on_node.any():
            vals[on_node] = hit[on_node].astype(float)
        return vals

    def diff_matrix(self) -> np.ndarray:
        """Spectral differentiation matrix D with (D f)_i = p'(x_i)."""
        if self._dmat is None:
            w, x = self.bary, self.nodes
            dx = x[:, None] - x[None, :]
            np.fill_diagonal(dx, 1.0)
            d = (w[None, :] / w[:, None]) / dx
            np.fill_diagonal(d, 0.0)
            np.fill_diagonal(d, -d.sum(axis=1))
            self._dmat = d
        return self._dmat

    def eval_deriv(self, x: np.ndarray) -> np.ndarray:
        """Derivatives of the basis functions; shape (npts, nnodes)."""
        return self.eval(x) @ self.diff_matrix()


def gauss_legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [0, 1] (exact through degree 2m-1)."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w
