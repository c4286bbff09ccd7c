"""Gauss-Lobatto nodes, weights and barycentric Lagrange interpolation.

The Gauss-Lobatto (GL) points of degree q are the q+1 roots of
(1 - x^2) P_q'(x) on [-1, 1], where P_q is the Legendre polynomial.
Interpolation at these points is the workhorse of the whole package:
every element operator (tensorized on quadrilaterals, trace-matched on
triangles) reduces to univariate GL interpolation along edges, which is
what makes the elementwise interpolants glue together continuously.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gauss_lobatto_rule",
    "legendre_pair",
    "LagrangeBasis1D",
    "gauss_legendre_rule",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def legendre_pair(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (P_q, P_q') at x via the three-term recurrence.

    The recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2} is stable on
    [-1, 1]; the derivative follows from the standard identity
    (1-x^2) P_q'(x) = q (P_{q-1}(x) - x P_q(x)) away from the endpoints,
    but we carry the derivative through the recurrence instead so the
    formula also holds at x = +-1.
    """
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    if q == 0:
        return p_prev, dp_prev
    p = x.copy()
    dp = np.ones_like(x)
    for k in range(2, q + 1):
        p_next = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp_next = ((2 * k - 1) * (p + x * dp) - (k - 1) * dp_prev) / k
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def _interior_gl_nodes(q: int) -> np.ndarray:
    """Roots of P_q' in (-1, 1) by safeguarded Newton iteration.

    Starting guesses are the Chebyshev-Gauss-Lobatto points; each root is
    kept inside a monotonically shrinking bracket formed by the midpoints
    to the neighbouring guesses, with a bisection step whenever Newton
    would leave the bracket.
    """
    if q < 2:
        return np.empty(0)
    guesses = -np.cos(np.pi * np.arange(q + 1) / q)

    def dp_and_ddp(x: float) -> tuple[float, float]:
        p, dp = legendre_pair(q, np.asarray(x))
        # Legendre ODE: (1-x^2) P'' = 2x P' - q(q+1) P
        ddp = (2.0 * x * dp - q * (q + 1) * p) / (1.0 - x * x)
        return float(dp), float(ddp)

    roots = []
    for i in range(1, q):
        lo = 0.5 * (guesses[i - 1] + guesses[i])
        hi = 0.5 * (guesses[i] + guesses[i + 1])
        f_lo, _ = dp_and_ddp(lo)
        f_hi, _ = dp_and_ddp(hi)
        bracketed = f_lo * f_hi < 0.0
        x = float(guesses[i])
        for _ in range(_NEWTON_MAXIT):
            f, fp = dp_and_ddp(x)
            if bracketed:
                if f * f_lo < 0.0:
                    hi = x
                else:
                    lo, f_lo = x, f
            step = f / fp
            x_new = x - step
            if bracketed and not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
            if abs(x_new - x) <= _NEWTON_TOL:
                x = x_new
                break
            x = x_new
        roots.append(x)
    return np.array(roots)


_GL_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_lobatto_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the (q+1)-point Gauss-Lobatto rule on [-1, 1].

    The rule integrates polynomials up to degree 2q-1 exactly.  Weights
    are w_i = 2 / (q (q+1) P_q(x_i)^2).  Nodes are returned ascending and
    are exactly antisymmetric about 0.  Each degree is computed once; the
    arrays are cached and read-only.
    """
    if q < 1:
        raise ValueError(f"Gauss-Lobatto rule needs degree q >= 1, got {q}")
    if q in _GL_RULES:
        return _GL_RULES[q]
    interior = _interior_gl_nodes(q)
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    # enforce exact symmetry (the interior Newton solves are independent)
    nodes = 0.5 * (nodes - nodes[::-1])
    p, _ = legendre_pair(q, nodes)
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
