"""Reference-element polynomial bases and quadrature.

Two reference elements are used throughout:

* the unit square S = [0,1]^2 with the full tensor space Q_q, carrying
  a nodal basis on the (q+1)^2 grid of Gauss-Lobatto (GL) points;
* the triangle T = {0 <= y <= x <= 1} (vertices (0,0), (1,0), (1,1))
  with the total-degree space P_q, carrying a nodal basis whose edge
  nodes are exactly the GL points of each edge.

Nodal interpolation in either basis is a projection onto its space and
restricts on every edge to univariate GL interpolation of the trace;
this trace property is what makes the finite element spaces built from
these bases, and nodal interpolants in them, globally continuous.

The triangle nodes combine exact GL points on the edges with
warped-barycentric interior points (the classical warp-and-blend
distribution), and the nodal basis is realized through a generalized
Vandermonde matrix in an orthonormal Dubiner-type modal basis, which
keeps the Vandermonde solve well conditioned: its 2-norm condition number
grows smoothly with q and reads 204.7 at q = 16.

Each basis tabulates values and gradients in one pass (``tabulate``);
the quadrature rules are cached per point count and read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .gausslobatto import LagrangeBasis1D, gauss_legendre_rule, gauss_lobatto_rule, read_only

__all__ = [
    "RectBasis",
    "TriBasis",
    "rect_quadrature",
    "tri_quadrature",
]


def shifted_gl(q: int) -> np.ndarray:
    """GL nodes mapped to [0, 1]."""
    nodes, _ = gauss_lobatto_rule(q)
    return 0.5 * (nodes + 1.0)


# ---------------------------------------------------------------------------
# orthonormal Jacobi polynomials


@functools.lru_cache(maxsize=None)
def _jacobi_norm(n: int, alpha: float, beta: float) -> float:
    """L2([-1,1], (1-x)^a (1+x)^b) norm^2 of the classical Jacobi P_n;
    cached, since each degree's tables ask for the same few."""
    num = (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(n + alpha + 1.0)
        + math.lgamma(n + beta + 1.0)
        - math.lgamma(n + alpha + beta + 1.0)
        - math.lgamma(n + 1.0)
    )
    return math.exp(num) / (2.0 * n + alpha + beta + 1.0)


def _jacobi_table(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Orthonormal Jacobi polynomials of degrees 0..n at x, shape (n + 1, len(x)).

    One pass of the three-term recurrence for the classical P_k^(alpha, beta)
    (Karniadakis & Sherwin, Spectral/hp Element Methods for CFD, 2nd ed.,
    App. A), then each degree divided by its norm.
    """
    out = np.empty((n + 1, len(x)))
    out[0] = 1.0
    if n >= 1:
        out[1] = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    for k in range(2, n + 1):
        c = 2.0 * k + alpha + beta
        a1 = 2.0 * k * (k + alpha + beta) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 2.0) * (c - 1.0) * c
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * c
        out[k] = ((a2 + a3 * x) * out[k - 1] - a4 * out[k - 2]) / a1
    norms = [math.sqrt(_jacobi_norm(k, alpha, beta)) for k in range(n + 1)]
    return out / np.array(norms)[:, None]


def _grad_jacobi_table(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Derivatives of ``_jacobi_table(n, alpha, beta, x)``, by d/dx P_k = c_k P_{k-1}^(a+1,b+1)."""
    out = np.zeros((n + 1, len(x)))
    if n > 0:
        k = np.arange(1, n + 1)
        out[1:] = np.sqrt(k * (k + alpha + beta + 1.0))[:, None] * _jacobi_table(
            n - 1, alpha + 1.0, beta + 1.0, x
        )
    return out


# ---------------------------------------------------------------------------
# square


class RectBasis:
    """Nodal Q_q basis on [0,1]^2 at the tensor GL grid.

    Local node (i, j) has index j*(q+1) + i; node 0 sits at the origin
    and the boundary nodes of each edge are the GL points of that edge.
    """

    shape = "r"

    def __init__(self, q: int):
        self.q = q
        self.nodes_1d = shifted_gl(q)
        self.basis_1d = LagrangeBasis1D(self.nodes_1d)
        self.nodes = np.column_stack([a.ravel() for a in np.meshgrid(self.nodes_1d, self.nodes_1d)])
        self.ndofs = (q + 1) ** 2
        n = q + 1
        self.corner_ids = (0, q, n * n - 1, q * n)
        bottom = np.arange(n)
        right = q + n * np.arange(n)
        top = (n * n - 1) - np.arange(n)
        left = q * n - n * np.arange(n)
        # edges listed counterclockwise, endpoints included
        self.edge_ids = (bottom, right, top, left)
        self.interior_ids = np.array(
            [j * n + i for j in range(1, q) for i in range(1, q)], dtype=int
        )

    def tabulate(self, pts: np.ndarray):
        """Values (P, nbasis) and gradients (P, nbasis, 2) at pts (P, 2): the
        1-D values are evaluated once per distinct coordinate (m of them on
        an m x m tensor rule), gathered per point into bx and by, and
        multiplied out with their derivatives bx D and by D (``diff_matrix``)."""
        pts = np.atleast_2d(pts)
        coords, at = np.unique(pts.ravel(), return_inverse=True)
        bx, by = self.basis_1d.eval(coords)[at.reshape(pts.shape).T]
        d = self.basis_1d.diff_matrix()

        def outer(fx, fy):
            return np.einsum("ni,nj->nji", fx, fy).reshape(len(pts), self.ndofs)

        return outer(bx, by), np.stack([outer(bx @ d, by), outer(bx, by @ d)], axis=-1)

    def factors(self, pts: np.ndarray):
        """The point factors of ``contract`` at pts (P, 2): the 1-D values
        and derivatives in x stacked (P, q+1, 2), and those in y (P, q+1)
        twice.  A row depends only on its point, so rows can be gathered."""
        d = self.basis_1d.diff_matrix()
        bx = self.basis_1d.eval(pts[:, 0])
        by = self.basis_1d.eval(pts[:, 1])
        return np.stack([bx, bx @ d], axis=-1), by, by @ d

    def contract(self, factors, coeffs: np.ndarray):
        """Values (P,) and gradients (P, 2) of sum_n coeffs[k, n] phi_n at
        point k, from the rows of ``factors`` for those points.

        Coefficient-first: each point's (q+1) x (q+1) coefficient grid is
        contracted with the 1-D factors in x, then in y, so no (P, nbasis)
        table is built.
        """
        bx, by, dby = factors
        n = self.q + 1
        # rows: y index j; (P, n, 2) holds sum_i c_ji l_i(x) and sum_i c_ji l_i'(x)
        tx = coeffs.reshape(-1, n, n) @ bx
        vals = np.einsum("pj,pj->p", by, tx[..., 0])
        gx = np.einsum("pj,pj->p", by, tx[..., 1])
        gy = np.einsum("pj,pj->p", dby, tx[..., 0])
        return vals, np.column_stack([gx, gy])


# ---------------------------------------------------------------------------
# triangle

# blending exponents tuned per degree for the warp-and-blend distribution
_ALPHA_OPT = (
    0.0000, 0.0000, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
    1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258,
)


def _warp_blend_barycentric(q: int) -> np.ndarray:
    """Interior warp-and-blend lattice in barycentric coordinates."""
    alpha = _ALPHA_OPT[q - 1] if q <= len(_ALPHA_OPT) else 5.0 / 3.0
    lam = []
    for i in range(1, q):
        for j in range(1, q - i):
            lam.append((1.0 - (i + j) / q, i / q, j / q))
    if not lam:
        return np.empty((0, 3))
    lam = np.array(lam)  # columns: l0, l1, l2
    # the warp factor at r: the displacement of q + 1 equispaced points on
    # [-1, 1] to the GL points, interpolated at r and divided by 1 - r^2
    req = np.linspace(-1.0, 1.0, q + 1)
    lag, shift = LagrangeBasis1D(req), gauss_lobatto_rule(q)[0] - req
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    # equilateral frame, vertices at angles 90/210/330 degrees
    verts = np.array(
        [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]]
    )
    xy = lam @ verts
    # each warp displaces along one edge (a -> b), damped away from it
    # through the blend 4*lam_a*lam_b and boosted near the opposite
    # vertex c by the tuned factor (1 + (alpha*lam_c)^2)
    dirs = (verts[2] - verts[1], verts[0] - verts[2], verts[1] - verts[0])
    pairs = ((l1, l2, l0), (l2, l0, l1), (l0, l1, l2))
    for (a, b, c), d in zip(pairs, dirs):
        r = b - a
        interior = np.abs(r) < 1.0 - 1e-10
        sf = 1.0 - np.where(interior, r, 0.0) ** 2
        warp = np.where(interior, (lag.eval(r) @ shift) / sf, 0.0)
        w = 4.0 * a * b * warp * (1.0 + (alpha * c) ** 2)
        xy = xy + w[:, None] * (d / np.linalg.norm(d))[None, :]
    # back to barycentric by solving the affine system
    mat = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    loc = np.linalg.solve(mat, (xy - verts[0]).T).T
    return np.column_stack([1.0 - loc.sum(axis=1), loc[:, 0], loc[:, 1]])


class TriBasis:
    """Nodal P_q basis on the triangle with vertices (0,0), (1,0), (1,1).

    Node order: the three vertices, then the interiors of edges
    (0->1, 1->2, 2->0) each holding q-1 GL points in edge direction,
    then the interior warp-and-blend points.
    """

    shape = "t"
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

    def __init__(self, q: int):
        self.q = q
        self.ndofs = (q + 1) * (q + 2) // 2
        g = shifted_gl(q)[1:-1]
        bary = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        bary += [(1.0 - t, t, 0.0) for t in g]
        bary += [(0.0, 1.0 - t, t) for t in g]
        bary += [(t, 0.0, 1.0 - t) for t in g]
        interior = _warp_blend_barycentric(q)
        bary = np.vstack([np.array(bary), interior]) if len(interior) else np.array(bary)
        self.nodes = bary @ self.verts
        ne = q - 1
        self.corner_ids = (0, 1, 2)
        self.edge_ids = (
            np.concatenate(([0], 3 + np.arange(ne), [1])),
            np.concatenate(([1], 3 + ne + np.arange(ne), [2])),
            np.concatenate(([2], 3 + 2 * ne + np.arange(ne), [0])),
        )
        self.interior_ids = np.arange(3 + 3 * ne, self.ndofs)
        self._vinv = np.linalg.inv(self._modal(self.nodes))

    @functools.cached_property
    def vandermonde_cond(self) -> float:
        """2-norm condition number of the Vandermonde matrix, on first read."""
        return float(np.linalg.cond(self._modal(self.nodes)))

    def _collapsed(self, pts: np.ndarray):
        """Collapsed (a, b) coordinates of points in the reference triangle.

        Barycentric coordinates w.r.t. the vertices are (1-x, x-y, y);
        in the standard (-1,1)^2-collapsed frame this gives
        r = 2(x-y) - 1, s = 2y - 1, a = 2(1+r)/(1-s) - 1, b = s.
        """
        x, y = pts[:, 0], pts[:, 1]
        r = 2.0 * (x - y) - 1.0
        s = 2.0 * y - 1.0
        near_top = np.abs(1.0 - s) < 1e-14
        a = np.where(
            near_top, -1.0, 2.0 * (1.0 + r) / np.where(near_top, 1.0, 1.0 - s) - 1.0
        )
        return a, s

    def _modal(self, pts: np.ndarray, grad: bool = False):
        """Modal values (P, M) at pts and, with ``grad``, also gradients (P, M, 2).

        Mode (i, j) is sqrt(2) P_i^(0,0)(a) P_j^(2i+1,0)(b) (1-b)^i with
        orthonormal Jacobi factors; modes run over i, then j.  Each factor
        family comes from one recurrence pass that serves values and
        gradients alike.
        """
        a, b = self._collapsed(np.atleast_2d(pts))
        q = self.q
        fa = _jacobi_table(q, 0.0, 0.0, a)
        vals = np.empty((len(a), self.ndofs))
        if grad:
            dfa = _grad_jacobi_table(q, 0.0, 0.0, a)
            grads = np.empty((len(a), self.ndofs, 2))
        half_1mb = 0.5 * (1.0 - b)
        k0 = 0
        for i in range(q + 1):
            cols = slice(k0, k0 + q + 1 - i)
            k0 = cols.stop
            gb = _jacobi_table(q - i, 2.0 * i + 1.0, 0.0, b)
            vals[:, cols] = (math.sqrt(2.0) * fa[i] * (1.0 - b) ** i * gb).T
            if not grad:
                continue
            dgb = _grad_jacobi_table(q - i, 2.0 * i + 1.0, 0.0, b)
            pow_im1 = half_1mb ** (i - 1) if i > 0 else np.ones_like(b)
            dr = dfa[i] * gb * pow_im1
            ds = dfa[i] * (gb * 0.5 * (1.0 + a)) * pow_im1
            tmp = dgb * (half_1mb**i)
            if i > 0:
                tmp = tmp - 0.5 * i * gb * pow_im1
            ds = ds + fa[i] * tmp
            scale = 2.0 ** (i + 0.5)
            # chain rule to the (x,y) frame of the reference triangle:
            # r = 2x - 2y - 1, s = 2y - 1
            grads[:, cols, 0] = (scale * dr * 2.0).T
            grads[:, cols, 1] = (scale * (-2.0 * dr + 2.0 * ds)).T
        return (vals, grads) if grad else vals

    def tabulate(self, pts: np.ndarray):
        """Values (P, nbasis) and gradients (P, nbasis, 2) at pts (P, 2),
        from one ``_modal`` pass: modal tables times V^-1."""
        v, g = self._modal(pts, grad=True)  # (P, M, 2); matmul runs on BLAS, einsum here does not
        return v @ self._vinv, np.swapaxes(np.swapaxes(g, 1, 2) @ self._vinv, 1, 2)

    def factors(self, pts: np.ndarray):
        """The point factors of ``contract`` at pts (P, 2): the modal values
        (P, M) and gradients (P, M, 2).  A row depends only on its point,
        so rows can be gathered."""
        return self._modal(pts, grad=True)

    def contract(self, factors, coeffs: np.ndarray):
        """Values (P,) and gradients (P, 2) of sum_n coeffs[k, n] phi_n at
        point k, from the rows of ``factors`` for those points.

        Coefficient-first: the nodal coefficients go to modal ones through
        V^-1 once per point, then meet the modal values and gradients.
        """
        mvals, mgrads = factors
        modal = coeffs @ self._vinv.T
        vals = np.einsum("pm,pm->p", mvals, modal)
        grads = np.einsum("pmd,pm->pd", mgrads, modal)
        return vals, grads


@functools.lru_cache(maxsize=64)
def rect_basis(q: int) -> RectBasis:
    return RectBasis(q)


@functools.lru_cache(maxsize=64)
def tri_basis(q: int) -> TriBasis:
    return TriBasis(q)


# ---------------------------------------------------------------------------
# quadrature on the reference elements


@functools.lru_cache(maxsize=64)
def rect_quadrature(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule with m points per direction on [0,1]^2."""
    x, w = gauss_legendre_rule(m)
    xx, yy = np.meshgrid(x, x, indexing="xy")
    ww = np.outer(w, w)
    return read_only(np.column_stack([xx.ravel(), yy.ravel()]), ww.ravel())


@functools.lru_cache(maxsize=64)
def tri_quadrature(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy-transformed tensor rule on the triangle 0 <= y <= x <= 1."""
    x, w = gauss_legendre_rule(m)
    u, v = np.meshgrid(x, x, indexing="xy")
    pts = np.column_stack([u.ravel(), (u * v).ravel()])
    ww = (np.outer(w, w) * u).ravel()
    return read_only(pts, ww)
