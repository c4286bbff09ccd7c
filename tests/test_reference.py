import math

import numpy as np
import pytest

from hpbl import fem
from hpbl.reference import (
    TriBasis,
    _jacobi_norm,
    _jacobi_table,
    rect_basis,
    rect_quadrature,
    shifted_gl,
    tri_basis,
    tri_quadrature,
)


def _random_poly2(rng, q):
    C = rng.standard_normal((q + 1, q + 1))

    def f(x, y):
        return sum(
            C[i, j] * x**i * y**j for i in range(q + 1) for j in range(q + 1)
        )

    return f


def _random_poly_total(rng, q):
    C = rng.standard_normal((q + 1, q + 1))

    def f(x, y):
        return sum(
            C[i, j] * x**i * y**j
            for i in range(q + 1)
            for j in range(q + 1 - i)
        )

    return f


def test_shifted_gl_nodes():
    t = shifted_gl(4)
    assert t[0] == 0.0 and t[-1] == 1.0
    np.testing.assert_allclose(t + t[::-1], np.ones(5), atol=1e-15)


def test_rect_basis_nodal_identity():
    for q in (1, 3, 6):
        b = rect_basis(q)
        assert b.ndofs == (q + 1) ** 2
        np.testing.assert_allclose(b.tabulate(b.nodes)[0], np.eye(b.ndofs), atol=1e-12)
        # corners counterclockwise from the origin
        np.testing.assert_allclose(
            b.nodes[list(b.corner_ids)], [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-15
        )


def test_rect_edge_traces_are_1d_gl():
    b = rect_basis(4)
    t = shifted_gl(4)
    edges = {
        0: np.column_stack([t, np.zeros(5)]),
        1: np.column_stack([np.ones(5), t]),
        2: np.column_stack([t[::-1], np.ones(5)]),
        3: np.column_stack([np.zeros(5), t[::-1]]),
    }
    for k, pts in edges.items():
        vals = b.tabulate(pts)[0]
        # along edge k only its own edge dofs are active, forming the identity
        np.testing.assert_allclose(vals[:, list(b.edge_ids[k])], np.eye(5), atol=1e-12)
        mask = np.ones(b.ndofs, dtype=bool)
        mask[list(b.edge_ids[k])] = False
        np.testing.assert_allclose(vals[:, mask], 0.0, atol=1e-12)


def test_tri_basis_nodal_identity_and_vertices():
    for q in (1, 2, 5):
        b = tri_basis(q)
        assert b.ndofs == (q + 1) * (q + 2) // 2
        np.testing.assert_allclose(b.tabulate(b.nodes)[0], np.eye(b.ndofs), atol=1e-11)
    b = tri_basis(3)
    np.testing.assert_allclose(b.nodes[:3], [[0, 0], [1, 0], [1, 1]], atol=1e-15)
    # the modal Vandermonde stays well conditioned through q = 16 (it reads
    # 204.7 there); a wrong edge GL rule shows as a spike
    for q in range(1, 17):
        assert tri_basis(q).vandermonde_cond <= 250.0, q
    assert tri_basis(16).vandermonde_cond == pytest.approx(204.7, abs=0.05)


def test_vandermonde_cond_is_computed_on_first_read():
    b = TriBasis(6)
    assert "vandermonde_cond" not in vars(b)  # no SVD at construction
    cond = b.vandermonde_cond
    assert cond == float(np.linalg.cond(b._modal(b.nodes)))
    assert vars(b)["vandermonde_cond"] == cond


def _per_point_tables(basis, pts):
    """Values and gradients as ``eval`` and ``grad`` formed them before
    ``tabulate``: the square's 1-D factors evaluated afresh at every point,
    four barycentric passes; the triangle's modal tables once per output."""
    if basis.shape == "r":
        b1 = basis.basis_1d
        bx, by = b1.eval(pts[:, 0]), b1.eval(pts[:, 1])
        dbx, dby = (b1.eval(p) @ b1.diff_matrix() for p in pts.T)

        def outer(fx, fy):
            return np.einsum("ni,nj->nji", fx, fy).reshape(len(pts), basis.ndofs)

        return outer(bx, by), np.stack([outer(dbx, by), outer(bx, dby)], axis=-1)
    _, g = basis._modal(pts, grad=True)
    return basis._modal(pts) @ basis._vinv, np.swapaxes(np.swapaxes(g, 1, 2) @ basis._vinv, 1, 2)


@pytest.mark.parametrize("shape", ["r", "t"])
def test_one_pass_tables_match_the_per_point_formulas(shape):
    # fem._tables from one tabulate pass, and tabulate at scattered points
    # that share some coordinates, against the per-point formulas: bit for
    # bit, -0.0 against 0.0 included
    rng = np.random.default_rng(11)
    for q in range(1, 11):
        basis = rect_basis(q) if shape == "r" else tri_basis(q)
        scattered = rng.uniform(0.0, 1.0, (40, 2))
        scattered[::4, 0] = scattered[1::4, 1]
        scattered[:, 1] *= scattered[:, 0] if shape == "t" else 1.0
        for m in (q + 2, q + 3):
            pts, _, B, G = fem._tables(shape, q, m)
            for got, pts in (((B, G), pts), (basis.tabulate(scattered), scattered)):
                for a, b in zip(got, _per_point_tables(basis, pts)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (q, m)


def test_projection_reproduction():
    rng = np.random.default_rng(3)
    grid = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
    f = _random_poly2(rng, 4)
    basis = rect_basis(4)
    vals = basis.tabulate(grid)[0] @ f(*basis.nodes.T)
    np.testing.assert_allclose(vals, f(grid[:, 0], grid[:, 1]), atol=1e-11)

    tgrid = grid.copy()
    tgrid[:, 1] *= tgrid[:, 0]  # put the samples inside y <= x
    g = _random_poly_total(rng, 5)
    basis = tri_basis(5)
    vals = basis.tabulate(tgrid)[0] @ g(*basis.nodes.T)
    np.testing.assert_allclose(vals, g(tgrid[:, 0], tgrid[:, 1]), atol=1e-10)


def test_poly_gradients():
    def f(x, y):
        return x**3 * y + 2 * y**2

    def fx(x, y):
        return 3 * x**2 * y

    def fy(x, y):
        return x**3 + 4 * y

    pts = np.column_stack([np.linspace(0.1, 0.9, 7), np.linspace(0.05, 0.8, 7)])
    basis = rect_basis(4)
    g = np.einsum("pnd,n->pd", basis.tabulate(pts)[1], f(*basis.nodes.T))
    np.testing.assert_allclose(g[:, 0], fx(pts[:, 0], pts[:, 1]), atol=1e-11)
    np.testing.assert_allclose(g[:, 1], fy(pts[:, 0], pts[:, 1]), atol=1e-11)


def test_quadrature_moments():
    pts, w = rect_quadrature(5)
    for a in range(4):
        for b in range(4):
            val = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(val - 1.0 / ((a + 1) * (b + 1))) < 1e-13

    pts, w = tri_quadrature(6)
    assert abs(w.sum() - 0.5) < 1e-13
    for a in range(3):
        for b in range(3):
            # triangle 0 <= y <= x <= 1: integral of x^a y^b
            val = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
            exact = 1.0 / ((b + 1) * (a + b + 2))
            assert abs(val - exact) < 1e-13


def test_jacobi_recurrence_matches_scipy():
    from scipy.special import eval_jacobi

    x = np.linspace(-1.0, 1.0, 57)
    for alpha in range(26):
        for beta in (0, 1):
            table = _jacobi_table(12, alpha, beta, x)
            for n in range(13):
                ref = eval_jacobi(n, alpha, beta, x) / math.sqrt(_jacobi_norm(n, alpha, beta))
                scale = np.abs(ref).max()
                assert np.abs(table[n] - ref).max() <= 1e-14 * scale, (n, alpha, beta)


def _scipy_tri_tables(basis, pts):
    """Nodal values and gradients of ``basis`` at pts, one scipy.special call per mode.

    The per-mode Dubiner loop the recurrence replaced, kept as its reference.
    """
    from scipy.special import eval_jacobi, gammaln

    def jac(n, alpha, beta, x):
        lognorm = ((alpha + beta + 1.0) * math.log(2.0) + gammaln(n + alpha + 1.0)
                   + gammaln(n + beta + 1.0) - gammaln(n + alpha + beta + 1.0) - gammaln(n + 1.0))
        norm = math.exp(lognorm) / (2.0 * n + alpha + beta + 1.0)
        return eval_jacobi(n, alpha, beta, x) / math.sqrt(norm)

    def djac(n, alpha, beta, x):
        if n == 0:
            return np.zeros_like(x)
        return math.sqrt(n * (n + alpha + beta + 1.0)) * jac(n - 1, alpha + 1.0, beta + 1.0, x)

    def modal(p):
        a, b = basis._collapsed(p)
        vals, grads = [], []
        half = 0.5 * (1.0 - b)
        for i in range(basis.q + 1):
            for j in range(basis.q + 1 - i):
                fa, dfa = jac(i, 0.0, 0.0, a), djac(i, 0.0, 0.0, a)
                gb, dgb = jac(j, 2.0 * i + 1.0, 0.0, b), djac(j, 2.0 * i + 1.0, 0.0, b)
                vals.append(math.sqrt(2.0) * fa * gb * (1.0 - b) ** i)
                pow_im1 = half ** (i - 1) if i > 0 else np.ones_like(b)
                dr = dfa * gb * pow_im1
                ds = dfa * gb * 0.5 * (1.0 + a) * pow_im1 + fa * dgb * half**i
                if i > 0:
                    ds = ds - fa * 0.5 * i * gb * pow_im1
                scale = 2.0 ** (i + 0.5)
                grads.append(np.column_stack([scale * dr * 2.0, scale * (-2.0 * dr + 2.0 * ds)]))
        return np.column_stack(vals), np.stack(grads, axis=1)

    vinv = np.linalg.inv(modal(basis.nodes)[0])
    vals, grads = modal(pts)
    return vals @ vinv, np.einsum("pmd,mn->pnd", grads, vinv)


def test_tri_basis_matches_scipy_tables():
    for q in (*range(1, 11), 12):
        basis = tri_basis(q)
        pts, _ = tri_quadrature(q + 2)
        ref_vals, ref_grads = _scipy_tri_tables(basis, pts)
        tol = 1e-14 if q <= 10 else 1e-13
        for got, ref in zip(basis.tabulate(pts), (ref_vals, ref_grads)):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), q
