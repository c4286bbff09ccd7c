import numpy as np

from hpbl.reference import (
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
        np.testing.assert_allclose(b.eval(b.nodes), np.eye(b.ndofs), atol=1e-12)
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
        vals = b.eval(pts)
        # along edge k only its own edge dofs are active, forming the identity
        np.testing.assert_allclose(vals[:, list(b.edge_ids[k])], np.eye(5), atol=1e-12)
        mask = np.ones(b.ndofs, dtype=bool)
        mask[list(b.edge_ids[k])] = False
        np.testing.assert_allclose(vals[:, mask], 0.0, atol=1e-12)


def test_tri_basis_nodal_identity_and_vertices():
    for q in (1, 2, 5):
        b = tri_basis(q)
        assert b.ndofs == (q + 1) * (q + 2) // 2
        np.testing.assert_allclose(b.eval(b.nodes), np.eye(b.ndofs), atol=1e-11)
    b = tri_basis(3)
    np.testing.assert_allclose(b.nodes[:3], [[0, 0], [1, 0], [1, 1]], atol=1e-15)


def test_projection_reproduction():
    rng = np.random.default_rng(3)
    grid = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
    f = _random_poly2(rng, 4)
    basis = rect_basis(4)
    vals = basis.eval(grid) @ f(*basis.nodes.T)
    np.testing.assert_allclose(vals, f(grid[:, 0], grid[:, 1]), atol=1e-11)

    tgrid = grid.copy()
    tgrid[:, 1] *= tgrid[:, 0]  # put the samples inside y <= x
    g = _random_poly_total(rng, 5)
    basis = tri_basis(5)
    vals = basis.eval(tgrid) @ g(*basis.nodes.T)
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
    g = np.einsum("pnd,n->pd", basis.grad(pts), f(*basis.nodes.T))
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
