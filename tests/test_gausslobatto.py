import numpy as np

from hpbl.gausslobatto import (
    LagrangeBasis1D,
    gauss_legendre_rule,
    gauss_lobatto_rule,
)

from helpers import lebesgue_constant


def test_lobatto_small_rules():
    x, w = gauss_lobatto_rule(1)
    np.testing.assert_allclose(x, [-1.0, 1.0])
    np.testing.assert_allclose(w, [1.0, 1.0])
    x, w = gauss_lobatto_rule(2)
    np.testing.assert_allclose(x, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])
    # q=4: interior nodes at +-sqrt(3/7)
    x, w = gauss_lobatto_rule(4)
    np.testing.assert_allclose(x[1], -np.sqrt(3.0 / 7.0), atol=1e-14)
    np.testing.assert_allclose(w, [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10], atol=1e-14)


def test_lobatto_exactness_degree():
    # a (q+1)-point Lobatto rule integrates polynomials up to degree 2q-1
    for q in range(1, 31):
        x, w = gauss_lobatto_rule(q)
        for k in range(2 * q):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) < 1e-13, (q, k)


def test_legendre_rule_exactness():
    # Gauss-Legendre points on [0, 1]
    for m in (1, 2, 4, 7):
        x, w = gauss_legendre_rule(m)
        assert len(x) == m
        assert x.min() > 0.0 and x.max() < 1.0
        for k in range(2 * m):
            assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-13, (m, k)


def test_lagrange_basis_identity_and_derivative():
    nodes, _ = gauss_lobatto_rule(5)
    basis = LagrangeBasis1D(nodes)
    np.testing.assert_allclose(basis.eval(nodes), np.eye(6), atol=1e-13)
    # differentiation matrix rows sum to zero (derivative of the constant)
    D = basis.diff_matrix()
    np.testing.assert_allclose(D.sum(axis=1), np.zeros(6), atol=1e-12)
    # exact derivative of x^4 at the nodes
    np.testing.assert_allclose(D @ nodes**4, 4 * nodes**3, atol=1e-12)


def test_interp_reproduces_polynomials():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(6)

    def f(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    nodes, _ = gauss_lobatto_rule(5)
    basis = LagrangeBasis1D(nodes)
    x = np.linspace(-1, 1, 101)
    np.testing.assert_allclose(basis.eval(x) @ f(nodes), f(x), atol=1e-12)
    np.testing.assert_allclose(
        basis.eval_deriv(x) @ f(nodes),
        sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k),
        atol=1e-11,
    )


def test_lebesgue_constant_basics():
    # linear interpolation at {-1, 1}: |l0| + |l1| = 1 everywhere
    assert abs(lebesgue_constant(1) - 1.0) < 1e-12
    vals = [lebesgue_constant(q, npts=20001) for q in (2, 4, 8, 16)]
    assert all(v >= 1.0 for v in vals)
    # Lobatto points keep the constant small; logarithmic growth
    assert vals[-1] < 4.0
