import copy
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbl import fem, stars
from hpbl.fem import (
    DiscreteField,
    DofMap,
    _PatternLocator,
    assemble,
    error_norms,
    interpolate,
    solve_cg,
)
from hpbl.geometry import Polygon
from hpbl.layouts import builtin_layout
from hpbl.macro import (
    MacroTriangulation,
    PatternAssignment,
    build_geo_bl_mesh,
    placement_for,
    validate_mesh,
)
from hpbl.oracles import ManufacturedSolution
from hpbl.patches import PatchKind, PatchParams
from hpbl.reference import rect_basis, tri_basis
from hpbl.study import ExperimentConfig, field_difference_norms, mesh_for, run_experiment

from helpers import (direct_solve, element_rows, energy_norm, error_norms_matmul_flux, evaluate,
                     facet_uses, full_system, jacobi_stars, nonaffine_meshes, pattern_mesh,
                     skeleton_csr, star_blocks)


def _unit_square_trivial():
    return pattern_mesh(PatchKind.TRIVIAL, PatchParams(sigma=0.5, L=0, n=0))


def test_center_value_oracle():
    # -lap u + u = 1 on the unit square, one Q2 element, a single free dof
    # at the center; hand integration gives A = 1344/225, b = 4/9, so
    # u(center) = (4/9) / (1344/225) = 25/336; the dof is a bubble, so the
    # condensed system is empty
    mesh = _unit_square_trivial()
    A, b = full_system(mesh, 2, 1.0, 1.0, 1.0)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(1344.0 / 225.0, rel=1e-14)
    assert b[0] == pytest.approx(4.0 / 9.0, rel=1e-14)
    system = assemble(mesh, 2, 1.0, 1.0, 1.0)
    assert system.dofmap.nfree == 1
    assert system.matrix.shape == (0, 0)
    fld, stats = system.solve()
    center = evaluate(fld, np.array([[0.5, 0.5]]))[0]
    assert center == pytest.approx(25.0 / 336.0, abs=1e-14)


def test_dof_counts():
    mesh = _unit_square_trivial()
    for q, interior in ((1, 0), (2, 1), (3, 4), (5, 16)):
        dm = DofMap(mesh, q)
        assert dm.ndofs == (q + 1) ** 2
        assert dm.nfree == interior


def test_dirichlet_on_all_boundary():
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
    dm = DofMap(mesh, 3)
    pts = dm.dof_points()
    np.testing.assert_array_equal(dm.dirichlet, poly.point_on_boundary(pts))


def test_solve_cg_oracles():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, iters, relres = solve_cg(A, np.array([3.0, 3.0]), jacobi_stars(A))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
    assert iters == 1  # Jacobi preconditioning solves this in one step

    rng = np.random.default_rng(42)
    M = rng.standard_normal((30, 30))
    A = sp.csr_matrix(M @ M.T + 30 * np.eye(30))
    b = rng.standard_normal(30)
    x, iters, relres = solve_cg(A, b, jacobi_stars(A))
    assert relres <= 1e-12
    np.testing.assert_allclose(A @ x, b, atol=1e-9)
    x, iters, relres = solve_cg(A, b, star_blocks(A, {30: np.arange(30)[None]}))
    assert iters == 1 and relres <= 1e-12  # one star over every dof inverts A
    np.testing.assert_allclose(A @ x, b, atol=1e-9)


def test_cg_failure_raises():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((40, 40))
    A = sp.csr_matrix(M @ M.T + np.eye(40))
    with pytest.raises(RuntimeError):
        solve_cg(A, rng.standard_normal(40), jacobi_stars(A), maxiter=2, tol=1e-14)


def test_cg_stops_at_once_on_nan_rhs():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(RuntimeError, match="breakdown at iteration 1:"):
        solve_cg(A, np.array([np.nan, 1.0]), jacobi_stars(A), maxiter=10_000)


def test_cg_stops_at_once_on_indefinite_matrix():
    # positive diagonal, eigenvalues 4 and -2; b is the negative eigenvector
    A = sp.csr_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
    with pytest.raises(RuntimeError, match="breakdown at iteration 1:"):
        solve_cg(A, np.array([1.0, -1.0]), jacobi_stars(A), maxiter=10_000)


def test_cg_stops_at_once_on_indefinite_star_block():
    # one star over both dofs: its block [[1, 3], [3, 1]] is indefinite, and
    # r.z = b.A^-1 b = -1/8 for b = (1, 0)
    A = sp.csr_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
    with pytest.raises(RuntimeError, match="breakdown at iteration 1: preconditioner not positive"):
        solve_cg(A, np.array([1.0, 0.0]), star_blocks(A, {2: np.array([[0, 1]])}), maxiter=10_000)
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError, match="breakdown at iteration 1: preconditioner is singular"):
        solve_cg(singular, np.array([1.0, 0.0]), star_blocks(singular, {2: np.array([[0, 1]])}))


def test_assemble_rejects_nonfinite_load():
    mesh = _unit_square_trivial()
    with pytest.raises(ValueError, match="not finite"):
        assemble(mesh, 2, 1.0, 1.0, lambda x, y: np.full_like(x, np.nan))


# a convex quad that is not a parallelogram: its bilinear map has an s*t
# term, so element Jacobians vary over every element
_SKEW_QUAD = np.array([[0.0, 0.0], [2.0, 0.3], [1.6, 1.5], [0.2, 1.0]])


@pytest.mark.parametrize(
    "kind",
    [PatchKind.TRIVIAL, PatchKind.CORNER, PatchKind.TENSOR, PatchKind.MIXED,
     PatchKind.BOUNDARY_LAYER],
)
def test_geometry_on_non_affine_quad(kind):
    poly = Polygon(_SKEW_QUAD)
    macro = MacroTriangulation(_SKEW_QUAD, [(0, 1, 2, 3)])
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2),
                             [PatternAssignment(kind)])
    # x + 2y is reproduced for q >= 2 (bilinear in rectangle coordinates,
    # quadratic in triangle coordinates), so only the geometry can err
    eps = 0.3
    for q in (2, 4):
        lin = interpolate(mesh, q, lambda x, y: x + 2.0 * y)
        assert energy_norm(lin, eps, 0.0) == pytest.approx(
            eps * np.sqrt(5.0 * poly.area()), rel=1e-12
        )

    mirrored = copy.deepcopy(mesh)
    mirrored.macro.nodes[:, 0] *= -1.0  # every element turns clockwise
    violations = validate_mesh(mirrored).violations
    for ei in range(mesh.element_count()):
        assert f"element {ei} has a non-positive Jacobian" in violations
    with pytest.raises(ValueError, match="element 0 has a non-positive Jacobian"):
        assemble(mirrored, 2, eps, 1.0, 1.0)


def test_galerkin_solution_is_energy_best():
    # the discrete solution minimizes the energy-norm distance to u over
    # the hp space; in particular it beats the nodal interpolant
    eps = 0.05
    ms = ManufacturedSolution(eps)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=3, n=3))
    fld, _ = assemble(mesh, 3, eps, 1.0, ms.f).solve()
    itp = interpolate(mesh, 3, lambda x, y: ms.value_grad(x, y)[0])
    e_fem = error_norms(fld, ms.value_grad, eps, 1.0)["energy"]
    e_itp = error_norms(itp, ms.value_grad, eps, 1.0)["energy"]
    assert e_fem <= e_itp * (1.0 + 1e-10)


def test_energy_norm_of_interpolated_constant():
    # c = 1, u = 1: energy norm sqrt(eps^2 * 0 + |Omega|) = 1 on the square
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.5, L=1, n=1))
    one = interpolate(mesh, 2, lambda x, y: np.ones_like(x))
    assert energy_norm(one, 0.1, 1.0) == pytest.approx(1.0, rel=1e-12)
    # an exact solution given as constants broadcasts over the points
    err = error_norms(one, lambda x, y: (1.0, np.zeros(2)), 0.1, 1.0)
    assert max(err.values()) < 1e-12


def test_manufactured_convergence_snapshot():
    # fixed mesh, increasing degree: errors drop monotonically and fast
    eps = 1e-2
    ms = ManufacturedSolution(eps)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=4, n=4))
    errs = []
    for q in (1, 2, 4, 6):
        fld, _ = assemble(mesh, q, eps, 1.0, ms.f).solve()
        errs.append(error_norms(fld, ms.value_grad, eps, 1.0)["energy"])
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2 * errs[0]


def test_direct_solver_matches_cg():
    eps = 0.1
    ms = ManufacturedSolution(eps)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
    system = assemble(mesh, 2, eps, 1.0, ms.f)
    f_cg, _ = system.solve()
    f_dir, stats = direct_solve(system)
    assert stats["iterations"] == 0
    np.testing.assert_allclose(f_cg.coeffs, f_dir.coeffs, atol=1e-9)


def test_cg_multiplies_the_returned_matrix(monkeypatch):
    # the benchmark counts nnz and CG matvec flops from LinearSystem.matrix
    seen = []

    def spy(A, b, **kwargs):
        seen.append(A)
        return solve_cg(A, b, **kwargs)

    monkeypatch.setattr(fem, "solve_cg", spy)
    system = assemble(_builtin_mesh("square"), 3, 1e-2, 1.0, 1.0)
    system.solve()
    assert len(seen) == 1 and seen[0] is system.matrix


def test_empty_skeleton_solves_with_both_methods():
    # the one-element Q2 oracle: the only free dof is a bubble
    system = assemble(_unit_square_trivial(), 2, 1.0, 1.0, 1.0)
    assert system.matrix.shape == (0, 0)
    for fld, stats in (system.solve(), direct_solve(system)):
        assert stats["iterations"] == 0
        assert evaluate(fld, np.array([[0.5, 0.5]]))[0] == pytest.approx(25.0 / 336.0, abs=1e-14)


def test_indefinite_bubble_block_raises(monkeypatch):
    # a large negative reaction makes every bubble block negative definite
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=1, n=1))
    with pytest.raises(RuntimeError, match="element 0 has a bubble block"):
        assemble(mesh, 3, 1e-2, -1e4, 1.0).solve()
    # the bad blocks span chunks of two elements: the lowest element is still
    # named, and a non-finite block in a later chunk (the quad at (1, 1), after
    # the one holding element 0) still raises ValueError first
    monkeypatch.setattr(fem, "_ENTRIES", 1)
    with pytest.raises(RuntimeError, match="element 0 has a bubble block"):
        assemble(mesh, 3, 1e-2, -1e4, 1.0)
    corner_nan = lambda x, y: np.where(x + y > 1.9, np.nan, -1e4)
    with pytest.raises(ValueError, match="not finite"):
        assemble(mesh, 3, 1e-2, corner_nan, 1.0)


def _skew_mixed_mesh(params=PatchParams(sigma=0.25, L=2, n=2)):
    poly = Polygon(_SKEW_QUAD)
    macro = MacroTriangulation(_SKEW_QUAD, [(0, 1, 2, 3)])
    return build_geo_bl_mesh(macro, poly, params, [PatternAssignment(PatchKind.MIXED)])


def _builtin_mesh(name):
    poly, macro = builtin_layout(name)
    return build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))


_PARITY_MESHES = {
    "square": lambda: _builtin_mesh("square"),
    "lshape": lambda: _builtin_mesh("lshape"),
    "slit": lambda: _builtin_mesh("slit"),
    "skew": _skew_mixed_mesh,
}


def _check_condensed_against_full(*args, **kwargs):
    system = assemble(*args, **kwargs)
    A, b = full_system(*args, **kwargs)
    # the condensed matrix is the Schur complement of the full one on the
    # free skeleton dofs, which lead the free numbering: its summed blocks,
    # its products with the identity's columns and its diagonal
    n = system.matrix.shape[0]
    Sbi = A[:n, n:].toarray()
    Sii = A[n:, n:].toarray()
    schur = A[:n, :n].toarray() - (Sbi @ np.linalg.solve(Sii, Sbi.T) if len(Sii) else 0.0)
    tol = 1e-12 * np.abs(schur).max()
    assert np.abs(skeleton_csr(system).toarray() - schur).max() <= tol
    columns = np.stack([system.matrix @ e for e in np.eye(n)], axis=1)
    assert np.abs(columns - schur).max() <= tol
    assert np.abs(system.matrix.diagonal() - np.diagonal(schur)).max() <= tol
    full = spla.spsolve(A.tocsc(), b)
    scale = np.abs(full).max()
    for fld, _ in (system.solve(), direct_solve(system)):
        x = fld.coeffs[system.dofmap.free]
        assert np.abs(x - full).max() <= 1e-10 * scale
        assert np.all(fld.coeffs[system.dofmap.dirichlet] == 0.0)


@pytest.mark.parametrize("q", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(_PARITY_MESHES))
def test_condensed_solve_matches_full_system(name, q):
    # q = 1 has no bubbles; triangles get bubbles from q = 3.  The varying c and
    # the diffusion field make every element a class of its own
    D = np.array([[2.0, 0.3], [0.3, 0.5]])
    _check_condensed_against_full(
        _PARITY_MESHES[name](), q, 0.1, lambda x, y: 1.0 + x**2 + y / 2, lambda x, y: 1.0 + x * y,
        diffusion=lambda p: np.broadcast_to(D, (len(p), 2, 2)))


@pytest.mark.parametrize("eps", [0.1, 1e-4])
@pytest.mark.parametrize("q", [1, 2, 5])
@pytest.mark.parametrize("name", ["lshape", "slit", "square"])
def test_condensed_solve_matches_full_system_where_classes_merge(name, q, eps):
    # constant c and no diffusion: the repeated elements of the boundary-layer
    # patterns share one condensed block, while the load stays per element
    _check_condensed_against_full(_PARITY_MESHES[name](), q, eps, 1.0, lambda x, y: 1.0 + x * y)


@pytest.mark.parametrize("c, classes", [(1.0, (24, 2)), (lambda x, y: 1.0 + x, (96, 8))])
def test_element_blocks_are_condensed_once_per_class(monkeypatch, c, classes):
    # the square at L = n = q = 4 has 96 rectangles and 8 triangles; with a
    # constant c they fall into 24 + 2 classes, with c = 1 + x into 104
    check, checked = fem._not_positive_definite, {}

    def count(S):
        if S.ndim == 3:  # the batched check of one chunk of classes, keyed by bubble count
            checked[S.shape[-1]] = checked.get(S.shape[-1], 0) + len(S)
        return check(S)

    monkeypatch.setattr(fem, "_not_positive_definite", count)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=4, n=4))
    system = assemble(mesh, 4, 1e-2, c, 1.0)
    assert [len(ids) for ids in mesh.eid.values()] == [96, 8]
    # 9 bubbles in a rectangle, 3 in a triangle at q = 4
    assert (checked[9], checked[3]) == classes
    # one X_b and one Schur complement per class, a class index per element
    assert tuple(len(Xb) for _, _, _, Xb, _ in system.bubbles) == classes
    assert tuple(len(S) for _, S in system.classes.values()) == classes
    assert [len(cls) for _, _, cls, _, _ in system.bubbles] == [96, 8]


def _system_arrays(system):
    # the per-class arrays taken per element, since the class numbering
    # follows the keys, which differ between the Jacobian paths
    A = skeleton_csr(system)
    arrays = [A.data, A.indices, A.indptr, system.rhs]
    arrays += [S[cls] for cls, S in system.classes.values()]
    return arrays + [a for dofs, fb, cls, Xb, Xl in system.bubbles for a in (dofs, fb, Xb[cls], Xl)]


@pytest.mark.parametrize("reactions", [(1.0, 2.0), (lambda x, y: 1.0 + x, lambda x, y: 1.0 + y)])
def test_assembly_on_a_shared_dofmap_matches_fresh_dofmaps(reactions):
    # a DofMap keeps the element classes of the last (c, diffusion) it was
    # assembled with; another c, constant or callable, forms them again
    mesh = _builtin_mesh("square")
    dm = DofMap(mesh, 3)
    for c in reactions:
        for eps in (1e-1, 1e-3):  # the second eps reuses the kept classes
            f = ManufacturedSolution(eps).f
            shared = _system_arrays(assemble(mesh, 3, eps, c, f, dofmap=dm))
            fresh = _system_arrays(assemble(mesh, 3, eps, c, f))
            assert all(np.array_equal(a, b) for a, b in zip(shared, fresh, strict=True))
    with pytest.raises(ValueError, match="another mesh or degree"):
        assemble(mesh, 2, 1e-1, 1.0, 1.0, dofmap=dm)
    with pytest.raises(ValueError, match="another mesh or degree"):
        assemble(_builtin_mesh("square"), 3, 1e-1, 1.0, 1.0, dofmap=dm)


@pytest.mark.parametrize("name", ["square", "skew"])
def test_assembly_does_not_depend_on_the_chunk_size(monkeypatch, name):
    # every chunk size from two elements to a whole shape: partial last chunks,
    # and on the skew mesh's 11 triangles a one-element remainder, which joins
    # the last chunk
    q = 4
    if name == "square":
        mesh = _builtin_mesh("square")
        args = (1e-2, 1.0, ManufacturedSolution(1e-2).f)
        kwargs = {}
    else:
        mesh = _skew_mixed_mesh(PatchParams(sigma=0.25, L=3, n=3))
        args = (0.1, lambda x, y: 1.0 + x**2 + y / 2, lambda x, y: 1.0 + x * y)
        A = np.array([[2.0, 0.3], [0.3, 0.5]])
        kwargs = {"diffusion": lambda p: np.broadcast_to(A, (len(p), 2, 2))}
    monkeypatch.setattr(fem, "_ENTRIES", 1 << 40)
    whole = _system_arrays(assemble(mesh, q, *args, **kwargs))
    sizes = {(rect_basis if s == "r" else tri_basis)(q).ndofs ** 2: len(ids)
             for s, ids in mesh.eid.items()}
    for entries in sorted({nb2 * k for nb2, ne in sizes.items() for k in range(1, ne + 1)}):
        monkeypatch.setattr(fem, "_ENTRIES", entries)
        chunked = _system_arrays(assemble(mesh, q, *args, **kwargs))
        assert len(chunked) == len(whole)
        for a, b in zip(chunked, whole):
            assert np.array_equal(a, b), entries


def test_assembly_memory_is_bounded_by_the_matrix():
    # blocks are formed and condensed chunk by chunk into the skeleton only, so
    # assemble's traced peak stays a small multiple of the system it returns
    # (8.8x while the full free matrix was built alongside)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=7, n=7))
    args = (mesh, 7, 1e-2, 1.0, ManufacturedSolution(1e-2).f)
    assemble(*args)  # warm: basis tables
    tracemalloc.start()
    try:
        system = assemble(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = system.matrix
    size = A.at.nbytes + sum(Mt.nbytes for _, _, Mt in A.buckets)
    size += sum(a.nbytes for block in system.bubbles for a in block)
    assert peak <= 3.5 * size


def _float_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.dtype.kind == "f" else 0
    if isinstance(obj, (list, tuple)):
        return sum(map(_float_bytes, obj))
    return 0


def test_skeleton_matrix_holds_one_block_per_class():
    # the square at L = n = q = 4 has 96 rectangles in 24 classes and 8
    # triangles in 2; the operator keeps the 26 class Schur complements
    # (k = 16 and 12 interface dofs), not a copy per element
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=4, n=4))
    system = assemble(mesh, 4, 1e-2, 1.0, 1.0)
    assert {s: len(ids) for s, ids in mesh.eid.items()} == {"r": 96, "t": 8}
    assert {s: len(S) for s, (_, S) in system.classes.items()} == {"r": 24, "t": 2}
    assert _float_bytes(list(vars(system.matrix).values())) == (24 * 16**2 + 2 * 12**2) * 8
    assert system.matrix.nnz == 96 * 16**2 + 8 * 12**2


def test_field_point_evaluation():
    mesh = _unit_square_trivial()
    fld, _ = assemble(mesh, 2, 1.0, 1.0, 1.0).solve()
    # symmetry of the one-bubble solution
    vals = evaluate(fld, np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 0.75]]))
    assert np.ptp(vals) < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    L=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    npts=st.integers(2, 40),
)
def test_field_evaluation_reproduces_linear_function(name, L, seed, npts):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L))
    fld = interpolate(mesh, 2, lambda x, y: x + 2 * y)
    rng = np.random.default_rng(seed)
    # random points of random macro quads, plus some mesh nodes
    qids = rng.integers(len(mesh.oriented), size=npts)
    pts = mesh.quad_map(qids)(rng.random((npts, 2)))
    pts = np.vstack([pts, mesh.nodes[rng.integers(len(mesh.nodes), size=3)]])
    np.testing.assert_allclose(evaluate(fld, pts), pts[:, 0] + 2 * pts[:, 1], rtol=0, atol=1e-12)


def _numbering_by_element(mesh, q):
    """The numbering built one element at a time, kept as the reference.

    Returns (ndofs, nskeleton, dirichlet, per-element dof arrays).
    """
    elements = element_rows(mesh)
    offset, off = {}, len(mesh.nodes)
    for f in sorted(facet_uses(elements)):
        offset[f] = off
        off += q - 1
    nskeleton, elem_dofs = off, []
    for el in elements:
        basis = rect_basis(q) if el.shape == "r" else tri_basis(q)
        gd = np.empty(basis.ndofs, dtype=np.int64)
        nc = len(el.nodes)
        for k, loc in enumerate(basis.corner_ids):
            gd[loc] = el.nodes[k]
        for k in range(nc):
            a, b = el.nodes[k], el.nodes[(k + 1) % nc]
            start = offset[(min(a, b), max(a, b))]
            ids = np.arange(start, start + q - 1)
            gd[basis.edge_ids[k][1:-1]] = ids if a < b else ids[::-1]
        ni = len(basis.interior_ids)
        gd[basis.interior_ids] = np.arange(off, off + ni)
        off += ni
        elem_dofs.append(gd)
    dirichlet = np.zeros(off, dtype=bool)
    for a, b in mesh.boundary_facets.tolist():
        dirichlet[[a, b]] = True
        dirichlet[offset[(a, b)] : offset[(a, b)] + q - 1] = True
    return off, nskeleton, dirichlet, elem_dofs


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit", "skew"]),
    sigma=st.floats(0.1, 0.5),
    L=st.integers(0, 7),
    extra=st.integers(0, 3),
    q=st.integers(1, 8),
)
def test_dofmap_tables_match_per_element_numbering(name, sigma, L, extra, q):
    params = PatchParams(sigma=sigma, L=L, n=L + extra)
    if name == "skew":
        mesh = _skew_mixed_mesh(params)
    else:
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, params)
    dm = DofMap(mesh, q)
    ndofs, nskeleton, dirichlet, elem_dofs = _numbering_by_element(mesh, q)
    assert (dm.ndofs, dm.nskeleton) == (ndofs, nskeleton)
    np.testing.assert_array_equal(dm.dirichlet, dirichlet)
    np.testing.assert_array_equal(dm.free, np.flatnonzero(~dirichlet))
    for shape, gd in dm.dofs.items():
        rows = [elem_dofs[ei] for ei, el in enumerate(element_rows(mesh)) if el.shape == shape]
        np.testing.assert_array_equal(gd, np.array(rows, dtype=np.int64).reshape(gd.shape))


def _locate_by_scan(mesh, qids, pat):
    """The containment scan over every element of a point's macro quad, kept
    as the reference: the lowest-numbered element that contains the point
    within 1e-9, with its reference coordinates clipped to [0, 1].

    Returns element ids, clipped reference coordinates and the per-element
    placement inverses.
    """
    macro_of = np.array([el.macro_id for el in element_rows(mesh)])
    tri = np.array([el.shape == "t" for el in element_rows(mesh)])
    origin = np.empty((len(tri), 2))
    inv = np.empty((len(tri), 2, 2))
    for shape in ("r", "t"):
        ids, place = mesh.eid[shape], placement_for(shape, mesh.ref[shape])
        origin[ids], inv[ids] = place.origin, place.inv
    eids = np.empty(len(pat), dtype=np.int64)
    ref = np.empty((len(pat), 2))
    for qid in np.unique(qids):
        k, test = np.flatnonzero(qids == qid), np.flatnonzero(macro_of == qid)
        d = pat[k, None, :] - origin[test]
        r0 = d[..., 0] * inv[test, 0, 0] + d[..., 1] * inv[test, 0, 1]
        r1 = d[..., 0] * inv[test, 1, 0] + d[..., 1] * inv[test, 1, 1]
        top = np.where(tri[test], r0, 1.0)
        inside = (r0 >= -1e-9) & (r0 <= 1.0 + 1e-9) & (r1 >= -1e-9) & (r1 <= top + 1e-9)
        assert inside.any(axis=1).all(), f"a point of quad {qid} lies in no element"
        first = inside.argmax(axis=1)
        rows = np.arange(len(k))
        eids[k], ref[k, 0], ref[k, 1] = test[first], r0[rows, first], r1[rows, first]
    return eids, np.clip(ref, 0.0, 1.0), inv


def _hard_pattern_points(mesh, rng):
    """(quad ids, pattern points): random points, points exactly on pattern
    lines, element facets, the diagonal, corner nodes and the frame, and
    points just off the facets."""
    qids, pat = [], []

    def add(qid, pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        qids.append(np.full(len(pts), qid))
        pat.append(pts)

    for qid, pattern in enumerate(mesh.patterns):
        xs, ys = np.unique(pattern.nodes[:, 0]), np.unique(pattern.nodes[:, 1])
        t = rng.random(8)
        add(qid, rng.random((16, 2)))
        add(qid, pattern.nodes)  # corner nodes
        add(qid, np.column_stack([xs, rng.random(len(xs))]))  # on x lines
        add(qid, np.column_stack([rng.random(len(ys)), ys]))  # on y lines
        add(qid, np.column_stack([t, t]))  # on the diagonal
        add(qid, np.column_stack([xs, xs]))
        for c in (0.0, 1.0):  # on the frame
            add(qid, np.column_stack([np.full(8, c), t]))
            add(qid, np.column_stack([t, np.full(8, c)]))
    for el in element_rows(mesh):  # on every element facet, and within the 1e-9 slack of it
        c = el.ref
        edge = np.roll(c, -1, axis=0) - c
        on = c + rng.random((len(c), 1)) * edge
        add(el.macro_id, on)
        near = on + rng.uniform(-2e-9, 2e-9, on.shape) * np.ptp(c, axis=0)
        add(el.macro_id, np.clip(near, 0.0, 1.0))  # the frame is tiled: each has an element
    return np.concatenate(qids), np.vstack(pat)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    L=st.integers(0, 6),
    extra=st.sampled_from([0, 3]),
    q=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pattern_locator_matches_scan(name, L, extra, q, seed):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L + extra))
    rng = np.random.default_rng(seed)
    qids, pat = _hard_pattern_points(mesh, rng)
    want_e, want_ref, inv = _locate_by_scan(mesh, qids, pat)
    eids, ref = _PatternLocator(mesh, qids).locate(qids, pat)
    np.testing.assert_array_equal(eids, want_e)
    np.testing.assert_array_equal(ref.view(np.uint64), want_ref.view(np.uint64))  # bit for bit

    # values and gradients against the nodal tables at the same reference points
    dm = DofMap(mesh, q)
    fld = DiscreteField(dm, rng.standard_normal(dm.ndofs))
    vals, grads = fld.at_pattern(qids, pat)
    want_v, want_g = np.empty(len(pat)), np.empty((len(pat), 2))
    for shape, basis in (("r", rect_basis(q)), ("t", tri_basis(q))):
        ids = mesh.eid[shape]  # ascending; row k of dm.dofs[shape]
        sel = np.flatnonzero(np.isin(want_e, ids))
        co = fld.coeffs[dm.dofs[shape][np.searchsorted(ids, want_e[sel])]]
        B, G = basis.tabulate(want_ref[sel])
        want_v[sel] = np.einsum("pn,pn->p", B, co)
        gpat = np.einsum("pnd,pn->pd", G, co)[:, None, :] @ inv[want_e[sel]]
        want_g[sel] = gpat[:, 0, :]  # at_pattern's gradients are pattern-frame ones
    assert np.abs(vals - want_v).max() <= 1e-13 * np.abs(want_v).max()
    assert np.abs(grads - want_g).max() <= 1e-13 * np.abs(want_g).max()


def test_unlocated_point_names_its_own_quad():
    # a point outside the pattern frame of a quad that shares its pattern
    # with a lower-numbered quad: the error names the quad it was given in
    mesh = _builtin_mesh("slit")
    first = {}
    qid = next(q for q, p in enumerate(mesh.patterns) if first.setdefault(id(p), q) != q)
    dm = DofMap(mesh, 2)
    fld = DiscreteField(dm, np.ones(dm.ndofs))
    qids = [first[id(mesh.patterns[qid])], qid, qid]
    pat = [[0.5, 0.5], [0.25, 0.25], [1.5, 0.5]]
    with pytest.raises(ValueError, match=f"^1 points not located, the first in macro quad {qid};"):
        fld.at_pattern(qids, pat)


def _per_point_jacobians(monkeypatch):
    """Form every Jacobian per point: the per-element det and J^-1 of
    ``element_geometry`` broadcast to a copy at each point, and the macro
    J^-1 of ``_FineSide`` formed at every point."""
    geometry = fem.element_geometry

    def per_point(mesh, shape, ref_pts):
        ids, pat, phys, det, inv = geometry(mesh, shape, ref_pts)
        ne, npts = pat.shape[:2]
        return (ids, pat, phys, np.broadcast_to(det, (ne, npts)).copy(),
                np.broadcast_to(inv, (ne, npts, 2, 2)).copy())

    monkeypatch.setattr(fem, "element_geometry", per_point)
    monkeypatch.setattr(fem, "jacobian_points", lambda mesh, shape, pat: pat)


def _jacobian_consumers(name):
    """Every array and norm that the Jacobians reach on one built-in mesh:
    systems with a constant c, a callable c and an SPD diffusion field,
    their error norms, and on the L-shape and slit the norms of a
    reference minus the solutions.  Each comes as (array, constant), the
    flag set where a system with a constant c and no diffusion field, the
    reference's among them, reaches the array."""
    mesh, eps = _builtin_mesh(name), 1e-2
    ms = ManufacturedSolution(eps)
    D = np.array([[2.0, 0.3], [0.3, 0.5]])
    out, fields = [], []
    for c, diffusion in ((1.0, None), (lambda x, y: 1.0 + x * x, None),
                         (1.0, lambda p: D * (2.0 + p[:, :1, None]))):
        system = assemble(mesh, 3, eps, c, ms.f, diffusion=diffusion)
        fld, _ = system.solve()
        norms = np.array(list(error_norms(fld, ms.value_grad, eps, c, diffusion).values()))
        constant = not callable(c) and diffusion is None
        out += [(a, constant) for a in [*_system_arrays(system), fld.coeffs, norms]]
        fields.append(fld)
    if name != "square":
        poly, macro = builtin_layout(name)
        fine = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=3, n=3))
        ref, _ = assemble(fine, 4, eps, 1.0, 1.0).solve()
        for c in (1.0, lambda x, y: 1.0 + y):
            out += [(np.array(list(field_difference_norms(ref, fld, eps, c).values())), True)
                    for fld in fields]
    return out


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_per_element_jacobians_match_per_point_ones(monkeypatch, name):
    # the one Jacobian per element of a parallelogram quad gives every
    # system, solution and norm as a Jacobian per point does: bit for bit
    # where a callable c or a diffusion field keeps quadrature on both paths,
    # to 1e-14 of each array's largest entry where a constant c forms the
    # blocks from the reference matrices (measured at most 1.6e-15)
    default = _jacobian_consumers(name)
    with monkeypatch.context() as m:
        _per_point_jacobians(m)
        assert DofMap(_builtin_mesh(name), 3).norm_geometry("r")[2].shape[1] > 1
        per_point = _jacobian_consumers(name)
    assert len(default) == len(per_point)
    for (a, constant), (b, _) in zip(default, per_point):
        assert a.shape == b.shape and a.dtype == b.dtype
        if constant:
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * np.max(np.abs(b), initial=0.0)
        else:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["square", "slit"])
def test_plane_flux_matches_the_matmul_flux(name):
    # the flux A grad e from the four entries of A, against one matmul per
    # point: the same energy norm to 1e-14, the other norms bit for bit
    mesh, eps = _builtin_mesh(name), 1e-2
    ms = ManufacturedSolution(eps)
    D = np.array([[2.0, 0.3], [0.3, 0.5]])

    def diffusion(p):
        return D * (2.0 + p[:, :1, None])

    fld, _ = assemble(mesh, 3, eps, 1.0, ms.f, diffusion=diffusion).solve()
    for c in (1.0, lambda x, y: 1.0 + x * x):
        got = error_norms(fld, ms.value_grad, eps, c, diffusion)
        want = error_norms_matmul_flux(fld, ms.value_grad, eps, c, diffusion)
        assert got["energy"] == pytest.approx(want["energy"], rel=1e-14, abs=0.0)
        assert all(got[k] == want[k] for k in ("l2", "h1", "balanced"))


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_error_and_difference_norms_agree_where_both_rules_are_exact(name):
    # on affine elements with constant c and A, q + 3 and q + 2 points per
    # direction both integrate every norm of a degree-q field exactly: the
    # field's error_norms with u = 0 and the norms of the field minus a zero
    # field agree, the flux A grad v . grad v included (measured <= 1.1e-15)
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=3, n=3))
    D = np.array([[2.0, 0.3], [0.3, 0.5]])

    def diffusion(p):
        return np.broadcast_to(D, (len(p), 2, 2))

    for q in (1, 3, 5):
        fld = interpolate(mesh, q, lambda x, y: np.sin(2.0 * x + y) * np.exp(y))
        zero = DiscreteField(fld.dofmap, np.zeros(fld.dofmap.ndofs))
        want = error_norms(fld, None, 0.5, 2.5, diffusion)
        got = field_difference_norms(fld, zero, 0.5, 2.5, diffusion)
        for k, v in want.items():
            assert got[k] == pytest.approx(v, rel=1e-13, abs=0.0), (q, k)


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_builtin_layouts_keep_one_jacobian_per_element(name):
    mesh = _builtin_mesh(name)
    dm = DofMap(mesh, 2)
    per_element = [(len(mesh.eid[s]), 1, 2, 2) for s in ("r", "t")]
    assert [dm.norm_geometry(s)[2].shape for s in ("r", "t")] == per_element
    side = fem._FineSide(interpolate(mesh, 2, lambda x, y: x * y, dofmap=dm), 1.0, None)
    assert [jinv.shape for _, jinv, *_ in side.parts] == per_element


def test_corner_only_study_runs_without_rectangles(monkeypatch):
    # at L = 0 the square's meshes, the reference's among them, have no
    # rectangles: per-element Jacobians and reference blocks of an empty
    # shape.  Per-point Jacobians take quadrature, which moves the last bits
    # of the errors and so may move CG iteration counts
    cfg = ExperimentConfig(domain="square", eps=(1e-2,), p_max=2, layers="corner-only",
                           mode="reference")
    assert len(mesh_for(cfg, cfg.p_max + 2, 1e-2).eid["r"]) == 0
    (table,) = run_experiment(cfg)
    assert [r.p for r in table.rows] == [1, 2]
    with monkeypatch.context() as m:
        _per_point_jacobians(m)
        (per_point,) = run_experiment(cfg)
    assert [r.N for r in table.rows] == [r.N for r in per_point.rows]
    for r, s in zip(table.rows, per_point.rows):
        assert abs(r.error - s.error) <= 1e-12 * s.error
        assert r.iters > 0 and s.iters > 0


def test_cached_tables_reject_writes():
    # every lru-cached table is shared by all elements of its degree, so a
    # write into one must fail instead of corrupting the later ones
    from hpbl.gausslobatto import gauss_legendre_rule, gauss_lobatto_rule
    from hpbl.reference import rect_quadrature, tri_quadrature

    for shape in ("r", "t"):
        cached = [*fem._tables(shape, 3, 5), *fem._ref_blocks(shape, 3), *fem._split(shape, 3)]
        cached += [*rect_quadrature(4), *tri_quadrature(4), *gauss_legendre_rule(4),
                   *gauss_lobatto_rule(4)]
        for a in cached:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


@pytest.mark.parametrize("shape", ["r", "t"])
def test_reference_blocks_match_quadrature(shape):
    # sum_ab C_ab R_ab + m M_ref is the block that quadrature forms from the
    # coefficients w C and the weights m w at every point
    rng = np.random.default_rng(3)
    for q in range(1, 9):
        _, w, B, G = fem._tables(shape, q, q + 2)
        R, M = fem._ref_blocks(shape, q)
        npts, nb = B.shape
        X = rng.standard_normal((2, 2))
        C, m = X @ X.T + 0.1 * np.eye(2), rng.uniform(0.5, 2.0)
        Gs = np.swapaxes(G, 1, 2)
        coef = w[:, None, None] * C
        want = Gs.reshape(2 * npts, nb).T @ (coef @ Gs).reshape(2 * npts, nb)
        want += (B.T * (m * w)) @ B
        got = (C.reshape(1, 4) @ R).reshape(nb, nb) + m * M
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), q


def _classes(mesh, q, c=1.0, diffusion=None):
    return fem._classes(DofMap(mesh, q), c, diffusion)[0]


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_per_element_classes_join_per_point_ones(monkeypatch, name):
    # keyed by det J^-1 J^-T and c det per element, each class is a union of
    # the classes keyed by their values at every point (which split some
    # triangles over last bits); on the square the two partitions agree
    poly, macro = builtin_layout(name)
    for L in range(1, 5):
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L))
        per_element = _classes(mesh, L)
        with monkeypatch.context() as m:
            _per_point_jacobians(m)
            per_point = _classes(mesh, L)
        for s in ("r", "t"):
            e, p = per_element[s], per_point[s]
            assert e.key.shape[1] == 5 and p.key.shape[1] == 5 * p.wdet.shape[1]
            pairs = len(np.unique(np.stack([p.cls, e.cls], axis=1), axis=0))
            assert pairs == len(p.first), (L, s)
            if name == "square":
                assert len(e.first) == len(p.first), (L, s)


def test_per_point_data_keep_per_point_keys():
    # a callable c, a diffusion field or a Jacobian per point (the fan
    # meshes' quads are not parallelograms) keep the quadrature path
    mesh = _builtin_mesh("square")
    D = np.array([[2.0, 0.3], [0.3, 0.5]])
    for c, diffusion in ((lambda x, y: 1.0 + x, None),
                         (1.0, lambda p: np.broadcast_to(D, (len(p), 2, 2)))):
        for cl in _classes(mesh, 3, c, diffusion).values():
            assert cl.key.shape[1] == 5 * cl.wdet.shape[1]
    per_point = 0
    for mesh in nonaffine_meshes():
        for s, cl in _classes(mesh, 2).items():
            if not mesh.parallelograms[mesh.macro_id[s]].all():
                assert cl.key.shape[1] == 5 * cl.wdet.shape[1]
                per_point += 1
    assert per_point > 0
    # the square at L = 0 has no rectangles: an empty shape keyed per element
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=0, n=0))
    assert _classes(mesh, 2)["r"].key.shape == (0, 5)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    L=st.integers(0, 5),
    extra=st.integers(0, 3),
    q=st.integers(1, 6),
)
def test_vertex_stars_hold_each_node_and_its_facets(name, L, extra, q):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L + extra))
    dm = DofMap(mesh, q)
    # each node's dof and the interior dofs of every element edge ending at it
    star = [{v} for v in range(len(mesh.nodes))]
    for shape, gd in dm.dofs.items():
        for e in (rect_basis(q) if shape == "r" else tri_basis(q)).edge_ids:
            for row in gd[:, e].tolist():
                star[row[0]].update(row[1:-1])
                star[row[-1]].update(row[1:-1])
    expected = sorted(tuple(sorted(f for f in dm.free_index[sorted(s)].tolist() if f >= 0))
                      for s in star)
    expected = [s for s in expected if s]

    assert all(D.shape[1] == size for size, D in dm.stars.items())
    rows = [row for D in dm.stars.values() for row in D.tolist()]
    assert all(len(set(row)) == len(row) for row in rows)
    assert sorted(tuple(sorted(row)) for row in rows) == expected
    nskel = int(np.searchsorted(dm.free, dm.nskeleton))
    assert sorted(set().union(*rows)) == list(range(nskel))
    if q == 1:
        assert set(dm.stars) <= {1}
    assert dm.stars is dm.stars  # formed once and kept


_D = np.array([[2.0, 0.3], [0.3, 0.5]])
_STAR_MESHES = {
    "square": lambda q: _builtin_mesh("square"),
    "lshape": lambda q: _builtin_mesh("lshape"),
    "slit": lambda q: _builtin_mesh("slit"),
    # 14 layers, the innermost elements with aspect ratios near 1/eps
    "square-scale-1e-8": lambda q: mesh_for(ExperimentConfig(eps=[1e-8], layers="scale"), q, 1e-8),
}


@pytest.mark.parametrize("data", ["constant", "field"])
@pytest.mark.parametrize("q", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(_STAR_MESHES))
def test_star_blocks_match_the_matrix(name, q, data):
    # the star blocks summed from the element classes' Schur complements are
    # the skeleton matrix's dense blocks on the stars (measured within 2.3e-16
    # of each block set's largest entry), with a constant c and with a
    # callable c and a diffusion field (one class per element).  Boundary
    # stars are among them: nodes whose own dof is constrained, with free
    # dofs on the facets ending at them
    mesh = _STAR_MESHES[name](q)
    if data == "constant":
        system = assemble(mesh, q, 1e-2, 1.0, 1.0)
    else:
        system = assemble(mesh, q, 1e-2, lambda x, y: 1.0 + x**2 + y / 2, 1.0,
                          diffusion=lambda p: _D * (2.0 + p[:, :1, None]))
        assert all(len(np.unique(cls)) == len(cls) for cls, _ in system.classes.values())
    dm = system.dofmap
    free_nodes = np.count_nonzero(dm.free_index[: len(mesh.nodes)] >= 0)
    assert sum(map(len, dm.stars.values())) > free_nodes or q == 1  # some boundary stars
    got = stars.blocks(system)
    want = star_blocks(skeleton_csr(system), dm.stars)
    assert len(got) == len(want)
    for (D, S, which), (D_want, S_want, _) in zip(got, want):
        assert np.array_equal(D, D_want) and len(which) == len(D) and len(S) <= len(D)
        assert np.abs(S[which] - S_want).max() <= 1e-14 * np.abs(S_want).max()


@pytest.mark.parametrize("q", [2, 5])
def test_star_apply_matches_the_matrix_blocks(q):
    # solve_cg's preconditioner, applied class by class, is sum_v R_v^T
    # A_v^-1 R_v r with A_v the skeleton matrix's dense block on star v; on
    # the slit the star classes have unequal member counts (measured within
    # 3.8e-16 of the largest entry)
    system = assemble(_builtin_mesh("slit"), q, 1e-2, 1.0, 1.0)
    n = system.matrix.shape[0]
    got = fem._star_apply(stars.blocks(system), n)
    assert len({shape[1] for _, shape, _ in got.buckets}) > 2
    r = np.random.default_rng(q).standard_normal(n)
    want = np.zeros(n)
    for D, S, _ in star_blocks(skeleton_csr(system), system.dofmap.stars):
        np.add.at(want, D, np.linalg.solve(S, r[D][..., None])[..., 0])
    assert np.abs(got @ r - want).max() <= 1e-14 * np.abs(want).max()


def test_star_blocks_are_inverted_once_per_class(monkeypatch):
    # the square at L = n = q = 7 has 289 stars with 98 distinct blocks; CG
    # inverts those 98 only, and the second eps on the same DofMap reuses
    # the star classes
    inverted, inv = [], np.linalg.inv

    def count(S):
        if S.ndim == 3:  # a batch of star blocks, not the triangle basis' Vandermonde matrix
            inverted.append(len(S))
        return inv(S)

    monkeypatch.setattr(np.linalg, "inv", count)
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=7, n=7))
    dm = DofMap(mesh, 7)
    for eps in (1e-2, 1e-4):
        system = assemble(mesh, 7, eps, 1.0, 1.0, dofmap=dm)
        _, stats = system.solve()
        assert stats["relres"] <= 1e-12
    assert sum(map(len, dm.stars.values())) == 289
    assert sum(inverted) == 2 * 98
    assert system.stars is dm.classes(1.0)[1]


def test_a_system_keeps_its_star_classes_past_another_assemble():
    # a system solved after a later assemble re-keyed its DofMap still solves
    # with the star classes of its own element classes: bit for bit the
    # solve of a system assembled alone
    mesh, f = _builtin_mesh("slit"), lambda x, y: 1.0 + x * y
    dm = DofMap(mesh, 3)
    system = assemble(mesh, 3, 1e-2, 1.0, f, dofmap=dm)
    assemble(mesh, 3, 1e-2, lambda x, y: 1.0 + x**2, f, dofmap=dm)
    (fld, stats), (want, want_stats) = system.solve(), assemble(mesh, 3, 1e-2, 1.0, f).solve()
    assert stats["iterations"] == want_stats["iterations"]
    assert np.array_equal(fld.coeffs, want.coeffs)


class _ProductsOnly:
    """A matrix seen only through ``@``, ``diagonal()`` and ``shape``."""

    def __init__(self, A):
        self._A, self.shape = A, A.shape

    def __matmul__(self, x):
        return self._A @ x

    def diagonal(self):
        return self._A.diagonal()


def test_solve_reads_no_matrix_entries():
    # the star blocks come from the element classes, so the solve needs
    # only products and the diagonal of the skeleton matrix, bit for bit
    system = assemble(_builtin_mesh("slit"), 4, 1e-2, 1.0, 1.0)
    want, want_stats = system.solve()
    system.matrix = _ProductsOnly(system.matrix)
    fld, stats = system.solve()
    assert stats == want_stats and stats["relres"] <= 1e-12
    assert np.array_equal(fld.coeffs, want.coeffs)


@pytest.mark.parametrize("q", [1, 3, 6])
@pytest.mark.parametrize("layers", ["p", "balanced", "corner-only"])
@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_star_cg_matches_the_direct_solve(name, layers, q):
    eps = 1e-2
    config = ExperimentConfig(domain=name, eps=[eps], p_max=q, layers=layers)
    system = assemble(mesh_for(config, q, eps), q, eps, 1.0, 1.0)
    (f_cg, stats), (f_dir, _) = system.solve(), direct_solve(system)
    assert stats["relres"] <= 1e-12
    np.testing.assert_allclose(f_cg.coeffs, f_dir.coeffs, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("layers, eps", [("p", 1e-2), ("p", 1e-8), ("balanced", 1e-2)])
@pytest.mark.parametrize("name", ["square", "slit"])
def test_star_cg_iterations_stay_few(name, layers, eps):
    # a guard against the preconditioner falling back toward point Jacobi,
    # which took 240-290 iterations per high-p solve; the star CG took at
    # most 55 here (slit, balanced layers, p = 2)
    for q in (2, 5):
        config = ExperimentConfig(domain=name, eps=[eps], p_max=q, layers=layers)
        _, stats = assemble(mesh_for(config, q, eps), q, eps, 1.0, 1.0).solve()
        assert stats["iterations"] <= 80, q
        assert stats["relres"] <= 1e-12, q


def test_star_cg_iterations_on_the_slit_reference():
    # the slit benchmark study's reference solve (eps 1e-2, p_max 4, so q = 6):
    # 47 star iterations, 290 point-Jacobi ones
    config = ExperimentConfig(domain="slit", eps=[1e-2], p_max=4, mode="reference")
    q = config.p_max + 2
    system = assemble(mesh_for(config, q, 1e-2), q, 1e-2, 1.0, 1.0)
    _, stats = system.solve()
    _, jacobi, _ = solve_cg(system.matrix, system.rhs, jacobi_stars(system.matrix))
    assert stats["iterations"] <= 80
    assert stats["iterations"] < jacobi
