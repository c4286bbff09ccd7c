"""Interpolation on single patterns through the finite element path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbl.fem import interpolate
from hpbl.macro import placement_for
from hpbl.meshcheck import facet_incidence
from hpbl.patches import PatchKind, PatchParams, build_pattern
from hpbl.reference import rect_basis, tri_basis

from helpers import (BoundaryLayerFn, CornerSingularityFn, element_rows, pattern_mesh,
                     pattern_rows, sup_errors)


class _Poly:
    """Bilinear polynomial with exact gradient, reproducible at any q >= 1."""

    def value(self, x, y):
        return 2.0 + x - 3.0 * y + 0.5 * x * y

    def grad(self, x, y):
        return np.stack([1.0 + 0.5 * y, -3.0 + 0.5 * x + 0.0 * y], axis=-1)


def test_placements_roundtrip():
    patch = build_pattern(PatchKind.MIXED, PatchParams(sigma=0.5, L=2, n=2))
    rng = np.random.default_rng(0)
    for e in pattern_rows(patch):
        place = placement_for(e.shape, patch.nodes[list(e.nodes)])
        ref = rng.uniform(0.05, 0.95, size=(20, 2))
        if e.shape == "t":
            ref[:, 1] *= ref[:, 0]
        pat = place.origin + ref @ place.mat.T
        back = (pat - place.origin) @ place.inv.T
        np.testing.assert_allclose(back, ref, atol=1e-13)


def test_interpolant_continuity_across_facets():
    # sample each interior horizontal meshline from the elements below and
    # above it: the traces must agree because edge dofs are shared
    mesh = pattern_mesh(PatchKind.BOUNDARY_LAYER, PatchParams(sigma=0.25, L=3, n=3))
    f = BoundaryLayerFn(1.0, 0.05)
    fld = interpolate(mesh, 4, f.value)
    t = np.linspace(0.0, 1.0, 13)
    elements = element_rows(mesh)
    lines = sorted({el.ref[:, 1].max() for el in elements})[:-1]
    for y0 in lines:
        below = above = None
        for idx, el in enumerate(elements):
            if el.ref[:, 1].max() == y0:
                below = idx
            if el.ref[:, 1].min() == y0:
                above = idx
        pts = np.column_stack([t, np.full_like(t, y0)])
        np.testing.assert_allclose(_eval_at(fld, below, pts), _eval_at(fld, above, pts), atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(list(PatchKind)),
    L=st.integers(0, 3),
    extra=st.integers(0, 2),
    q=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_interpolant_traces_of_random_polynomials(kind, L, extra, q, seed):
    # a random polynomial of total degree <= q lies in the space: on every
    # interior facet the traces from both sides agree and equal it
    mesh = pattern_mesh(kind, PatchParams(sigma=0.25, L=L, n=L + extra))
    powers = [(i, j) for i in range(q + 1) for j in range(q + 1 - i)]
    coef = np.random.default_rng(seed).standard_normal(len(powers))

    def poly(x, y):
        return sum(c * x**i * y**j for c, (i, j) in zip(coef, powers))

    fld = interpolate(mesh, q, poly)
    facets = facet_incidence(mesh)
    inner = facets.count[facets.facet] == 2
    order = np.argsort(facets.facet[inner], kind="stable")  # the two uses of a facet side by side
    elems = facets.elem[inner][order]
    ends = mesh.nodes[facets.pairs[facets.facet[inner][order]]]  # (U, 2, 2)
    t = np.linspace(0.0, 1.0, 7)[:, None]
    pts = ends[:, :1] + t * (ends[:, 1:] - ends[:, :1])  # (U, 7, 2) along each facet
    traces = _traces(fld, elems, pts)
    np.testing.assert_allclose(traces[0::2], traces[1::2], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traces, poly(pts[..., 0], pts[..., 1]), rtol=0.0, atol=1e-12)
    if all(len(ids) for ids in mesh.eid.values()):  # a rectangle/triangle facet was checked
        tri = np.isin(elems, mesh.eid["t"])
        assert np.any(tri[0::2] != tri[1::2])


def _traces(fld, elems, pts):
    """Values at pattern points pts[u] (U, T, 2) of element elems[u], from its own dof row."""
    out = np.empty(pts.shape[:2])
    for shape in ("r", "t"):
        ids, place = fld.mesh.eid[shape], placement_for(shape, fld.mesh.ref[shape])
        u = np.flatnonzero(np.isin(elems, ids))
        if not u.size:
            continue
        k = np.searchsorted(ids, elems[u])
        ref = np.einsum("utd,ued->ute", pts[u] - place.origin[k][:, None], place.inv[k])
        basis = rect_basis(fld.q) if shape == "r" else tri_basis(fld.q)
        B = basis.eval(ref.reshape(-1, 2)).reshape(len(u), pts.shape[1], -1)
        out[u] = np.einsum("utn,un->ut", B, fld.coeffs[fld.dofmap.dofs[shape][k]])
    return out


def _eval_at(fld, idx, pattern_pts):
    """Values at pattern points of element idx, from its own dof row."""
    shape = element_rows(fld.mesh)[idx].shape
    ids, place = fld.mesh.eid[shape], placement_for(shape, fld.mesh.ref[shape])
    k = int(np.searchsorted(ids, idx))
    ref = (pattern_pts - place.origin[k]) @ place.inv[k].T
    basis = rect_basis(fld.q) if shape == "r" else tri_basis(fld.q)
    return basis.eval(ref) @ fld.coeffs[fld.dofmap.dofs[shape][k]]


def test_interpolation_reproduces_polynomials():
    mesh = pattern_mesh(PatchKind.TENSOR, PatchParams(sigma=0.5, L=1, n=2))
    f = _Poly()
    ev, eg = sup_errors(interpolate(mesh, 3, f.value), f.value, f.grad, n=40)
    assert ev < 1e-13
    assert eg < 1e-12


def test_boundary_layer_error_decays_in_q():
    eps = 1e-2
    mesh = pattern_mesh(PatchKind.BOUNDARY_LAYER, PatchParams(sigma=0.25, L=4, n=4))
    f = BoundaryLayerFn(1.0, eps)
    errs = []
    for q in (2, 4, 6, 8):
        ev, eg = sup_errors(interpolate(mesh, q, f.value), f.value, f.grad, n=80)
        errs.append(ev + eps * eg)
    assert errs[-1] < 1e-3 * errs[0]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_corner_singularity_error_decays_in_n():
    f = CornerSingularityFn(0.5)
    errs = []
    for n in (2, 4, 6):
        mesh = pattern_mesh(PatchKind.CORNER, PatchParams(sigma=0.25, L=0, n=n))
        ev, _ = sup_errors(interpolate(mesh, 6, f.value), f.value, n=60)
        errs.append(ev)
    # one refinement ring gains roughly sigma^(1-beta) = 0.5 per step
    assert errs[1] < 0.5 * errs[0]
    assert errs[2] < 0.5 * errs[1]
