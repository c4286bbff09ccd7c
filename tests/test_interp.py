"""Interpolation on single patterns through the finite element path."""

import numpy as np

from hpbl.fem import interpolate
from hpbl.macro import element_placements, placement_for
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


def _eval_at(fld, idx, pattern_pts):
    """Values at pattern points of element idx, from its own dof row."""
    shape = element_rows(fld.mesh)[idx].shape
    ids, place = element_placements(fld.mesh, shape)
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
