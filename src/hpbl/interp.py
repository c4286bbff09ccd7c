"""Elementwise Gauss-Lobatto interpolation on refinement patterns.

The interpolant of a function f on a pattern applies, element by
element, the tensor GL operator on rectangles and the trace-matched
P_q operator on triangles, after pulling f back through the affine
placement of each element.  Because both elemental operators reduce to
univariate GL interpolation on every edge, the resulting piecewise
polynomial is continuous across all interior facets of the pattern.

Error measurement uses dense tensor sample grids per element (Duffy
transformed on triangles, so sample points cluster where corner layers
live) for sup norms of the value and of an optionally eps-weighted
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patches import PatchMesh, PatchElement
from .reference import PolyOnElement, rect_basis, tri_basis

__all__ = ["ElementPlacement", "PatchInterpolant", "elementwise_interp", "sup_errors"]


@dataclass
class ElementPlacement:
    """Affine map A(xhat) = origin + mat @ xhat from reference element
    onto a pattern element; ``inv`` undoes it."""

    origin: np.ndarray
    mat: np.ndarray
    inv: np.ndarray

    def to_pattern(self, pts: np.ndarray) -> np.ndarray:
        return self.origin[None, :] + pts @ self.mat.T

    def to_reference(self, pts: np.ndarray) -> np.ndarray:
        return (pts - self.origin[None, :]) @ self.inv.T

    def push_gradient(self, ref_grads: np.ndarray) -> np.ndarray:
        """Chain rule: gradients w.r.t. pattern coords from reference ones."""
        return ref_grads @ self.inv


def placement_for(shape: str, xy: np.ndarray) -> ElementPlacement:
    """Placement from an element's corner coordinates (rect: CCW from
    lower-left; triangle: CCW with the right-angle shape of the reference).

    ``xy`` may stack elements of one shape, (..., corners, 2); the
    placement fields then carry the same leading axes."""
    mat = np.zeros(xy.shape[:-2] + (2, 2))
    if shape == "r":
        mat[..., 0, 0] = xy[..., 1, 0] - xy[..., 0, 0]
        mat[..., 1, 1] = xy[..., 3, 1] - xy[..., 0, 1]
    else:
        # reference triangle vertices (0,0), (1,0), (1,1)
        mat[..., :, 0] = xy[..., 1, :] - xy[..., 0, :]
        mat[..., :, 1] = xy[..., 2, :] - xy[..., 1, :]
    return ElementPlacement(xy[..., 0, :].copy(), mat, np.linalg.inv(mat))


def element_placement(patch: PatchMesh, e: PatchElement) -> ElementPlacement:
    return placement_for(e.shape, patch.element_coords(e))


def _value_fn(f):
    return f.value if hasattr(f, "value") else f


class PatchInterpolant:
    """Piecewise polynomial on a pattern, one ``PolyOnElement`` per cell."""

    def __init__(self, patch: PatchMesh, q: int, polys, placements):
        self.patch = patch
        self.q = q
        self.polys: list[PolyOnElement] = polys
        self.placements: list[ElementPlacement] = placements

    def eval_on_element(self, idx: int, ref_pts: np.ndarray):
        """Values, pattern coordinates and pattern gradients at ref_pts."""
        poly = self.polys[idx]
        place = self.placements[idx]
        vals = poly.eval(ref_pts)
        grads = place.push_gradient(poly.grad(ref_pts))
        return vals, place.to_pattern(ref_pts), grads


def elementwise_interp(f, patch: PatchMesh, q: int) -> PatchInterpolant:
    """Interpolate f (callable or object with .value) pattern-wide."""
    fv = _value_fn(f)
    polys, placements = [], []
    for e in patch.elements:
        place = element_placement(patch, e)
        basis = rect_basis(q) if e.shape == "r" else tri_basis(q)
        pts = place.to_pattern(basis.nodes)
        vals = np.asarray(fv(pts[:, 0], pts[:, 1]), dtype=float)
        polys.append(PolyOnElement(basis, vals))
        placements.append(place)
    return PatchInterpolant(patch, q, polys, placements)


def _rect_grid(n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _tri_grid(n: int) -> np.ndarray:
    # Duffy map of a tensor grid; clusters toward the vertex at the origin
    t = np.linspace(0.0, 1.0, n)
    u, v = np.meshgrid(t, t, indexing="xy")
    return np.column_stack([u.ravel(), (u * v).ravel()])


def sup_errors(
    interp: PatchInterpolant, f, n: int = 400, grad_weight: float | None = 1.0
) -> tuple[float, float]:
    """Dense-grid sup norms of f - interp and of its weighted gradient.

    Returns (max |e|, grad_weight * max |grad e|), maximized over an
    n-by-n sample grid on every element.  ``f`` must expose ``value``
    and, unless ``grad_weight`` is None (which skips the gradient
    entirely, useful for functions whose gradient is singular on the
    sample grid), also ``grad``.  Pass ``grad_weight=eps`` for the
    energy-type gradient error of layer functions.
    """
    grids = {"r": _rect_grid(n), "t": _tri_grid(n)}
    # basis tables are identical for every element of one shape: build once
    tables: dict[str, tuple] = {}
    val_err = grad_err = 0.0
    for idx, e in enumerate(interp.patch.elements):
        poly, place = interp.polys[idx], interp.placements[idx]
        if e.shape not in tables:
            grid = grids[e.shape]
            basis = poly.basis
            bt = basis.eval(grid)
            gt = basis.grad(grid) if grad_weight is not None else None
            tables[e.shape] = (grid, bt, gt)
        grid, bt, gt = tables[e.shape]
        pts = place.to_pattern(grid)
        vals = bt @ poly.values
        fv = np.asarray(f.value(pts[:, 0], pts[:, 1]), dtype=float)
        val_err = max(val_err, float(np.abs(vals - fv).max()))
        if grad_weight is not None:
            grads = place.push_gradient(np.einsum("pnd,n->pd", gt, poly.values))
            fg = np.asarray(f.grad(pts[:, 0], pts[:, 1]), dtype=float)
            grad_err = max(grad_err, float(np.abs(grads - fg).max()))
    return val_err, (grad_weight or 0.0) * grad_err
