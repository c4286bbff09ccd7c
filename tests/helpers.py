"""Shared test fixtures, model functions and the reference versions
that package code is compared with."""

import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from hpbl.fem import (_POINTS, DofMap, _basis_for, _field_at, _norm_dict, _PatternLocator,
                      _tables, _times, error_norms)
from hpbl.gausslobatto import LagrangeBasis1D, gauss_lobatto_rule
from hpbl.geometry import Polygon
from hpbl.macro import (
    _JAC_SAMPLES,
    _TRI_SAMPLES,
    REF_CORNERS,
    TOL,
    BilinearMap,
    MacroTriangulation,
    Mesh,
    PatternAssignment,
    assign_refinement_patterns,
    build_geo_bl_mesh,
    element_geometry,
    element_points,
    inverse_2x2,
    macro_from_triangulation,
    pattern_for,
    placement_for,
)
from hpbl.meshcheck import hanging_nodes
from hpbl.meshio import _FILL
from hpbl.patches import GAMMA_BOTTOM, GAMMA_LEFT, GAMMA_ORIGIN, PatchKind, PatchParams
from hpbl.reference import rect_basis, rect_quadrature, tri_basis, tri_quadrature

# one element of a mesh: shape 'r'/'t', global node ids, macro quad, and the
# pattern coordinates of its corners
Element = namedtuple("Element", "shape nodes macro_id ref")
# one element of a pattern: shape 'r'/'t' and node ids
Cell = namedtuple("Cell", "shape nodes")


def pattern_rows(patch):
    """The elements of a PatchMesh as ``Cell`` rows, in pattern order."""
    rows = [None] * patch.element_count()
    for s, ids in patch.eid.items():
        for ei, nodes in zip(ids.tolist(), patch.conn[s].tolist()):
            rows[ei] = Cell(s, tuple(nodes))
    return rows


def element_rows(mesh):
    """The elements of a Mesh as ``Element`` rows, in global element order."""
    rows = [None] * mesh.element_count()
    for s, ids in mesh.eid.items():
        for ei, nodes, qid, ref in zip(ids.tolist(), mesh.conn[s].tolist(),
                                       mesh.macro_id[s].tolist(), mesh.ref[s]):
            rows[ei] = Element(s, tuple(nodes), qid, ref)
    return rows


def pattern_mesh(kind, params):
    """One-quad mesh of the unit square carrying one refinement pattern.

    The macro map is the identity, so pattern coordinates are physical
    ones and the mesh's elements are the pattern's, in the same order.
    """
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    macro = MacroTriangulation(square, [(0, 1, 2, 3)])
    return build_geo_bl_mesh(macro, Polygon(square), params, [PatternAssignment(kind)])


def fan_macro(vertices):
    """Macro quads of a convex polygon triangulated as a fan from its
    vertex centroid; a triangle's quads are parallelograms only by chance."""
    poly = Polygon(np.asarray(vertices, dtype=float))
    m = poly.m
    pts = np.vstack([poly.vertices, poly.vertices.mean(axis=0)])
    return poly, macro_from_triangulation(pts, [(m, i, (i + 1) % m) for i in range(m)], poly)


def nonaffine_meshes():
    """Meshes whose macro quads are not parallelograms: a fan-triangulated
    triangle and pentagon, at L = n = 1..3."""
    angles = [0.1, 1.3, 2.9, 3.8, 5.2]
    domains = [fan_macro([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               fan_macro([[math.cos(a), 0.6 * math.sin(a)] for a in angles])]
    for poly, macro in domains:
        for L in range(1, 4):
            yield build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L))


def bent_corner_layout():
    """The 2 x 2 square layout with its corner (1, 1) pulled in to (0.85,
    0.9), the edge midpoints next to it becoming polygon vertices: three
    parallelograms and one bent quad, each carrying the tensor pattern."""
    nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
                      [0.0, 1.0], [0.5, 1.0], [0.85, 0.9]])
    macro = MacroTriangulation(nodes, [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 5, 8, 7)])
    return Polygon(nodes[[0, 2, 5, 8, 7, 6]]), macro


def element_geometry_per_point(mesh, shape, ref_pts):
    """``macro.element_geometry`` with the Jacobian formed at every point,
    as it was before parallelogram quads got one per element: the
    reference its output is compared with (``test_macro``)."""
    place, bil, pat = element_points(mesh, shape, ref_pts)
    det, inv = inverse_2x2(bil.jacobian(pat) @ place.mat[:, None])
    return mesh.eid[shape], pat, bil(pat), det, inv


def reference_mesh_svg(obj, width=640):
    """The per-point SVG renderer that ``meshio.mesh_svg`` replaced, kept
    as the reference its output is compared with (``test_meshio``):
    outlines in a list in storage order, every Mesh edge sampled 8 times,
    each point mapped and formatted on its own."""
    if isinstance(obj, Mesh):
        rings = [None] * obj.element_count()
        t = np.linspace(0.0, 1.0, 8, endpoint=False)[:, None]
        for shape, corners in REF_CORNERS.items():
            edges = corners[:, None, :] * (1.0 - t) + np.roll(corners, -1, axis=0)[:, None, :] * t
            ids, _, phys, _, _ = element_geometry(obj, shape, edges.reshape(-1, 2))
            for ei, ring in zip(ids, phys):
                rings[ei] = ring
        kinds = [obj.assignments[el.macro_id].kind.value for el in element_rows(obj)]
    else:
        rings = [obj.nodes[list(el.nodes)] for el in pattern_rows(obj)]
        kinds = [obj.kind.value] * len(rings)
    nodes = np.asarray(obj.nodes)
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 0.04 * span.max()
    lo = lo - margin
    hi = hi + margin
    scale = width / (hi[0] - lo[0])
    height = int(math.ceil((hi[1] - lo[1]) * scale))

    def xy(p):
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for ring, kind in zip(rings, kinds):
        pts = " ".join("%.3f,%.3f" % xy(p) for p in ring)
        fill = _FILL.get(kind, "#ffffff")
        out.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="#444444" '
            'stroke-width="0.6"/>'
        )
    if isinstance(obj, Mesh):
        for a, b in sorted(map(tuple, obj.boundary_facets.tolist())):
            xa, ya = xy(obj.nodes[a])
            xb, yb = xy(obj.nodes[b])
            out.append(
                f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
                'stroke="#cc2222" stroke-width="1.6"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _seg_point_dist(a, b, p):
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.hypot(*(a + t * ab - p)))


def _poly_point_dist(xy, p):
    m = len(xy)
    return min(_seg_point_dist(xy[i], xy[(i + 1) % m], p) for i in range(m))


# ---------------------------------------------------------------------------
# model functions and the probes of the interpolation and pattern claims


class BoundaryLayerFn:
    """exp(-alpha * y / eps) and its gradient."""

    def __init__(self, alpha: float, eps: float):
        if alpha <= 0 or eps <= 0:
            raise ValueError("alpha and eps must be positive")
        self.alpha = alpha
        self.eps = eps

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.exp(-self.alpha * np.asarray(y, dtype=float) / self.eps) * np.ones_like(x)

    def grad(self, x, y):
        v = self.value(x, y)
        return np.stack([np.zeros_like(v), -(self.alpha / self.eps) * v], axis=-1)


class CornerSingularityFn:
    """r^(1-beta) for beta in [0, 1); the gradient blows up at the origin."""

    def __init__(self, beta: float):
        if not (0.0 <= beta < 1.0):
            raise ValueError(f"beta must lie in [0,1), got {beta}")
        self.beta = beta

    def value(self, x, y):
        r = np.hypot(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return r ** (1.0 - self.beta)

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        if np.any(r == 0.0):
            raise ValueError("gradient of the corner singularity is singular at r=0")
        scale = (1.0 - self.beta) * r ** (-1.0 - self.beta)
        return np.stack([scale * x, scale * y], axis=-1)


def manufactured_residual(ms, x, y):
    """-eps^2 Lap(u) + u - f of a ``ManufacturedSolution``, pointwise (zero
    up to roundoff), with X'' = (X - 1) / eps^2."""
    def d2X(t):
        return (ms.X(t) - 1.0) / ms.eps**2

    lap = d2X(x) * ms.X(y) + ms.X(x) * d2X(y)
    return -ms.eps**2 * lap + ms.value_grad(x, y)[0] - ms.f(x, y)


def X_dX_unmasked(ms, t):
    """``ManufacturedSolution._X_dX`` with every exponential taken."""
    t = np.asarray(t, dtype=float)
    a, b = np.exp(-t / ms.eps), np.exp(-(1.0 - t) / ms.eps)
    return 1.0 - (a + b) / ms._denom, (a - b) / (ms.eps * ms._denom)


def bilinear_broadcast(bil, pts):
    """``BilinearMap.__call__`` as one broadcast over a length-2 last axis."""
    s, t = pts[..., 0:1], pts[..., 1:2]
    return bil.p0 + s * bil.ds + t * bil.dt + (s * t) * bil.dst


def sup_errors(field, exact, exact_grad=None, n=400):
    """Dense-grid sup norms (max |e|, max |grad e|) of e = field - exact.

    The maxima run over an n-by-n grid on every element: a tensor grid on
    rectangles and its Duffy image on triangles, which clusters toward the
    vertex at the origin.  ``exact`` and ``exact_grad`` are callables of
    (x, y), the gradient returning (..., 2).  ``exact_grad=None`` skips
    the gradient (for functions whose gradient is singular on the grid):
    the grid is only mapped, no Jacobian is formed, and 0 is returned for
    it.  Grid points go in blocks of ``fem._POINTS``, so memory grows with
    elements x ``_POINTS``, not with elements x n^2.
    """
    t = np.linspace(0.0, 1.0, n)
    u, v = (a.ravel() for a in np.meshgrid(t, t, indexing="xy"))
    val_err = grad_err = 0.0
    for shape, grid in (("r", np.column_stack([u, v])), ("t", np.column_stack([u, u * v]))):
        if not len(field.dofmap.dofs[shape]):
            continue
        basis = rect_basis(field.q) if shape == "r" else tri_basis(field.q)
        co = field.coeffs[field.dofmap.dofs[shape]]
        for lo in range(0, len(grid), _POINTS):
            pts = grid[lo : lo + _POINTS]
            B, G = basis.tabulate(pts)
            vals = co @ B.T
            if exact_grad is None:
                _, bil, pat = element_points(field.mesh, shape, pts)
                phys = bil(pat)
            else:
                _, _, phys, _, invJ = element_geometry(field.mesh, shape, pts)
                ne, (npts, nb) = len(co), B.shape
                gref = (co @ np.swapaxes(G, 0, 1).reshape(nb, 2 * npts)).reshape(ne, npts, 1, 2)
                grads = (gref @ invJ)[..., 0, :]
            x, y = phys[..., 0], phys[..., 1]
            val_err = max(val_err, float(np.abs(vals - exact(x, y)).max()))
            if exact_grad is not None:
                grad_err = max(grad_err, float(np.abs(grads - exact_grad(x, y)).max()))
    return val_err, grad_err


def lebesgue_constant(q, npts=100_001):
    """Lebesgue constant of GL interpolation, estimated on a dense grid."""
    nodes, _ = gauss_lobatto_rule(q)
    basis = LagrangeBasis1D(nodes)
    grid = np.linspace(-1.0, 1.0, npts)
    lam = np.abs(basis.eval(grid)).sum(axis=1)
    return float(lam.max())


@dataclass
class ElementMetrics:
    shape: str
    h: float  # diameter
    h_min: float
    h_max: float
    dist_gamma: float | None  # absent when the pattern has no boundary image
    dist_origin: float
    touches_gamma: bool
    touches_origin: bool


def patch_metrics(patch):
    """Diameters, side lengths and distances to the boundary image of
    every element of a pattern, in pattern order, grouped by shape so
    numpy does the geometry."""
    out = [None] * patch.element_count()
    for shape, idx in patch.eid.items():
        if not len(idx):
            continue
        xy = patch.nodes[patch.conn[shape]]  # (m, 3 or 4, 2)
        edge = np.roll(xy, -1, axis=1) - xy
        elen = np.hypot(edge[..., 0], edge[..., 1])
        if shape == "r":
            hx, hy = elen[:, 0], elen[:, 1]
            h = np.hypot(hx, hy)
            h_min, h_max = np.minimum(hx, hy), np.maximum(hx, hy)
        else:
            h = elen.max(axis=1)
            h_min = h_max = h
        # clamped projection of the origin onto every edge
        len2 = np.einsum("med,med->me", edge, edge)
        t = np.clip(np.einsum("med,med->me", -xy, edge) / len2, 0.0, 1.0)
        closest = xy + t[..., None] * edge
        d_orig = np.hypot(closest[..., 0], closest[..., 1]).min(axis=1)
        touches_o = np.any((xy[..., 0] == 0.0) & (xy[..., 1] == 0.0), axis=1)
        d_orig = np.where(touches_o, 0.0, d_orig)
        dists = []
        if GAMMA_BOTTOM in patch.gamma:
            dists.append(xy[..., 1].min(axis=1))
        if GAMMA_LEFT in patch.gamma:
            dists.append(xy[..., 0].min(axis=1))
        if GAMMA_ORIGIN in patch.gamma:
            dists.append(d_orig)
        d_gamma = np.min(dists, axis=0) if dists else None
        for row, i in enumerate(idx.tolist()):
            dg = float(d_gamma[row]) if d_gamma is not None else None
            out[i] = ElementMetrics(
                shape=shape,
                h=float(h[row]),
                h_min=float(h_min[row]),
                h_max=float(h_max[row]),
                dist_gamma=dg,
                dist_origin=float(d_orig[row]),
                touches_gamma=dg == 0.0 if dg is not None else False,
                touches_origin=bool(touches_o[row]),
            )
    return out


def patch_sums(metrics, delta, alpha, eps):
    """The four summability quantities that drive the layer estimates,
    from a pattern's ``patch_metrics``.

    For ``delta`` in (0, 1] and decay rate ``alpha`` they are:

    * ``triangle_sum``      sum of h^delta over triangles away from 0,
    * ``rect_sum``          sum of (h_min/h_max) h_max^delta over rectangles,
    * ``triangle_exp_sum``  sum of (h/eps)^delta exp(-alpha h/eps) over
      triangles away from 0,
    * ``rect_exp_sum``      sum of (h_min/h_max)(h_max/eps)^delta
      exp(-alpha h_max/eps),

    each bounded uniformly in the layer counts (and in eps for the
    exponentially weighted pair).
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if alpha <= 0.0 or eps <= 0.0:
        raise ValueError("alpha and eps must be positive")
    tri_sum = tri_exp = rect_sum = rect_exp = 0.0
    for met in metrics:
        if met.shape == "t":
            if not met.touches_origin:
                tri_sum += met.h**delta
                tri_exp += (met.h / eps) ** delta * math.exp(-alpha * met.h / eps)
        else:
            ratio = met.h_min / met.h_max
            rect_sum += ratio * met.h_max**delta
            rect_exp += (
                ratio
                * (met.h_max / eps) ** delta
                * math.exp(-alpha * met.h_max / eps)
            )
    return {
        "triangle_sum": tri_sum,
        "rect_sum": rect_sum,
        "triangle_exp_sum": tri_exp,
        "rect_exp_sum": rect_exp,
    }


def element_metrics(patch, e):
    """The metrics of one pattern element, one element at a time: the
    reference ``patch_metrics`` must agree with."""
    xy = patch.nodes[list(e.nodes)]
    m = len(xy)
    edge_len = [float(np.hypot(*(xy[(i + 1) % m] - xy[i]))) for i in range(m)]
    if e.shape == "r":
        hx, hy = edge_len[0], edge_len[1]
        h = math.hypot(hx, hy)
        h_min, h_max = min(hx, hy), max(hx, hy)
    else:
        h = max(edge_len)
        h_min = h_max = h
    dist_origin = _poly_point_dist(xy, np.zeros(2))
    touches_origin = any(x == 0.0 and y == 0.0 for x, y in xy)
    if touches_origin:
        dist_origin = 0.0
    dists = []
    if GAMMA_BOTTOM in patch.gamma:
        dists.append(float(xy[:, 1].min()))
    if GAMMA_LEFT in patch.gamma:
        dists.append(float(xy[:, 0].min()))
    if GAMMA_ORIGIN in patch.gamma:
        dists.append(dist_origin)
    dist_gamma = min(dists) if dists else None
    touches = dist_gamma == 0.0 if dist_gamma is not None else False
    return ElementMetrics(
        shape=e.shape,
        h=h,
        h_min=h_min,
        h_max=h_max,
        dist_gamma=dist_gamma,
        dist_origin=dist_origin,
        touches_gamma=touches,
        touches_origin=touches_origin,
    )


# ---------------------------------------------------------------------------
# the object path that the array-native Mesh replaced, kept as the reference


def _node_location(x: float, y: float):
    """Classify a pattern node: corner, boundary edge with coordinate, or interior."""
    left, right = x == 0.0, x == 1.0
    bottom, top = y == 0.0, y == 1.0
    if bottom and left:
        return ("v", 0)
    if bottom and right:
        return ("v", 1)
    if top and right:
        return ("v", 2)
    if top and left:
        return ("v", 3)
    if bottom:
        return ("e", 0, x)
    if right:
        return ("e", 1, y)
    if top:
        return ("e", 2, x)
    if left:
        return ("e", 3, y)
    return ("i",)


# reference edge k: (corner the trace coordinate is measured from, other corner)
_EDGE_ANCHORS = {0: (0, 1), 1: (1, 2), 2: (3, 2), 3: (0, 3)}


def facet_uses(elements):
    """Map each undirected facet to its (element, directed pair) uses, in first-use order."""
    fmap = {}
    for ei, e in enumerate(elements):
        m = len(e.nodes)
        for k in range(m):
            a, b = e.nodes[k], e.nodes[(k + 1) % m]
            fmap.setdefault((min(a, b), max(a, b)), []).append((ei, (a, b)))
    return fmap


def build_by_dict(macro, polygon, params, assignments=None):
    """The mesh glued one pattern node at a time through a dict of symbolic
    keys, one pattern built per quad.  Returns a namespace with the fields
    ``validate_by_element`` reads: nodes, ``Element`` rows, the boundary
    facets as a set, merge_discrepancy, oriented corner tuples, patterns."""
    if assignments is None:
        assignments = assign_refinement_patterns(macro, polygon)
    key_to_gid, coords, elements, oriented_all, patterns = {}, [], [], [], []
    max_disc = 0.0
    for qid, (quad, asn) in enumerate(zip(macro.quads, assignments)):
        pattern = pattern_for(asn, params)
        oriented = tuple(quad[(asn.rotation + k) % 4] for k in range(4))
        phys = BilinearMap(macro.nodes[list(oriented)])(pattern.nodes)
        local_gid = []
        for ln in range(len(pattern.nodes)):
            loc = _node_location(pattern.nodes[ln, 0], pattern.nodes[ln, 1])
            if loc[0] == "v":
                key = ("v", oriented[loc[1]])
            elif loc[0] == "e":
                lo_corner, hi_corner = _EDGE_ANCHORS[loc[1]]
                a, b = oriented[lo_corner], oriented[hi_corner]
                t = loc[2]
                key = ("e", a, b, t) if a < b else ("e", b, a, 1.0 - t)
            else:
                key = ("i", qid, ln)
            gid = key_to_gid.get(key)
            if gid is None:
                gid = len(coords)
                key_to_gid[key] = gid
                coords.append(phys[ln])
            else:
                max_disc = max(max_disc, float(np.hypot(*(phys[ln] - coords[gid]))))
            local_gid.append(gid)
        for el in pattern_rows(pattern):
            ids = tuple(local_gid[i] for i in el.nodes)
            elements.append(Element(el.shape, ids, qid, pattern.nodes[list(el.nodes)].copy()))
        oriented_all.append(oriented)
        patterns.append(pattern)
    boundary = {f for f, uses in facet_uses(elements).items() if len(uses) == 1}
    return SimpleNamespace(polygon=polygon, macro=macro, assignments=assignments,
                           nodes=np.asarray(coords), elements=elements, boundary_facets=boundary,
                           merge_discrepancy=max_disc, oriented=oriented_all, patterns=patterns)


def _conformity_by_dict(nodes, elements):
    fmap = facet_uses(elements)
    problems = []
    for facet, uses in fmap.items():
        if len(uses) > 2:
            problems.append(f"facet {facet} shared by {len(uses)} elements")
        elif len(uses) == 2 and uses[0][1] == uses[1][1]:
            problems.append(f"facet {facet} traversed twice in the same direction")
    for node, facet in hanging_nodes(nodes, list(fmap)):
        problems.append(f"node {node} hangs on facet {facet}")
    return problems


def _supporting_edge(polygon, a, b, c, tol=TOL):
    """Scalar boundary-edge test of segment [a, b] seen from interior point c."""
    for j in range(polygon.m):
        va, vb = polygon.edge(j)
        d = vb - va
        length = math.hypot(*d)
        scale = tol * max(1.0, length)
        if abs((a[0] - va[0]) * d[1] - (a[1] - va[1]) * d[0]) / length > scale:
            continue
        if abs((b[0] - va[0]) * d[1] - (b[1] - va[1]) * d[0]) / length > scale:
            continue
        ta = float(np.dot(a - va, d)) / (length * length)
        tb = float(np.dot(b - va, d)) / (length * length)
        if not (-tol <= min(ta, tb) and max(ta, tb) <= 1.0 + tol):
            continue
        if (c[0] - va[0]) * d[1] - (c[1] - va[1]) * d[0] < 0.0:
            return j
    return None


def validate_by_element(mesh, check_corner_condition=True):
    """``validate_mesh`` element by element on a ``build_by_dict`` mesh:
    (violations, warnings)."""
    violations, warnings = [], []
    for qid, pattern in enumerate(mesh.patterns):
        violations += [f"quad {qid}: {msg}"
                       for msg in _conformity_by_dict(pattern.nodes, pattern_rows(pattern))]
    if mesh.merge_discrepancy > 1e-12:
        violations.append(f"merged node coordinates disagree by {mesh.merge_discrepancy:.3e}")
    fmap = facet_uses(mesh.elements)
    violations += _conformity_by_dict(mesh.nodes, mesh.elements)
    once = {f for f, uses in fmap.items() if len(uses) == 1}
    if once != mesh.boundary_facets:
        violations.append(f"stored boundary marking disagrees with element incidence "
                          f"({len(once ^ mesh.boundary_facets)} facets differ)")
    edge_len = np.zeros(mesh.polygon.m)
    for a, b in sorted(once):
        ei = fmap[(a, b)][0][0]
        interior = mesh.nodes[list(mesh.elements[ei].nodes)].mean(axis=0)
        j = _supporting_edge(mesh.polygon, mesh.nodes[a], mesh.nodes[b], interior)
        if j is None:
            violations.append(f"facet ({a},{b}) of element {ei} is exposed but not on the boundary")
        else:
            edge_len[j] += float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
    for j in range(mesh.polygon.m):
        va, vb = mesh.polygon.edge(j)
        want = float(np.hypot(*(vb - va)))
        if abs(edge_len[j] - want) > 1e-9 * max(1.0, want):
            violations.append(f"polygon edge {j} covered by facets of total length "
                              f"{edge_len[j]:.12g}, expected {want:.12g}")
    for ei, el in enumerate(mesh.elements):
        place = placement_for(el.shape, el.ref)
        pat = place.origin + (_JAC_SAMPLES if el.shape == "r" else _TRI_SAMPLES) @ place.mat.T
        J = BilinearMap(mesh.macro.nodes[list(mesh.oriented[el.macro_id])]).jacobian(pat) @ place.mat
        if np.any(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0] <= 0.0):
            violations.append(f"element {ei} has a non-positive Jacobian")
    if check_corner_condition:
        warnings += _corner_warnings(mesh)
    return violations, warnings


def _corner_warnings(mesh):
    """The corner-split warnings from a scan of every quad corner at every vertex."""
    out = []
    lines_at_corner = {0: (1, 3, 2), 1: (0,), 2: (0,), 3: (0,)}
    for j in range(mesh.polygon.m):
        corner = mesh.polygon.vertices[j]
        omega = mesh.polygon.interior_angle(j)
        ok = False
        for qid, oriented in enumerate(mesh.oriented):
            xy = mesh.macro.nodes[list(oriented)]
            centroid = xy.mean(axis=0)
            for m in range(4):
                if np.hypot(*(xy[m] - corner)) > TOL:
                    continue
                if len(mesh.polygon.vertex_candidates(corner)) > 1:
                    if not mesh.polygon.sector_contains(j, centroid - corner):
                        continue
                has_diag = mesh.assignments[qid].kind in (
                    PatchKind.CORNER, PatchKind.TENSOR, PatchKind.MIXED)
                for target in lines_at_corner[m]:
                    if (m, target) in ((0, 2), (2, 0)):
                        if not has_diag:
                            continue
                        d = (xy[1] - xy[0]) + (xy[3] - xy[0])
                        if m == 2:
                            d = (xy[1] - xy[2]) + (xy[3] - xy[2])
                    else:
                        d = xy[target] - xy[m]
                    phi = mesh.polygon.sector_offset(j, d)
                    if phi > omega + 1e-9:
                        phi -= 2.0 * math.pi
                    phi = min(max(phi, 0.0), omega)
                    if phi < math.pi - 1e-9 and omega - phi < math.pi - 1e-9:
                        ok = True
        if not ok:
            out.append(f"vertex {j} (angle {omega:.6f}): no bottom/left/diagonal mesh "
                       "line splits the angle into parts below pi")
    return out


# ---------------------------------------------------------------------------
# the system on all free dofs, which assembly condenses without forming it


def full_system(mesh, q, eps, c, f, diffusion=None):
    """eps^2 (A grad u, grad v) + (c u, v) = (f, v) on every free dof,
    assembled one element at a time with the quadrature of ``assemble``
    (q + 2 points per direction): the free x free CSR matrix and load.
    ``c`` and ``f`` are constants or callables f(x, y), ``diffusion`` maps
    points to (n, 2, 2) matrices or is None for the identity."""
    import scipy.sparse as sp

    def field(fn, pts):
        value = fn(pts[:, 0], pts[:, 1]) if callable(fn) else fn
        return np.broadcast_to(np.asarray(value, dtype=float), (len(pts),))

    dofmap = DofMap(mesh, q)
    rows, cols, vals = [], [], []
    load = np.zeros(dofmap.ndofs)
    for shape, gd in dofmap.dofs.items():
        basis = rect_basis(q) if shape == "r" else tri_basis(q)
        pts, w = rect_quadrature(q + 2) if shape == "r" else tri_quadrature(q + 2)
        B, G = basis.tabulate(pts)
        _, _, phys, det, inv = element_geometry(mesh, shape, pts)
        for k, dofs in enumerate(gd):
            wd = w * det[k]
            if diffusion is None:
                A = np.broadcast_to(np.eye(2), (len(pts), 2, 2))
            else:
                A = diffusion(phys[k])
            grad = np.einsum("pia,pab->pib", G, inv[k])  # physical gradients
            K = np.einsum("p,pia,pab,pjb->ij", wd, grad, A, grad)
            M = np.einsum("p,pi,pj->ij", wd * field(c, phys[k]), B, B)
            S = eps * eps * K + M
            rows.append(np.repeat(dofs, len(dofs)))
            cols.append(np.tile(dofs, len(dofs)))
            vals.append((0.5 * (S + S.T)).ravel())
            load[dofs] += np.einsum("p,pi->i", wd * field(f, phys[k]), B)
    n = dofmap.ndofs
    full = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()
    return full[dofmap.free][:, dofmap.free], load[dofmap.free]


def skeleton_csr(system):
    """The skeleton matrix of a ``LinearSystem`` as a scipy CSR matrix: the
    element blocks ``system.matrix`` applies, summed on their free indices
    (the padding slot of constrained dofs cut off)."""
    import scipy.sparse as sp

    n = system.matrix.shape[0]
    rows, cols, vals = [], [], []
    for fb, S in system.matrix.blocks:
        rows.append(np.broadcast_to(fb[:, :, None], S.shape).ravel())
        cols.append(np.broadcast_to(fb[:, None, :], S.shape).ravel())
        vals.append(S.ravel())
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n + 1, n + 1)).tocsr()
    return A[:n, :n]


def direct_solve(system):
    """``LinearSystem.solve`` with a sparse direct solve of the skeleton in
    place of CG: (field, stats), the stats reading 0 iterations."""
    import scipy.sparse.linalg as spla

    A, b = skeleton_csr(system).tocsc(), system.rhs
    x = spla.spsolve(A, b) if len(b) else np.zeros(0)  # spsolve rejects 0x0
    return system.field(x), {"iterations": 0, "relres": 0.0}


def energy_norm(field, eps, c, diffusion=None):
    """sqrt(eps^2 (A grad u, grad u) + (c u, u)) by the package's norm kernel."""
    return error_norms(field, None, eps, c, diffusion)["energy"]


def error_norms_matmul_flux(field, exact, eps, c, diffusion):
    """``fem.error_norms`` with a diffusion field, as it was with (E, P, 2)
    gradients and the flux A grad e as one 1x2 by 2x2 matmul per point:
    the reference the plane kernel is compared with (``test_fem``)."""
    l2 = h1 = flux_sq = mass = 0.0
    for shape in ("r", "t"):
        _, _, B, G = _tables(shape, field.q, field.q + 3)
        phys, wdet, invJ = field.dofmap.norm_geometry(shape)
        co = field.coeffs[field.dofmap.dofs[shape]]
        ne, (npts, nb) = len(co), B.shape
        gref = (co @ np.swapaxes(G, 0, 1).reshape(nb, 2 * npts)).reshape(ne, npts, 1, 2)
        flat = phys.reshape(-1, 2)
        u, du = exact(*flat.T)
        vals = co @ B.T - u.reshape(ne, npts)
        grads = _times(gref, invJ)[..., 0, :] - du.reshape(phys.shape)
        Ap = np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 2, 2)
        flux = (grads[..., None, :] @ Ap)[..., 0, :]
        l2 += float(np.sum(wdet * vals * vals))
        h1 += float(np.sum(wdet * np.sum(grads * grads, axis=-1)))
        flux_sq += float(np.sum(wdet * np.sum(flux * grads, axis=-1)))
        mass += float(np.sum(wdet * _field_at(c, flat).reshape(ne, npts) * vals * vals))
    return _norm_dict(eps, l2, h1, flux_sq, mass)


def evaluate(field, points):
    """Values of a ``DiscreteField`` at physical points.

    Newton's method inverts every macro bilinear map at every point at
    once; a point belongs to the lowest-numbered macro quad whose
    inverse image lies in the unit square within 1e-10, and
    ``at_pattern`` evaluates it there.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bil = field.mesh.quad_map(np.arange(len(field.mesh.oriented)))
    st = np.full((len(points), len(field.mesh.oriented), 2), 0.5)
    with np.errstate(all="ignore"):  # points outside a quad may diverge
        for _ in range(30):
            r = bil(st) - points[:, None, :]
            (a, b), (c, d) = np.moveaxis(bil.jacobian(st), (-2, -1), (0, 1))
            step = np.stack([d * r[..., 0] - b * r[..., 1], a * r[..., 1] - c * r[..., 0]], -1)
            st = st - step / (a * d - b * c)[..., None]
        res = np.linalg.norm(bil(st) - points[:, None, :], axis=-1)
        ok = (res < 1e-10) & np.all((st >= -1e-10) & (st <= 1.0 + 1e-10), axis=-1)
    lost = ~ok.any(axis=1)
    if lost.any():
        raise ValueError(f"point {points[np.argmax(lost)]} not found in any element")
    qids = np.argmax(ok, axis=1)
    return field.at_pattern(qids, st[np.arange(len(points)), qids])[0]


def at_pattern_per_point(field, qids, pat):
    """``DiscreteField.at_pattern`` as it was before points were shared by
    pattern pair: every point located in its own quad and the basis
    factors formed at every point, block by block, then contracted with
    the coefficients."""
    qids = np.asarray(qids, dtype=np.int64)
    pat = np.asarray(pat, dtype=float)
    loc = _PatternLocator(field.mesh, qids)
    eids, ref = loc.locate(qids, pat)
    vals = np.empty(len(pat))
    grads = np.empty((len(pat), 2))
    for shape in ("r", "t"):
        basis = _basis_for(shape, field.q)
        sel = np.flatnonzero(loc.tri[eids] == (shape == "t"))
        for lo in range(0, len(sel), _POINTS):
            k = sel[lo : lo + _POINTS]
            e = eids[k]
            co = field.coeffs[field.dofmap.dofs[shape][loc.slot[e]]]
            vals[k], gref = basis.contract(basis.factors(ref[k]), co)
            grads[k] = (gref[:, None, :] @ loc.inv[e])[:, 0, :]  # reference -> pattern
    return vals, grads


# ---------------------------------------------------------------------------
# the per-call field difference, which the reference's once-formed side replaced


def field_difference_oracle(ref, fld, eps, c, diffusion=None):
    """Norms of ref - fld as every call formed them before the reference's
    side was kept: the reference mesh mapped at q_ref + 2 points per
    direction and the reference evaluated there, then fld located per
    shape at every point (``at_pattern_per_point``) and its pattern
    gradients pushed through the macro Jacobian's inverse.  ``c`` is a
    constant or a callable; the flux A grad e of a ``diffusion`` field is
    one 1x2 by 2x2 matmul per point, as in ``error_norms_matmul_flux``."""
    l2 = h1 = flux_sq = mass = 0.0
    for shape in ("r", "t"):
        pts, w, B, G = _tables(shape, ref.q, ref.q + 2)
        _, pat, phys, det, invJ = element_geometry(ref.mesh, shape, pts)
        co = ref.coeffs[ref.dofmap.dofs[shape]]
        vals = co @ B.T
        ne, (npts, nb) = len(co), B.shape
        gref = (co @ np.swapaxes(G, 0, 1).reshape(nb, 2 * npts)).reshape(ne, npts, 1, 2)
        grads = (gref @ invJ)[..., 0, :]
        wdet = w * det
        qids = np.repeat(ref.mesh.macro_id[shape], npts)
        sub_vals, gpat = at_pattern_per_point(fld, qids, pat.reshape(-1, 2))
        _, jinv = inverse_2x2(fld.mesh.quad_map(qids).jacobian(pat.reshape(-1, 2)))
        vals = vals - sub_vals.reshape(ne, npts)
        grads = grads - (gpat[:, None, :] @ jinv)[:, 0, :].reshape(pat.shape)
        flat = phys.reshape(-1, 2)
        l2 += float(np.sum(wdet * vals * vals))
        h1 += float(np.sum(wdet * np.sum(grads * grads, axis=-1)))
        flux = grads
        if diffusion is not None:
            Ap = np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 2, 2)
            flux = (grads[..., None, :] @ Ap)[..., 0, :]
        flux_sq += float(np.sum(wdet * np.sum(flux * grads, axis=-1)))
        cval = c(flat[:, 0], flat[:, 1]) if callable(c) else c
        cval = np.broadcast_to(np.asarray(cval, dtype=float), (len(flat),))
        mass += float(np.sum(wdet * cval.reshape(ne, npts) * vals * vals))
    return {
        "l2": math.sqrt(l2),
        "h1": math.sqrt(h1),
        "energy": math.sqrt(eps * eps * flux_sq + mass),
        "balanced": math.sqrt(eps * h1 + l2),
    }


def jacobi_stars(A):
    """``solve_cg``'s stars for point Jacobi: every index its own star, with
    its diagonal entry of A as block."""
    n = A.shape[0]
    return [(np.arange(n)[:, None], A.diagonal()[:, None, None], np.arange(n))]


def star_blocks(A, stars):
    """``solve_cg``'s stars with every star's dense block read from the CSR
    matrix A (a ``skeleton_csr``) by point indexing, ``A[rows, cols]``: per
    star size the indices (m, s) of ``stars`` (as ``DofMap.stars``), the
    blocks (m, s, s) and each star's block index.  The oracle for the
    blocks that ``LinearSystem`` forms from the element classes."""
    out = []
    for D in stars.values():
        m, s = D.shape
        rows, cols = np.repeat(D, s, axis=1).ravel(), np.tile(D, s).ravel()
        out.append((D, np.asarray(A[rows, cols]).reshape(m, s, s), np.arange(m)))
    return out
