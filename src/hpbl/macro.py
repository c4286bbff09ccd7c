"""Macro quadrilateral meshes and geometric boundary-layer refinement.

A coarse mesh of convex quadrilaterals covers the polygon, each quad
the image of the unit square under a bilinear map.  Every quad gets one
of the reference refinement patterns, oriented so that the pattern's
refined sides land on the domain boundary, and the refined quads are
glued into one global mesh.  Pattern boundary traces are geometric
point sets measured from shared macro nodes, so gluing is exact: nodes
are merged by symbolic keys (macro vertex, position along a macro edge,
or quad-local interior id), never by coordinate fuzzing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Polygon
from .interp import placement_for
from .meshcheck import conformity_violations, facet_incidence
from .meshcheck import hanging_nodes  # noqa: F401  (callers look the layer up here too)
from .patches import (
    GAMMA_BOTTOM,
    GAMMA_LEFT,
    GAMMA_ORIGIN,
    PatchKind,
    PatchMesh,
    PatchParams,
    build_pattern,
)

__all__ = [
    "MacroTriangulation",
    "PatternAssignment",
    "Mesh",
    "MeshElement",
    "BilinearMap",
    "element_placements",
    "element_geometry",
    "ValidationReport",
    "assign_refinement_patterns",
    "macro_from_triangulation",
    "build_geo_bl_mesh",
    "validate_mesh",
    "scale_resolution_L",
]

TOL = 1e-12


def scale_resolution_L(sigma: float, eps: float, c1: float = 1.0) -> int:
    """Smallest number of geometric layers that resolves the scale eps.

    Returns the least L >= 0 with sigma**L <= c1 * eps, the power
    evaluated by repeated multiplication (matching how the patterns
    place their layer lines).
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if eps <= 0.0 or c1 <= 0.0:
        raise ValueError("eps and c1 must be positive")
    level, value = 0, 1.0
    while value > c1 * eps:
        value *= sigma
        level += 1
        if level > 10_000:
            raise ValueError("layer count overflow; eps too small")
    return level


# ---------------------------------------------------------------------------
# macro triangulations and quad meshes


@dataclass
class MacroTriangulation:
    """Convex-quad macro mesh, normally obtained by splitting triangles."""

    nodes: np.ndarray
    quads: list[tuple[int, int, int, int]]

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        for quad in self.quads:
            xy = self.nodes[list(quad)]
            for k in range(4):
                a = xy[(k + 1) % 4] - xy[k]
                b = xy[(k + 2) % 4] - xy[(k + 1) % 4]
                if a[0] * b[1] - a[1] * b[0] <= 0.0:
                    raise ValueError(f"quad {quad} is not convex and counterclockwise")

    def corner_coords(self, qid: int) -> np.ndarray:
        return self.nodes[list(self.quads[qid])]


def _split_edge(tri: tuple[int, int, int], u: int, v: int, p: int):
    """Split a triangle along edge (u, v) at node p, keeping orientation."""
    a, b, c = tri
    order = (a, b, c, a)
    for k in range(3):
        if order[k] == u and order[k + 1] == v:
            w = tri[(k + 2) % 3]
            return (u, p, w), (p, v, w)
    raise ValueError("edge not part of triangle")


def macro_from_triangulation(points, triangles, polygon: Polygon) -> MacroTriangulation:
    """Build the macro quad mesh from a coarse triangulation of the polygon.

    Each triangle becomes three quads by connecting its barycenter to the
    edge midpoints, so macro edges always meet the boundary through a
    triangle vertex or edge midpoint.  Before splitting, any vertex of the
    polygon with interior angle >= pi that is not already cut by a mesh
    line into sectors of angle < pi gets the enclosing triangle bisected
    (a slit tip, with angle exactly 2*pi, cannot be fixed this way and is
    left to the validator to report).

    For slit domains the input triangulation must already carry
    duplicated nodes along the slit, one per side.
    """
    pts = [np.asarray(p, dtype=float) for p in np.asarray(points, dtype=float)]
    tris: list[tuple[int, int, int]] = []
    for t in triangles:
        a, b, c = (int(i) for i in t)
        u, v = pts[b] - pts[a], pts[c] - pts[a]
        if u[0] * v[1] - u[1] * v[0] < 0.0:
            a, b, c = a, c, b
        tris.append((a, b, c))

    # Cut re-entrant corners so every interior sector at a polygon vertex
    # is split by mesh lines into angles below pi.
    for j in range(polygon.m):
        omega = polygon.interior_angle(j)
        if omega < math.pi - 1e-9 or omega > 2.0 * math.pi - 1e-9:
            continue
        corner = polygon.vertices[j]

        def _incident():
            for ti, tri in enumerate(tris):
                for k in range(3):
                    if np.hypot(*(pts[tri[k]] - corner)) <= TOL:
                        centroid = (pts[tri[0]] + pts[tri[1]] + pts[tri[2]]) / 3.0
                        if polygon.sector_contains(j, centroid - corner):
                            yield ti, tri, k

        def _split_ok() -> bool:
            offs = []
            for _, tri, k in _incident():
                for other in (tri[(k + 1) % 3], tri[(k + 2) % 3]):
                    offs.append(polygon.sector_offset(j, pts[other] - corner))
            offs = sorted(o for o in offs if 1e-9 < o < omega - 1e-9)
            cuts = [0.0] + offs + [omega]
            return all(b - a < math.pi - 1e-9 for a, b in zip(cuts, cuts[1:]))

        while not _split_ok():
            # bisect the incident triangle whose sector straddles an angle >= pi
            target = None
            for ti, tri, k in _incident():
                d1 = pts[tri[(k + 1) % 3]] - corner
                d2 = pts[tri[(k + 2) % 3]] - corner
                lo = min(polygon.sector_offset(j, d1), polygon.sector_offset(j, d2))
                hi = max(polygon.sector_offset(j, d1), polygon.sector_offset(j, d2))
                if hi - lo > math.pi - 1e-9:
                    target = (ti, tri, k, 0.5 * (lo + hi))
                    break
            if target is None:
                raise ValueError(f"cannot satisfy the corner condition at vertex {j}")
            ti, tri, k, mid = target
            u, v = tri[(k + 1) % 3], tri[(k + 2) % 3]
            # point on the opposite edge hit by the bisecting ray
            theta = polygon.outgoing_angle(j) + mid
            ray = np.array([math.cos(theta), math.sin(theta)])
            a, d = pts[u], pts[v] - pts[u]
            denom = ray[0] * d[1] - ray[1] * d[0]
            s = ((a[0] - corner[0]) * ray[1] - (a[1] - corner[1]) * ray[0]) / denom
            pnew = a + s * d
            pid = len(pts)
            pts.append(pnew)
            new_tris = []
            for tj, other in enumerate(tris):
                edge = set(other) & {u, v}
                if len(edge) == 2:
                    first, second = _split_edge(other, u, v, pid) if (
                        _has_directed(other, u, v)
                    ) else _split_edge(other, v, u, pid)
                    new_tris.extend([first, second])
                else:
                    new_tris.append(other)
            tris = new_tris

    # Split every triangle into three quads: vertex, two edge midpoints,
    # barycenter.  Shared midpoints dedup to the same node because both
    # sides average identical coordinates.
    pool: dict[tuple[float, float], int] = {}
    nodes: list[np.ndarray] = []

    def nid(p: np.ndarray) -> int:
        key = (float(p[0]), float(p[1]))
        if key not in pool:
            pool[key] = len(nodes)
            nodes.append(np.asarray(p, dtype=float))
        return pool[key]

    quads: list[tuple[int, int, int, int]] = []
    for a, b, c in tris:
        pa, pb, pc = pts[a], pts[b], pts[c]
        g = nid((pa + pb + pc) / 3.0)
        mab = nid((pa + pb) / 2.0)
        mbc = nid((pb + pc) / 2.0)
        mca = nid((pc + pa) / 2.0)
        va, vb, vc = nid(pa), nid(pb), nid(pc)
        quads.append((va, mab, g, mca))
        quads.append((vb, mbc, g, mab))
        quads.append((vc, mca, g, mbc))
    return MacroTriangulation(np.asarray(nodes), quads)


def _has_directed(tri: tuple[int, int, int], u: int, v: int) -> bool:
    order = (tri[0], tri[1], tri[2], tri[0])
    return any(order[k] == u and order[k + 1] == v for k in range(3))


# ---------------------------------------------------------------------------
# pattern assignment


@dataclass(frozen=True)
class PatternAssignment:
    """Which refinement pattern a macro quad carries and how it sits.

    ``rotation`` r means reference corner k of the pattern lands on quad
    corner (r + k) mod 4.  ``flip`` mirrors the pattern across its
    diagonal before transplanting (used when a single refined edge must
    condense toward its counterclockwise end).  ``layers_from_L`` makes a
    corner pattern take its ring count from the mesh's L parameter
    instead of n (point contact away from any polygon vertex).
    """

    kind: PatchKind
    rotation: int = 0
    flip: bool = False
    layers_from_L: bool = False


def assign_refinement_patterns(
    macro: MacroTriangulation, polygon: Polygon
) -> list[PatternAssignment]:
    """Classify every macro quad by how it touches the domain boundary.

    Decision table (corners of quad q, counterclockwise):
      * no corner on the boundary: trivial pattern;
      * boundary contact at exactly one corner: corner pattern, rotated
        so the pattern origin sits on that corner (ring count from n when
        the corner is a polygon vertex, from L otherwise);
      * exactly one full edge on the boundary, neither endpoint a polygon
        vertex: boundary-layer pattern with that edge at the bottom;
      * one full edge with exactly one endpoint a polygon vertex: mixed
        pattern, pattern origin on the vertex (mirrored when the vertex
        is the counterclockwise end of the edge);
      * two adjacent full edges meeting in a polygon vertex: tensor
        pattern with the origin on the shared vertex.
    Anything else is rejected.
    """
    out: list[PatternAssignment] = []
    for qid, quad in enumerate(macro.quads):
        xy = macro.corner_coords(qid)
        centroid = xy.mean(axis=0)
        on_edge = []
        for k in range(4):
            j = polygon.supporting_edge(xy[k], xy[(k + 1) % 4], centroid)
            on_edge.append(j is not None)
        corner_on = [polygon.point_on_boundary(xy[k]) for k in range(4)]
        corner_vertex = [
            polygon.vertex_at(xy[k], toward=centroid) is not None for k in range(4)
        ]
        n_edges = sum(on_edge)

        if n_edges == 0:
            touching = [k for k in range(4) if corner_on[k]]
            if not touching:
                out.append(PatternAssignment(PatchKind.TRIVIAL))
            elif len(touching) == 1:
                k = touching[0]
                out.append(
                    PatternAssignment(
                        PatchKind.CORNER,
                        rotation=k,
                        layers_from_L=not corner_vertex[k],
                    )
                )
            else:
                raise ValueError(
                    f"macro quad {qid} touches the boundary at {len(touching)} "
                    "isolated corners; split it"
                )
        elif n_edges == 1:
            i = on_edge.index(True)
            lo, hi = i, (i + 1) % 4
            others = [k for k in range(4) if k not in (lo, hi)]
            if any(corner_on[k] for k in others):
                raise ValueError(
                    f"macro quad {qid} has a boundary edge plus extra "
                    "boundary contact; split it"
                )
            at_lo, at_hi = corner_vertex[lo], corner_vertex[hi]
            if not at_lo and not at_hi:
                out.append(PatternAssignment(PatchKind.BOUNDARY_LAYER, rotation=i))
            elif at_lo and not at_hi:
                out.append(PatternAssignment(PatchKind.MIXED, rotation=i))
            elif at_hi and not at_lo:
                # vertex at the CCW end: mirror so the origin lands on it
                out.append(
                    PatternAssignment(PatchKind.MIXED, rotation=(i + 1) % 4, flip=True)
                )
            else:
                raise ValueError(
                    f"macro quad {qid} has one boundary edge with polygon "
                    "vertices at both ends; split it"
                )
        elif n_edges == 2:
            pairs = [(i, (i + 1) % 4) for i in range(4) if on_edge[i] and on_edge[(i + 1) % 4]]
            if not pairs:
                raise ValueError(
                    f"macro quad {qid} touches the boundary along two "
                    "opposite edges; split it"
                )
            i, i2 = pairs[0]
            shared = i2  # corner between edges i and i+1
            if not corner_vertex[shared]:
                raise ValueError(
                    f"macro quad {qid} has two boundary edges whose common "
                    "corner is not a polygon vertex"
                )
            out.append(PatternAssignment(PatchKind.TENSOR, rotation=shared))
        else:
            raise ValueError(
                f"macro quad {qid} has {n_edges} boundary edges; only one or "
                "two adjacent are supported"
            )
    return out


# ---------------------------------------------------------------------------
# pattern transplant and node merging


def _flip_pattern(patch: PatchMesh) -> PatchMesh:
    """Mirror a pattern across the diagonal y = x.

    Coordinates swap, triangles reverse their vertex order to stay
    counterclockwise, and rectangles are re-listed from the lower-left
    corner.  Boundary tags swap bottom and left.
    """
    from .patches import PatchElement

    nodes = patch.nodes[:, ::-1].copy()
    elements = []
    for el in patch.elements:
        if el.shape == "t":
            elements.append(PatchElement("t", (el.nodes[2], el.nodes[1], el.nodes[0])))
        else:
            ids = list(el.nodes)
            xy = nodes[ids]
            x0, y0 = xy[:, 0].min(), xy[:, 1].min()
            x1, y1 = xy[:, 0].max(), xy[:, 1].max()
            order = []
            for cx, cy in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
                for i in ids:
                    if nodes[i, 0] == cx and nodes[i, 1] == cy:
                        order.append(i)
                        break
            elements.append(PatchElement("r", tuple(order)))
    swap = {GAMMA_BOTTOM: GAMMA_LEFT, GAMMA_LEFT: GAMMA_BOTTOM, GAMMA_ORIGIN: GAMMA_ORIGIN}
    gamma = frozenset(swap[g] for g in patch.gamma)
    return PatchMesh(patch.kind, patch.params, nodes, elements, gamma, patch.area)


def pattern_for(assignment: PatternAssignment, params: PatchParams) -> PatchMesh:
    if assignment.kind is PatchKind.CORNER and assignment.layers_from_L:
        params = PatchParams(sigma=params.sigma, L=params.L, n=params.L)
    patch = build_pattern(assignment.kind, params)
    return _flip_pattern(patch) if assignment.flip else patch


# reference edge k runs from corner k to corner k+1; the stored trace
# parameter is the raw pattern coordinate measured from the corner where
# it vanishes, so both quads sharing a macro edge derive bit-identical keys
_EDGE_ANCHORS = {
    0: (0, 1, 0),  # bottom: x from corner 0
    1: (1, 2, 1),  # right:  y from corner 1
    2: (3, 2, 0),  # top:    x from corner 3
    3: (0, 3, 1),  # left:   y from corner 0
}


def _node_location(x: float, y: float):
    """Classify a pattern node: corner, boundary edge with coordinate, or interior.

    Pattern coordinates are exact (0, 1, or a power of sigma), so exact
    float comparison is the correct test.
    """
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


@dataclass
class MeshElement:
    """One refined element: global node ids plus its pattern-frame footprint."""

    shape: str  # 'r' or 't'
    nodes: tuple[int, ...]
    macro_id: int
    ref_coords: np.ndarray  # pattern coordinates of the corner nodes


class BilinearMap:
    """Bilinear image of the unit square spanned by four corner points.

    ``corners`` may stack quads, (..., 4, 2); points then broadcast
    against the leading axes.
    """

    def __init__(self, corners: np.ndarray):
        c = np.asarray(corners, dtype=float)
        self.p0 = c[..., 0, :]
        self.ds = c[..., 1, :] - c[..., 0, :]
        self.dt = c[..., 3, :] - c[..., 0, :]
        self.dst = c[..., 2, :] - c[..., 1, :] - c[..., 3, :] + c[..., 0, :]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        s, t = pts[..., 0:1], pts[..., 1:2]
        return self.p0 + s * self.ds + t * self.dt + (s * t) * self.dst

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        s, t = pts[..., 0:1], pts[..., 1:2]
        return np.stack([self.ds + t * self.dst, self.dt + s * self.dst], axis=-1)


def element_placements(mesh: Mesh, shape: str):
    """Element indices (E,) of one shape and their stacked affine placements
    from the reference element onto the pattern frame."""
    ids = np.array([ei for ei, el in enumerate(mesh.elements) if el.shape == shape], dtype=np.int64)
    xy = np.array([mesh.elements[ei].ref_coords for ei in ids])
    return ids, placement_for(shape, xy.reshape(len(ids), 4 if shape == "r" else 3, 2))


def element_geometry(mesh: Mesh, shape: str, ref_pts: np.ndarray):
    """Maps of all elements of one shape at shared reference points.

    Reference element -> pattern frame (affine placement) -> physical
    coordinates (bilinear macro quad map).  This is the only place
    element maps and Jacobians are computed.  Returns ``(ids, pat, phys,
    det, inv_jac)``: element indices (E,), pattern and physical points
    (E, P, 2), Jacobian determinants (E, P) and inverse Jacobians
    (E, P, 2, 2).
    """
    ids, place = element_placements(mesh, shape)
    pat = place.origin[:, None, :] + ref_pts @ np.swapaxes(place.mat, 1, 2)
    qids = np.array([mesh.elements[ei].macro_id for ei in ids], dtype=np.int64)
    bil = mesh.quad_map(qids[:, None])
    jac = bil.jacobian(pat) @ place.mat[:, None]
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    adj = np.stack([jac[..., 1, 1], -jac[..., 0, 1], -jac[..., 1, 0], jac[..., 0, 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = adj.reshape(jac.shape) / det[..., None, None]
    return ids, pat, bil(pat), det, inv


@dataclass
class Mesh:
    """Refined global mesh: merged nodes, elements, and per-quad pattern data."""

    polygon: Polygon
    macro: MacroTriangulation
    params: PatchParams
    assignments: list[PatternAssignment]
    nodes: np.ndarray
    elements: list[MeshElement]
    oriented: list[tuple[int, int, int, int]]
    patterns: list[PatchMesh]
    boundary_facets: set[tuple[int, int]]
    merge_discrepancy: float

    def quad_map(self, qids) -> BilinearMap:
        """Bilinear maps of macro quads ``qids`` (an index or an array of them)."""
        return BilinearMap(self.macro.nodes[np.asarray(self.oriented)[qids]])

    def element_count(self) -> int:
        return len(self.elements)

    def node_count(self) -> int:
        return len(self.nodes)


def build_geo_bl_mesh(
    macro: MacroTriangulation,
    polygon: Polygon,
    params: PatchParams,
    assignments: list[PatternAssignment] | None = None,
) -> Mesh:
    """Refine every macro quad by its pattern and glue the pieces.

    Nodes are merged by symbolic keys: pattern corners map to macro node
    ids, nodes on a pattern edge map to (macro edge, trace coordinate)
    with the coordinate measured from the lower-numbered macro node, and
    interior nodes stay quad-local.  Because matching traces on the two
    sides of a macro edge condense toward the same macro node with the
    same exact powers of sigma, both sides compute bit-identical keys.
    The worst physical-coordinate disagreement between merged copies is
    recorded on the mesh.
    """
    if assignments is None:
        assignments = assign_refinement_patterns(macro, polygon)
    if len(assignments) != len(macro.quads):
        raise ValueError("need exactly one pattern assignment per macro quad")

    key_to_gid: dict = {}
    coords: list[np.ndarray] = []
    elements: list[MeshElement] = []
    oriented_all: list[tuple[int, int, int, int]] = []
    patterns: list[PatchMesh] = []
    max_disc = 0.0

    for qid, (quad, asn) in enumerate(zip(macro.quads, assignments)):
        pattern = pattern_for(asn, params)
        oriented = tuple(quad[(asn.rotation + k) % 4] for k in range(4))
        bil = BilinearMap(macro.nodes[list(oriented)])
        phys = bil(pattern.nodes)

        local_gid = []
        for ln in range(len(pattern.nodes)):
            loc = _node_location(pattern.nodes[ln, 0], pattern.nodes[ln, 1])
            if loc[0] == "v":
                key = ("v", oriented[loc[1]])
            elif loc[0] == "e":
                lo_corner, hi_corner, _axis = _EDGE_ANCHORS[loc[1]]
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

        for el in pattern.elements:
            ids = tuple(local_gid[i] for i in el.nodes)
            ref = pattern.nodes[list(el.nodes)].copy()
            elements.append(MeshElement(el.shape, ids, qid, ref))
        oriented_all.append(oriented)
        patterns.append(pattern)

    incidence = facet_incidence(elements)
    boundary = {f for f, uses in incidence.items() if len(uses) == 1}
    return Mesh(
        polygon=polygon,
        macro=macro,
        params=params,
        assignments=assignments,
        nodes=np.asarray(coords),
        elements=elements,
        oriented=oriented_all,
        patterns=patterns,
        boundary_facets=boundary,
        merge_discrepancy=max_disc,
    )


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


_JAC_SAMPLES = np.array(
    [[s, t] for s in (0.0, 0.5, 1.0) for t in (0.0, 0.5, 1.0)]
)
_TRI_SAMPLES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.25], [2 / 3, 1 / 3], [0.9, 0.6]]
)


def validate_mesh(mesh: Mesh, check_corner_condition: bool = True) -> ValidationReport:
    """Check mesh admissibility.

    Violations: per-quad pattern non-conformity (checked exactly in
    pattern coordinates), facets shared by more than two elements or
    traversed twice in the same direction, hanging nodes, once-used
    facets that do not lie on the domain boundary, boundary edges not
    tiled exactly once by such facets, non-positive element Jacobians,
    and merged nodes whose physical coordinates disagreed beyond 1e-12.

    Warnings: polygon vertices where no mesh line splits the interior
    sector into angles below pi (unavoidable at a slit tip).
    """
    rep = ValidationReport()

    for qid, pattern in enumerate(mesh.patterns):
        for msg in conformity_violations(pattern.nodes, pattern.elements):
            rep.violations.append(f"quad {qid}: {msg}")

    if mesh.merge_discrepancy > 1e-12:
        rep.violations.append(
            f"merged node coordinates disagree by {mesh.merge_discrepancy:.3e}"
        )

    # one facet table, re-derived from the element table rather than
    # trusting the stored marking; once-used facets must tile the polygon
    # edges exactly
    incidence = facet_incidence(mesh.elements)
    rep.violations.extend(conformity_violations(mesh.nodes, incidence))
    once = {f for f, uses in incidence.items() if len(uses) == 1}
    if once != mesh.boundary_facets:
        rep.violations.append(
            f"stored boundary marking disagrees with element incidence "
            f"({len(once ^ mesh.boundary_facets)} facets differ)"
        )
    edge_len = np.zeros(mesh.polygon.m)
    for a, b in sorted(once):
        uses = incidence[(a, b)]
        ei = uses[0][0]
        el = mesh.elements[ei]
        interior = mesh.nodes[list(el.nodes)].mean(axis=0)
        j = mesh.polygon.supporting_edge(mesh.nodes[a], mesh.nodes[b], interior)
        if j is None:
            rep.violations.append(
                f"facet ({a},{b}) of element {ei} is exposed but not on the boundary"
            )
        else:
            edge_len[j] += float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
    for j in range(mesh.polygon.m):
        va, vb = mesh.polygon.edge(j)
        want = float(np.hypot(*(vb - va)))
        if abs(edge_len[j] - want) > 1e-9 * max(1.0, want):
            rep.violations.append(
                f"polygon edge {j} covered by facets of total length "
                f"{edge_len[j]:.12g}, expected {want:.12g}"
            )

    bad = []
    for shape, ref in (("r", _JAC_SAMPLES), ("t", _TRI_SAMPLES)):
        ids, _, _, det, _ = element_geometry(mesh, shape, ref)
        bad.extend(ids[np.any(det <= 0.0, axis=1)].tolist())
    rep.violations.extend(f"element {ei} has a non-positive Jacobian" for ei in sorted(bad))

    if check_corner_condition:
        _check_corner_splits(mesh, rep)
    return rep


def _check_corner_splits(mesh: Mesh, rep: ValidationReport) -> None:
    """Warn where no marked mesh line splits a vertex angle into parts < pi.

    The candidate lines at a vertex are the transplanted images of the
    pattern's bottom edge, left edge, and diagonal, restricted to those
    passing through the vertex.  A full-angle slit tip can never satisfy
    this, which is why it is a warning rather than a violation.
    """
    # pattern lines through each reference corner, as direction targets
    # (other corner the line runs toward); the diagonal joins corners 0 and 2
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
                    PatchKind.CORNER,
                    PatchKind.TENSOR,
                    PatchKind.MIXED,
                )
                for target in lines_at_corner[m]:
                    if (m, target) in ((0, 2), (2, 0)):
                        if not has_diag:  # the diagonal is a mesh line only here
                            continue
                        # diagonal tangent at the corner under the bilinear map
                        d = (xy[1] - xy[0]) + (xy[3] - xy[0])
                        if m == 2:
                            d = (xy[1] - xy[2]) + (xy[3] - xy[2])
                    else:
                        d = xy[target] - xy[m]
                    phi = mesh.polygon.sector_offset(j, d)
                    if phi > omega + 1e-9:  # wrapped just below the sector start
                        phi -= 2.0 * math.pi
                    phi = min(max(phi, 0.0), omega)
                    if phi < math.pi - 1e-9 and omega - phi < math.pi - 1e-9:
                        ok = True
        if not ok:
            rep.warnings.append(
                f"vertex {j} (angle {omega:.6f}): no bottom/left/diagonal mesh "
                "line splits the angle into parts below pi"
            )
