"""Macro quadrilateral meshes and geometric boundary-layer refinement.

A coarse mesh of convex quadrilaterals covers the polygon, each quad
the image of the unit square under a bilinear map.  Every quad gets one
of the reference refinement patterns, oriented so that the pattern's
refined sides land on the domain boundary, and the refined quads are
glued into one global mesh.  Pattern boundary traces are geometric
point sets measured from shared macro nodes, so gluing is exact: nodes
are merged by symbolic keys (macro vertex, position along a macro edge,
or quad-local interior id), never by coordinate fuzzing.  ``Mesh`` keeps
its elements as arrays per shape (connectivity, global ids, macro quads
and pattern corners), which every consumer indexes without regrouping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Polygon
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
    "BilinearMap",
    "ElementPlacement",
    "placement_for",
    "element_points",
    "jacobian_points",
    "element_geometry",
    "inverse_2x2",
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
        for qid, quad in enumerate(self.quads):
            if len(quad) != 4 or not all(0 <= i < len(self.nodes) for i in quad):
                raise ValueError(f"quad {qid} {quad} needs 4 node indices below {len(self.nodes)}")
            xy = self.nodes[list(quad)]
            for k in range(4):
                a = xy[(k + 1) % 4] - xy[k]
                b = xy[(k + 2) % 4] - xy[(k + 1) % 4]
                if a[0] * b[1] - a[1] * b[0] <= 0.0:
                    raise ValueError(f"quad {quad} is not convex and counterclockwise")


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
    quad_xy = macro.nodes[np.asarray(macro.quads, dtype=np.int64).reshape(-1, 4)]
    centroids = quad_xy.mean(axis=1)
    edges = polygon.supporting_edges(  # every quad edge k, from corner k to k + 1, at once
        quad_xy.reshape(-1, 2), np.roll(quad_xy, -1, axis=1).reshape(-1, 2),
        np.repeat(centroids, 4, axis=0),
    ).reshape(-1, 4)
    for qid, quad in enumerate(macro.quads):
        xy = quad_xy[qid]
        on_edge = (edges[qid] >= 0).tolist()
        corner_on = [polygon.point_on_boundary(xy[k]) for k in range(4)]
        corner_vertex = [bool(polygon.vertex_candidates(xy[k])) for k in range(4)]
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
    counterclockwise, and rectangles, listed counterclockwise from the
    lower-left corner, keep that corner and reverse the other three.
    Boundary tags swap bottom and left.
    """
    swap = {GAMMA_BOTTOM: GAMMA_LEFT, GAMMA_LEFT: GAMMA_BOTTOM, GAMMA_ORIGIN: GAMMA_ORIGIN}
    conn = {s: c[:, [0, 3, 2, 1]] if s == "r" else c[:, ::-1] for s, c in patch.conn.items()}
    return replace(patch, nodes=patch.nodes[:, ::-1].copy(), conn=conn,
                   gamma=frozenset(swap[g] for g in patch.gamma))


def pattern_for(assignment: PatternAssignment, params: PatchParams) -> PatchMesh:
    if assignment.kind is PatchKind.CORNER and assignment.layers_from_L:
        params = PatchParams(sigma=params.sigma, L=params.L, n=params.L)
    patch = build_pattern(assignment.kind, params)
    return _flip_pattern(patch) if assignment.flip else patch


# reference edge k runs from corner _EDGE_ENDS[k, 0] to corner _EDGE_ENDS[k, 1];
# the stored trace parameter is the raw pattern coordinate, which vanishes at
# the first of them, so both quads sharing a macro edge derive bit-identical keys
_EDGE_ENDS = np.array([[0, 1], [1, 2], [3, 2], [0, 3]])  # bottom, right, top, left


def _merge_keys(nodes: np.ndarray, oriented: np.ndarray, qids: np.ndarray) -> np.ndarray:
    """Merge keys (Q, P, 3) of the P pattern nodes in the quads ``qids``.

    ``oriented`` (Q, 4) holds each quad's macro nodes in pattern corner
    order.  A pattern corner keys as (macro node, same node, 0), a node
    on reference edge k as (lower macro node, higher macro node, bits of
    the trace coordinate measured from the lower one) and an interior
    node as (-1 - quad, local id, 0).  Pattern coordinates are exact (0,
    1, or a power of sigma), so exact float comparison classifies them.
    """
    x, y = nodes[:, 0], nodes[:, 1]
    left, right, bottom, top = x == 0.0, x == 1.0, y == 0.0, y == 1.0
    # 0-3: corner k; 4-7: on reference edge k - 4; 8: interior
    cls = np.select(
        [bottom & left, bottom & right, top & right, top & left, bottom, right, top, left],
        range(8), 8,
    )
    edge = (cls >= 4) & (cls < 8)
    ends = _EDGE_ENDS[np.where(edge, cls - 4, 0)]
    a, b = oriented[:, ends[:, 0]], oriented[:, ends[:, 1]]
    t = np.where((cls == 4) | (cls == 6), x, y)
    t = np.where(a < b, t, 1.0 - t)
    corner = oriented[:, np.minimum(cls, 3)]
    keys = np.zeros(a.shape + (3,), dtype=np.int64)
    keys[..., 0] = np.where(cls < 4, corner, np.where(edge, np.minimum(a, b), -1 - qids[:, None]))
    keys[..., 1] = np.where(cls < 4, corner, np.where(edge, np.maximum(a, b), np.arange(len(x))))
    keys[..., 2] = np.where(edge, t.view(np.int64), 0)
    return keys


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
        s, t = pts[..., 0], pts[..., 1]  # x and y as planes, not as (..., 2) broadcasts
        return np.stack([self.p0[..., k] + s * self.ds[..., k] + t * self.dt[..., k]
                         + (s * t) * self.dst[..., k] for k in range(2)], axis=-1)

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        s, t = pts[..., 0:1], pts[..., 1:2]
        return np.stack([self.ds + t * self.dst, self.dt + s * self.dst], axis=-1)


# corners of the reference square and triangle, counterclockwise from the origin
REF_CORNERS = {"r": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
               "t": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])}


@dataclass
class ElementPlacement:
    """Affine maps x = origin + mat @ xhat from the reference element onto
    pattern elements, stacked over elements; ``inv`` holds the inverse
    matrices."""

    origin: np.ndarray
    mat: np.ndarray
    inv: np.ndarray


def placement_for(shape: str, xy: np.ndarray) -> ElementPlacement:
    """Placements from stacked element corner coordinates (..., corners, 2),
    ordered as ``REF_CORNERS[shape]``."""
    mat = np.zeros(xy.shape[:-2] + (2, 2))
    if shape == "r":
        mat[..., 0, 0] = xy[..., 1, 0] - xy[..., 0, 0]
        mat[..., 1, 1] = xy[..., 3, 1] - xy[..., 0, 1]
    else:
        mat[..., :, 0] = xy[..., 1, :] - xy[..., 0, :]
        mat[..., :, 1] = xy[..., 2, :] - xy[..., 1, :]
    return ElementPlacement(xy[..., 0, :].copy(), mat, inverse_2x2(mat)[1])


def element_points(mesh: Mesh, shape: str, ref_pts: np.ndarray):
    """Placements, bilinear macro maps and pattern points (E, P, 2) of all
    elements of one shape at shared reference points; ``bil(pat)`` gives
    the physical points."""
    place = placement_for(shape, mesh.ref[shape])
    pat = place.origin[:, None, :] + ref_pts @ np.swapaxes(place.mat, 1, 2)
    return place, mesh.quad_map(mesh.macro_id[shape][:, None]), pat


def jacobian_points(mesh: Mesh, shape: str, pat: np.ndarray) -> np.ndarray:
    """Where the macro map Jacobians of one shape's elements, at pattern
    points ``pat`` (E, P, 2), are evaluated: at each element's first point
    (E, 1, 2) when all their macro quads are parallelograms, whose affine
    maps have one Jacobian, else at every point."""
    return pat[:, :1] if mesh.parallelograms[mesh.macro_id[shape]].all() else pat


def element_geometry(mesh: Mesh, shape: str, ref_pts: np.ndarray):
    """Maps of all elements of one shape at shared reference points.

    Reference element -> pattern frame (affine placement) -> physical
    coordinates (bilinear macro quad map), the points from
    ``element_points``.  This is the only place element Jacobians are
    computed.  Returns ``(ids, pat, phys, det, inv_jac)``: element ids
    (E,), pattern and physical points (E, P, 2), Jacobian determinants
    (E, P') and inverse Jacobians (E, P', 2, 2).  P' is 1 when every
    macro quad of the shape is a parallelogram (all built-in layouts):
    each element map is then affine and its one Jacobian, evaluated at
    the first point, equals the per-point ones bit for bit.  Otherwise
    P' = P.
    """
    place, bil, pat = element_points(mesh, shape, ref_pts)
    det, inv = inverse_2x2(bil.jacobian(jacobian_points(mesh, shape, pat)) @ place.mat[:, None])
    return mesh.eid[shape], pat, bil(pat), det, inv


def inverse_2x2(jac: np.ndarray):
    """Determinants (...) and closed-form inverses (..., 2, 2) of stacked 2x2 matrices."""
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    adj = np.stack([jac[..., 1, 1], -jac[..., 0, 1], -jac[..., 1, 0], jac[..., 0, 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = adj.reshape(jac.shape) / det[..., None, None]
    return det, inv


@dataclass
class Mesh:
    """Refined global mesh: merged nodes, per-shape element arrays and
    per-quad pattern data.

    Elements are numbered globally quad by quad, in pattern order within
    a quad.  Per shape s ('r', 't'), ``conn[s]`` (E_s, 4 or 3) holds the
    global nodes of its elements counterclockwise, ``eid[s]`` (E_s,) their
    ascending global ids, ``macro_id[s]`` (E_s,) their macro quads and
    ``ref[s]`` (E_s, 4 or 3, 2) the pattern coordinates of their corners.
    ``oriented`` (Q, 4) lists each macro quad's nodes in pattern corner
    order and ``boundary_facets`` (B, 2) the facets used once, as sorted
    node pairs in lexicographic order.
    """

    polygon: Polygon
    macro: MacroTriangulation
    params: PatchParams
    assignments: list[PatternAssignment]
    nodes: np.ndarray
    conn: dict[str, np.ndarray]
    eid: dict[str, np.ndarray]
    macro_id: dict[str, np.ndarray]
    ref: dict[str, np.ndarray]
    oriented: np.ndarray
    patterns: list[PatchMesh]
    boundary_facets: np.ndarray
    merge_discrepancy: float

    def quad_map(self, qids) -> BilinearMap:
        """Bilinear maps of macro quads ``qids`` (an index or an array of them)."""
        return BilinearMap(self.macro.nodes[self.oriented[qids]])

    @property
    def parallelograms(self) -> np.ndarray:
        """(Q,) True where a macro quad is a parallelogram: its map's
        bilinear term ``dst`` vanishes exactly, so the map is affine."""
        return ~np.any(self.quad_map(np.arange(len(self.oriented))).dst, axis=-1)

    @property
    def elements(self) -> range:
        """The global element ids; per-element data lives in the per-shape arrays."""
        return range(self.element_count())

    def element_count(self) -> int:
        return sum(len(ids) for ids in self.eid.values())

    def node_count(self) -> int:
        return len(self.nodes)


def build_geo_bl_mesh(
    macro: MacroTriangulation,
    polygon: Polygon,
    params: PatchParams,
    assignments: list[PatternAssignment] | None = None,
) -> Mesh:
    """Refine every macro quad by its pattern and glue the pieces.

    Each distinct pattern is built once and transplanted onto all quads
    that carry it at once.  Nodes are merged by symbolic keys
    (``_merge_keys``): matching traces on the two sides of a macro edge
    condense toward the same macro node with the same exact powers of
    sigma, so both sides compute bit-identical keys.  One ``np.unique``
    over the keys of every pattern node copy, in quad order, merges them;
    global nodes are numbered by first copy.  The worst physical-coordinate
    disagreement between merged copies is recorded on the mesh.
    """
    if assignments is None:
        assignments = assign_refinement_patterns(macro, polygon)
    if len(assignments) != len(macro.quads):
        raise ValueError("need exactly one pattern assignment per macro quad")

    quads = np.asarray(macro.quads, dtype=np.int64).reshape(-1, 4)
    rotation = np.array([a.rotation for a in assignments], dtype=np.int64).reshape(-1, 1)
    oriented = np.take_along_axis(quads, (rotation + np.arange(4)) % 4, axis=1)
    groups: dict[tuple, list[int]] = {}  # quads per distinct pattern
    for qid, asn in enumerate(assignments):
        groups.setdefault((asn.kind, asn.flip, asn.layers_from_L), []).append(qid)
    built = {key: pattern_for(assignments[qs[0]], params) for key, qs in groups.items()}
    patterns = [built[(a.kind, a.flip, a.layers_from_L)] for a in assignments]
    sizes = np.array([[len(p.nodes), p.element_count()] for p in patterns], dtype=np.int64)
    node_off, elem_off = (np.cumsum(sizes, axis=0) - sizes).reshape(-1, 2).T

    # every pattern node copy, quad by quad: merge key and physical point;
    # element corners as indices of those copies
    ncopies = int(sizes[:, 0].sum())
    keys, phys = np.empty((ncopies, 3), dtype=np.int64), np.empty((ncopies, 2))
    pieces: dict[str, list] = {s: [] for s in REF_CORNERS}
    for key, qs in groups.items():
        qs, pattern = np.array(qs), built[key]
        at = node_off[qs, None] + np.arange(len(pattern.nodes))
        keys[at] = _merge_keys(pattern.nodes, oriented[qs], qs)
        phys[at] = BilinearMap(macro.nodes[oriented[qs]][:, None])(pattern.nodes)
        for s, lconn in pattern.conn.items():
            n, k = lconn.shape
            corners = np.broadcast_to(pattern.nodes[lconn], (len(qs), n, k, 2))
            pieces[s].append(((elem_off[qs, None] + pattern.eid[s]).ravel(),
                              at[:, lconn].reshape(-1, k), np.repeat(qs, n),
                              corners.reshape(-1, k, 2)))
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    gid = np.empty(len(first), dtype=np.int64)
    gid[by_first] = np.arange(len(first))
    copy_gid = gid[inverse.ravel()]
    nodes = phys[first[by_first]]
    off = phys - nodes[copy_gid]
    disc = float(np.hypot(off[:, 0], off[:, 1]).max(initial=0.0))

    conn, eid, macro_id, ref = {}, {}, {}, {}
    for s, rows in pieces.items():  # into global element order
        e, c, q, r = (np.concatenate(col) for col in zip(*rows))
        order = np.argsort(e)
        eid[s], conn[s], macro_id[s], ref[s] = e[order], copy_gid[c[order]], q[order], r[order]
    mesh = Mesh(polygon, macro, params, assignments, nodes, conn, eid, macro_id, ref, oriented,
                patterns, np.empty((0, 2), dtype=np.int64), disc)
    table = facet_incidence(mesh)
    mesh.boundary_facets = table.pairs[table.count == 1]
    return mesh


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

    # quads share few distinct patterns; the key holds all the check reads
    checked = {}
    for qid, pattern in enumerate(mesh.patterns):
        key = (pattern.nodes.tobytes(),
               *(a.tobytes() for s in pattern.conn for a in (pattern.eid[s], pattern.conn[s])))
        if key not in checked:
            checked[key] = conformity_violations(pattern.nodes, pattern)
        rep.violations.extend(f"quad {qid}: {msg}" for msg in checked[key])

    if mesh.merge_discrepancy > 1e-12:
        rep.violations.append(
            f"merged node coordinates disagree by {mesh.merge_discrepancy:.3e}"
        )

    # one facet table, re-derived from the element arrays rather than
    # trusting the stored marking; once-used facets must tile the polygon
    # edges exactly
    table = facet_incidence(mesh)
    rep.violations.extend(conformity_violations(mesh.nodes, table))
    once = np.flatnonzero(table.count == 1)
    pairs = table.pairs[once]
    stored = np.reshape(mesh.boundary_facets, (-1, 2))
    differ = set(map(tuple, pairs.tolist())) ^ set(map(tuple, stored.tolist()))
    if differ:
        rep.violations.append(
            f"stored boundary marking disagrees with element incidence "
            f"({len(differ)} facets differ)"
        )
    centroid = np.empty((mesh.element_count(), 2))
    for s, ids in mesh.eid.items():
        centroid[ids] = mesh.nodes[mesh.conn[s]].mean(axis=1)
    elem = table.elem[table.first[once]]
    a, b = mesh.nodes[pairs[:, 0]], mesh.nodes[pairs[:, 1]]
    edge = mesh.polygon.supporting_edges(a, b, centroid[elem])
    for (fa, fb), ei in zip(pairs[edge < 0].tolist(), elem[edge < 0].tolist()):
        rep.violations.append(
            f"facet ({fa},{fb}) of element {ei} is exposed but not on the boundary"
        )
    length = np.hypot(*(b - a)[edge >= 0].T)
    edge_len = np.bincount(edge[edge >= 0], weights=length, minlength=mesh.polygon.m)
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


_DIAGONAL_KINDS = (PatchKind.CORNER, PatchKind.TENSOR, PatchKind.MIXED)


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
    quad_xy = mesh.macro.nodes[mesh.oriented]
    for j in range(mesh.polygon.m):
        corner = mesh.polygon.vertices[j]
        omega = mesh.polygon.interior_angle(j)
        shared = len(mesh.polygon.vertex_candidates(corner)) > 1
        ok = False
        # only quads with a corner at the vertex
        near = np.hypot(*np.moveaxis(quad_xy - corner, -1, 0)) <= TOL
        for qid, m in np.argwhere(near).tolist():
            xy = quad_xy[qid]
            if shared and not mesh.polygon.sector_contains(j, xy.mean(axis=0) - corner):
                continue
            for target in lines_at_corner[m]:
                if (m, target) in ((0, 2), (2, 0)):
                    if mesh.assignments[qid].kind not in _DIAGONAL_KINDS:
                        continue  # the diagonal is a mesh line only of these patterns
                    # diagonal tangent at the corner under the bilinear map
                    d = (xy[1] - xy[m]) + (xy[3] - xy[m])
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
