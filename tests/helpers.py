"""Shared test fixtures that are plain functions."""

import math

import numpy as np

from hpbl.geometry import Polygon
from hpbl.macro import (
    REF_CORNERS,
    MacroTriangulation,
    Mesh,
    PatternAssignment,
    build_geo_bl_mesh,
    element_geometry,
)
from hpbl.meshio import _FILL


def pattern_mesh(kind, params):
    """One-quad mesh of the unit square carrying one refinement pattern.

    The macro map is the identity, so pattern coordinates are physical
    ones and the mesh's elements are the pattern's, in the same order.
    """
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    macro = MacroTriangulation(square, [(0, 1, 2, 3)])
    return build_geo_bl_mesh(macro, Polygon(square), params, [PatternAssignment(kind)])


def reference_mesh_svg(obj, width=640):
    """The per-point SVG renderer that ``meshio.mesh_svg`` replaced, kept
    as the reference its output must match byte for byte: outlines in a
    list in storage order, each point mapped and formatted on its own."""
    if isinstance(obj, Mesh):
        rings = [None] * len(obj.elements)
        t = np.linspace(0.0, 1.0, 8, endpoint=False)[:, None]
        for shape, corners in REF_CORNERS.items():
            edges = corners[:, None, :] * (1.0 - t) + np.roll(corners, -1, axis=0)[:, None, :] * t
            ids, _, phys, _, _ = element_geometry(obj, shape, edges.reshape(-1, 2))
            for ei, ring in zip(ids, phys):
                rings[ei] = ring
        kinds = [obj.assignments[el.macro_id].kind.value for el in obj.elements]
    else:
        rings = [obj.nodes[list(el.nodes)] for el in obj.elements]
        kinds = [obj.kind.value] * len(obj.elements)
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
        for a, b in sorted(obj.boundary_facets):
            xa, ya = xy(obj.nodes[a])
            xb, yb = xy(obj.nodes[b])
            out.append(
                f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
                'stroke="#cc2222" stroke-width="1.6"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
