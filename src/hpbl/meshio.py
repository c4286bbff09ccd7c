"""Plain-text and SVG output for patterns, meshes, and convergence data.

The text format is line based: one node per line as ``v x y`` followed
by one element per line as ``t i j k`` (triangle) or ``r i j k l``
(rectangle, counterclockwise).  SVG output is deterministic for a given
input: coordinates are printed with fixed precision and elements in
storage order, one ``<polygon>`` per element.  Meshes and patterns share
one outline path, the element's nodes: pattern rectangles are axis-aligned
and a bilinear macro map keeps its iso-lines straight, so only a triangle
diagonal in a non-affine macro quad bends and is sampled.  Outlines come
in groups of equal length, mapped and formatted as arrays per group.
"""

from __future__ import annotations

import math

import numpy as np

from .macro import REF_CORNERS, Mesh, element_points
from .patches import PatchMesh

__all__ = [
    "mesh_text",
    "write_mesh_text",
    "mesh_svg",
    "write_mesh_svg",
    "convergence_svg",
]

_FILL = {
    "trivial": "#f4f4f4",
    "boundary_layer": "#cfe3f7",
    "corner": "#f7d9cf",
    "tensor": "#d6f0d0",
    "mixed": "#f3e6c2",
}
_SAMPLES = 8  # outline points per edge of a bent Mesh element, the first at its corner
_PLOT_WIDTH, _PLOT_HEIGHT = 560, 420  # convergence plot size in pixels


def mesh_text(obj) -> str:
    lines = [f"v {float(p[0])!r} {float(p[1])!r}" for p in np.asarray(obj.nodes)]
    rows = [None] * obj.element_count()
    for shape, ids in obj.eid.items():
        for ei, row in zip(ids.tolist(), obj.conn[shape].tolist()):
            rows[ei] = shape + " " + " ".join(map(str, row))
    return "\n".join(lines + rows) + "\n"


def write_mesh_text(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_text(obj))


def _outlines(obj):
    """Yield ``(ids, qids, rings)`` per group of elements: storage indices
    (E_g,), macro quads (E_g,) (zeros for a PatchMesh) and outlines
    (E_g, k, 2) in physical coordinates, by default the element's nodes.

    Axis-aligned pattern edges lie on straight iso-lines of the bilinear
    macro map and the affine map of a parallelogram (``Mesh.parallelograms``)
    keeps every edge straight, so only an oblique pattern edge in another
    quad bends: elements with one are sampled ``_SAMPLES`` times per edge
    from each corner.
    """
    if not isinstance(obj, Mesh):
        for shape, ids in obj.eid.items():
            yield ids, np.zeros(len(ids), dtype=int), obj.nodes[obj.conn[shape]]
        return
    affine = obj.parallelograms
    t = np.linspace(0.0, 1.0, _SAMPLES, endpoint=False)[:, None]
    for shape, ids in obj.eid.items():
        qids, ref = obj.macro_id[shape], obj.ref[shape]
        bent = ~affine[qids] & np.all(np.roll(ref, -1, axis=1) != ref, axis=-1).any(axis=-1)
        yield ids[~bent], qids[~bent], obj.nodes[obj.conn[shape][~bent]]
        if bent.any():
            corners = REF_CORNERS[shape]
            edges = corners[:, None, :] * (1.0 - t) + np.roll(corners, -1, axis=0)[:, None, :] * t
            _, bil, pat = element_points(obj, shape, edges.reshape(-1, 2))
            yield ids[bent], qids[bent], bil(pat)[bent]


# elements formatted per batch: each holds 2k Python floats per element, and
# 1024-element batches raised the mesh-sweep peak RSS by 2 MB where 64 add 0.2
_BLOCK = 64


def mesh_svg(obj, width: int = 640) -> str:
    """Render a PatchMesh or Mesh; one polygon per element, boundary in red."""
    nodes = np.asarray(obj.nodes)
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 0.04 * span.max()
    lo = lo - margin
    hi = hi + margin
    scale = width / (hi[0] - lo[0])
    height = int(math.ceil((hi[1] - lo[1]) * scale))

    def rows(pts):  # (m, k, 2) physical -> m lists of k (x, y) pairs; svg y grows downward
        svg = np.stack([(pts[..., 0] - lo[0]) * scale, (hi[1] - pts[..., 1]) * scale], axis=-1)
        return svg.reshape(len(pts), -1).tolist()

    mesh = isinstance(obj, Mesh)
    kinds = [a.kind for a in obj.assignments] if mesh else [obj.kind]
    fill_of = [_FILL.get(k.value, "#ffffff") for k in kinds]
    polygons = [None] * obj.element_count()
    for ids, qids, rings in _outlines(obj):
        fills = [fill_of[q] for q in qids.tolist()]
        template = (
            '<polygon points="' + " ".join(["%.3f,%.3f"] * rings.shape[1])
            + '" fill="%s" stroke="#444444" stroke-width="0.6"/>'
        )
        for b in range(0, len(ids), _BLOCK):
            block = zip(ids[b:b + _BLOCK].tolist(), rows(rings[b:b + _BLOCK]), fills[b:b + _BLOCK])
            for ei, row, fill in block:
                row.append(fill)
                polygons[ei] = template % tuple(row)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        *polygons,
    ]
    if mesh:
        facets = obj.boundary_facets
        line = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#cc2222" stroke-width="1.6"/>'
        out.extend(line % tuple(row) for row in rows(nodes[facets]))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_mesh_svg(obj, path: str, width: int = 640) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_svg(obj, width))


def convergence_svg(series) -> str:
    """Semi-log plot of error against p: one polyline per labelled series.

    ``series`` is a list of (label, xs, errors); errors must be positive.
    """
    width, height, pad = _PLOT_WIDTH, _PLOT_HEIGHT, 56
    xs_all = [x for _, xs, _ in series for x in xs]
    es_all = [e for _, _, es in series for e in es]
    if not xs_all:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"><text x="20" y="30">no data</text></svg>\n'
        )
    if min(es_all) <= 0.0:
        raise ValueError("convergence plot needs positive errors")
    x0, x1 = min(xs_all), max(xs_all)
    y0 = math.floor(math.log10(min(es_all)))
    y1 = math.ceil(math.log10(max(es_all)))
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(e):
        t = (math.log10(e) - y0) / (y1 - y0)
        return height - pad - t * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # frame and decade grid lines
    out.append(
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#222222"/>'
    )
    for d in range(y0, y1 + 1):
        y = sy(10.0**d)
        out.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{width - pad}" y2="{y:.2f}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{pad - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">1e{d}</text>'
        )
    for x in sorted(set(xs_all)):
        out.append(
            f'<text x="{sx(x):.2f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="11">{x:g}</text>'
        )
    out.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        'font-size="12">p</text>'
    )
    for k, (label, xs, es) in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(e):.2f}" for x, e in zip(xs, es))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        for x, e in zip(xs, es):
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(e):.2f}" r="2.5" fill="{color}"/>'
            )
        out.append(
            f'<text x="{width - pad + 4}" y="{sy(es[-1]) + 4:.2f}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
