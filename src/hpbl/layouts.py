"""Built-in computational domains and config-file parsing.

Three domains cover the interesting geometry cases: the unit square
(smooth convex corners only), an L-shape (one re-entrant corner), and a
square with a slit (a tip of full angle 2*pi with duplicated boundary
nodes along the cut).  Custom domains come from JSON configs carrying a
polygon, a macro quad mesh (or a coarse triangulation to be split), and
optional explicit pattern assignments.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import Polygon
from .macro import (
    MacroTriangulation,
    PatternAssignment,
    assign_refinement_patterns,
    macro_from_triangulation,
)
from .patches import PatchKind

__all__ = ["builtin_layout", "layout_names", "from_config", "load_config"]


def _grid_layout(cells, coords, keep, node_key):
    """Tensor-product cells with per-corner node keys (handles slit splits)."""
    pool: dict = {}
    nodes: list[tuple[float, float]] = []

    def nid(gi, gj, cell):
        key = node_key(gi, gj, cell)
        if key not in pool:
            pool[key] = len(nodes)
            nodes.append((coords[gi], coords[gj]))
        return pool[key]

    quads = []
    for i, j in cells:
        if not keep(i, j):
            continue
        cell = (i, j)
        quads.append(
            (
                nid(i, j, cell),
                nid(i + 1, j, cell),
                nid(i + 1, j + 1, cell),
                nid(i, j + 1, cell),
            )
        )
    return MacroTriangulation(np.asarray(nodes, dtype=float), quads)


def _square():
    polygon = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    coords = [0.0, 0.5, 1.0]
    cells = [(i, j) for j in range(2) for i in range(2)]
    macro = _grid_layout(cells, coords, lambda i, j: True, lambda gi, gj, cell: (gi, gj))
    return polygon, macro


def _lshape():
    polygon = Polygon(
        np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, -1.0]]
        )
    )
    coords = [(i - 3) / 3.0 for i in range(7)]
    cells = [(i, j) for j in range(6) for i in range(6)]
    keep = lambda i, j: not (i >= 3 and j <= 2)  # remove the quadrant x>0, y<0
    macro = _grid_layout(cells, coords, keep, lambda gi, gj, cell: (gi, gj))
    return polygon, macro


def _slit():
    # boundary walk visits the slit twice, top side then bottom side
    polygon = Polygon(
        np.array(
            [
                [1.0, 1.0],
                [-1.0, 1.0],
                [-1.0, 0.0],
                [0.0, 0.0],
                [-1.0, 0.0],
                [-1.0, -1.0],
                [1.0, -1.0],
            ]
        )
    )
    coords = [(i - 3) / 3.0 for i in range(7)]
    cells = [(i, j) for j in range(6) for i in range(6)]

    def node_key(gi, gj, cell):
        # nodes on the slit (y = 0, x < 0) exist once per side; the tip is shared
        if gj == 3 and gi < 3:
            side = "top" if cell[1] >= 3 else "bot"
            return (gi, gj, side)
        return (gi, gj)

    macro = _grid_layout(cells, coords, lambda i, j: True, node_key)
    return polygon, macro


_BUILTIN = {"square": _square, "lshape": _lshape, "slit": _slit}


def layout_names() -> list[str]:
    return sorted(_BUILTIN)


def builtin_layout(name: str):
    """Return (polygon, macro) for a named built-in domain."""
    try:
        build = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown domain {name!r}; choose from {layout_names()}") from None
    return build()


def _entries(spec, section: str, *keys):
    """``spec[key]`` for each key of one config section; ValueError naming a missing key."""
    for key in keys:
        if not isinstance(spec, dict) or key not in spec:
            raise ValueError(f'config section {section} has no "{key}" entry')
    return [spec[key] for key in keys]


def from_config(cfg: dict):
    """Build (polygon, macro, assignments) from a parsed config dict.

    Required: "vertices" (counterclockwise polygon walk) and either
    "macro" with explicit "nodes"/"quads" or "triangulation" with
    "points"/"triangles" to be split into quads.  Every quad is
    classified (``assign_refinement_patterns``); an optional
    "assignments" list of {"quad", "kind", "rotation", "flip",
    "layers_from_L"} overrides that for the listed quads.
    """
    if not isinstance(cfg, dict) or "vertices" not in cfg:
        raise ValueError('a layout config must be a JSON object with a "vertices" entry')
    polygon = Polygon(np.asarray(cfg["vertices"], dtype=float))
    if "macro" in cfg:
        nodes, quads = _entries(cfg["macro"], '"macro"', "nodes", "quads")
        macro = MacroTriangulation(
            np.asarray(nodes, dtype=float), [tuple(int(i) for i in q) for q in quads]
        )
    elif "triangulation" in cfg:
        points, triangles = _entries(cfg["triangulation"], '"triangulation"', "points", "triangles")
        macro = macro_from_triangulation(points, triangles, polygon)
    else:
        raise ValueError('config needs a "macro" or "triangulation" section')

    assignments = assign_refinement_patterns(macro, polygon)
    for k, entry in enumerate(cfg.get("assignments", [])):
        qid = int(_entries(entry, f'"assignments" item {k}', "quad")[0])
        if not 0 <= qid < len(assignments):
            raise ValueError(f"assignment names quad {qid} of {len(assignments)} quads")
        base = assignments[qid]
        assignments[qid] = PatternAssignment(
            kind=PatchKind(entry.get("kind", base.kind.value)),  # names an unknown kind
            rotation=int(entry.get("rotation", base.rotation)),
            flip=bool(entry.get("flip", base.flip)),
            layers_from_L=bool(entry.get("layers_from_L", base.layers_from_L)),
        )
    return polygon, macro, assignments


def load_config(path: str):
    with open(path) as fh:
        return from_config(json.load(fh))
