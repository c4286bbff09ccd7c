"""Shared test fixtures that are plain functions."""

import numpy as np

from hpbl.geometry import Polygon
from hpbl.macro import MacroTriangulation, PatternAssignment, build_geo_bl_mesh


def pattern_mesh(kind, params):
    """One-quad mesh of the unit square carrying one refinement pattern.

    The macro map is the identity, so pattern coordinates are physical
    ones and the mesh's elements are the pattern's, in the same order.
    """
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    macro = MacroTriangulation(square, [(0, 1, 2, 3)])
    return build_geo_bl_mesh(macro, Polygon(square), params, [PatternAssignment(kind)])
