"""Polygonal domains described by their boundary walk.

A polygon is stored as the counterclockwise walk of its boundary; the
interior always lies to the left of each directed edge.  Slit domains
are supported by letting the walk traverse geometrically coincident
edges twice (once per side) and repeat vertex coordinates; the two
sides are distinguished by which side of the directed edge the interior
lies on, never by coordinates alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Polygon"]

TOL = 1e-12


def _angle_mod(phi: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    out = math.fmod(phi, 2.0 * math.pi)
    return out + 2.0 * math.pi if out < 0.0 else out


@dataclass
class Polygon:
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 or len(self.vertices) < 3:
            raise ValueError("polygon needs an (m, 2) array of at least 3 vertices")
        repeats = np.all(self.vertices == np.roll(self.vertices, 1, axis=0), axis=1)
        if repeats.any():
            j = int(np.argmax(repeats))
            raise ValueError(f"polygon vertex {j} repeats vertex {(j - 1) % self.m}: "
                             "a zero-length edge")
        if self.area() <= 0.0:
            raise ValueError("polygon boundary walk must be counterclockwise")

    @property
    def m(self) -> int:
        return len(self.vertices)

    def edge(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices[j], self.vertices[(j + 1) % self.m]

    def area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def outgoing_angle(self, j: int) -> float:
        a, b = self.edge(j)
        return math.atan2(b[1] - a[1], b[0] - a[0])

    def interior_angle(self, j: int) -> float:
        """Angle swept inside the domain at vertex j, in (0, 2*pi].

        A slit tip (incoming and outgoing edges geometrically coincident)
        has interior angle exactly 2*pi.
        """
        u = self.vertices[(j + 1) % self.m] - self.vertices[j]
        w = self.vertices[j - 1] - self.vertices[j]
        ang = math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1])
        ang = _angle_mod(ang)
        return 2.0 * math.pi if ang == 0.0 else ang

    def sector_offset(self, j: int, direction: np.ndarray) -> float:
        """CCW angle from the outgoing boundary edge at vertex j to ``direction``."""
        return _angle_mod(math.atan2(direction[1], direction[0]) - self.outgoing_angle(j))

    def sector_contains(self, j: int, direction: np.ndarray, slack: float = 1e-9) -> bool:
        phi = self.sector_offset(j, direction)
        return slack < phi < self.interior_angle(j) - slack

    def vertex_candidates(self, p, tol: float = TOL) -> list[int]:
        p = np.asarray(p, dtype=float)
        d = np.hypot(*(self.vertices - p).T)
        return [int(j) for j in np.nonzero(d <= tol)[0]]

    def _edge_terms(self, p):
        """Per point p (..., 2) and boundary edge j, (..., m) each: the cross
        product d_j x (p - v_j), positive right of the directed edge, and the
        parameter of p's projection onto the edge; and the edge lengths (m,)."""
        rel = np.asarray(p, dtype=float)[..., None, :] - self.vertices
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        length = np.hypot(d[:, 0], d[:, 1])
        cross = rel[..., 0] * d[:, 1] - rel[..., 1] * d[:, 0]
        along = (rel[..., 0] * d[:, 0] + rel[..., 1] * d[:, 1]) / (length * length)
        return cross, along, length

    def _on_edges(self, p, tol: float) -> np.ndarray:
        """(..., m): whether each point p (..., 2) lies on each boundary edge."""
        cross, along, length = self._edge_terms(p)
        return ((np.abs(cross) / length <= tol * np.maximum(1.0, length))
                & (along >= -tol) & (along <= 1.0 + tol))

    def point_on_boundary(self, p, tol: float = TOL) -> np.ndarray:
        """(...,): whether each point p (..., 2) lies on the boundary."""
        return self._on_edges(p, tol).any(axis=-1)

    def supporting_edges(self, a, b, interior_pt, tol: float = TOL) -> np.ndarray:
        """Boundary edges (S,) containing the segments [a, b] (S, 2) with the
        correct side, the first such edge, or -1 where there is none.

        ``interior_pt`` (S, 2) must be a point inside the element claiming
        each segment; it disambiguates the two coincident sides of a slit.
        """
        hold = self._on_edges(a, tol) & self._on_edges(b, tol)
        hold &= self._edge_terms(interior_pt)[0] < 0.0  # interior point strictly left of the edge
        return np.where(hold.any(axis=1), hold.argmax(axis=1), -1)
