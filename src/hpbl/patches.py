"""Catalog of geometric refinement patterns on the reference square.

Every macro element of a boundary-layer mesh is the image of the unit
square S = (0,1)^2 carrying one of five refinement patterns, chosen by
how the macro element touches the domain boundary:

* ``TRIVIAL``        -- no refinement, the square itself;
* ``BOUNDARY_LAYER`` -- L geometric strips condensing toward y = 0;
* ``CORNER``         -- n rings of triangles condensing toward (0,0);
* ``TENSOR``         -- geometric tensor grid toward x = 0 and y = 0,
  with the innermost cell triangulated like a scaled corner pattern;
* ``MIXED``          -- geometric strips toward y = 0 that terminate on
  the diagonal, with a scaled corner pattern at the origin (used when
  only one of the two edges at a corner lies on the boundary).

The part of the closure of S that is mapped onto the domain boundary is
recorded per pattern (attribute ``gamma``): the bottom edge, the left
edge and/or the origin.

All geometric-scale coordinates are powers of the grading factor sigma,
computed by repeated multiplication so that identical parameters give
bit-identical patterns and shared traces merge exactly.

A pattern keeps its elements in the layout of the glued ``macro.Mesh``:
per shape s ('r', 't'), ``conn[s]`` (E_s, 4 or 3) node ids and ``eid[s]``
(E_s,) element indices in pattern order.  The builders emit (shape, node
ids) rows, which ``build_pattern`` turns into these arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchKind",
    "PatchParams",
    "PatchMesh",
    "build_pattern",
    "sigma_powers",
]

# components of the boundary-image set gamma
GAMMA_BOTTOM = "y=0"
GAMMA_LEFT = "x=0"
GAMMA_ORIGIN = "origin"


class PatchKind(enum.Enum):
    TRIVIAL = "trivial"
    BOUNDARY_LAYER = "boundary_layer"
    CORNER = "corner"
    TENSOR = "tensor"
    MIXED = "mixed"


_GAMMA = {
    PatchKind.TRIVIAL: frozenset(),
    PatchKind.BOUNDARY_LAYER: frozenset({GAMMA_BOTTOM}),
    PatchKind.CORNER: frozenset({GAMMA_ORIGIN}),
    PatchKind.TENSOR: frozenset({GAMMA_BOTTOM, GAMMA_LEFT, GAMMA_ORIGIN}),
    PatchKind.MIXED: frozenset({GAMMA_BOTTOM}),
}


@dataclass(frozen=True)
class PatchParams:
    """Grading factor and layer counts of a refinement pattern.

    ``L`` is the number of boundary-layer scales, ``n >= L`` the number
    of corner scales, and ``sigma**n >= 2**-50``.  Kinds that do not use
    a count ignore it.
    """

    sigma: float = 0.5
    L: int = 0
    n: int = 0

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"grading factor must lie in (0,1), got {self.sigma}")
        if not (isinstance(self.L, int) and isinstance(self.n, int)):
            raise ValueError("layer counts L, n must be integers")
        if self.L < 0 or self.n < 0:
            raise ValueError(f"layer counts must be >= 0, got L={self.L}, n={self.n}")
        if self.n < self.L:
            raise ValueError(f"need n >= L, got L={self.L}, n={self.n}")
        finest = 1.0  # sigma^n as sigma_powers forms it, stopping once too fine for any n
        for _ in range(self.n):
            finest *= self.sigma
            if finest < 2.0**-50:  # finer layers merge nodes
                raise ValueError(
                    f"sigma^n = {self.sigma}^{self.n} is below 2^-50, the finest layer double "
                    "precision resolves; lower n or raise sigma"
                )


def sigma_powers(sigma: float, k: int) -> list[float]:
    """[sigma^0, sigma^1, ..., sigma^k] by repeated multiplication."""
    out = [1.0]
    for _ in range(k):
        out.append(out[-1] * sigma)
    return out


@dataclass(frozen=True)
class PatchMesh:
    """A refinement pattern: nodes in the unit square and per-shape element
    arrays laid out as in ``macro.Mesh``.

    Per shape s ('r', 't'), ``conn[s]`` (E_s, 4 or 3) holds the nodes of
    its elements counterclockwise, rectangles from the lower-left corner,
    and ``eid[s]`` (E_s,) their ascending element indices in pattern order.
    A built pattern is frozen: no attribute is reassigned or added later.
    """

    kind: PatchKind
    params: PatchParams
    nodes: np.ndarray  # (nnodes, 2)
    conn: dict[str, np.ndarray]
    eid: dict[str, np.ndarray]
    gamma: frozenset[str]

    def element_count(self) -> int:
        return sum(len(ids) for ids in self.eid.values())


class _NodePool:
    """Deduplicates nodes by exact coordinate equality, insertion-ordered."""

    def __init__(self):
        self._index: dict[tuple[float, float], int] = {}

    def add(self, x: float, y: float) -> int:
        key = (x, y)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._index)
            self._index[key] = idx
        return idx

    def array(self) -> np.ndarray:
        if not self._index:
            return np.empty((0, 2))
        return np.array(list(self._index.keys()), dtype=float)


def _emit_rect(pool, elements, x0, x1, y0, y1):
    elements.append(("r", (pool.add(x0, y0), pool.add(x1, y0), pool.add(x1, y1), pool.add(x0, y1))))


def _emit_tri(pool, elements, a, b, c):
    elements.append(("t", (pool.add(*a), pool.add(*b), pool.add(*c))))


def _corner_rings(pool, elements, levels):
    """Triangulate the square (0, levels[-1])^2 graded toward the origin.

    ``levels`` is an increasing list of scales; the innermost square
    (0, levels[0])^2 is split by the diagonal, and each ring between
    consecutive scales s < t is split into four triangles, two on each
    side of the diagonal.  The diagonal itself is always a mesh line.
    """
    s = levels[0]
    _emit_tri(pool, elements, (0.0, 0.0), (s, 0.0), (s, s))
    _emit_tri(pool, elements, (0.0, 0.0), (s, s), (0.0, s))
    for i in range(len(levels) - 1):
        s, t = levels[i], levels[i + 1]
        _emit_tri(pool, elements, (s, 0.0), (t, 0.0), (t, t))
        _emit_tri(pool, elements, (s, 0.0), (t, t), (s, s))
        _emit_tri(pool, elements, (0.0, s), (s, s), (t, t))
        _emit_tri(pool, elements, (0.0, s), (t, t), (0.0, t))


def _build_boundary_layer(pool, elements, params):
    pw = sigma_powers(params.sigma, params.L)
    ys = [0.0] + pw[::-1]  # 0, sigma^L, ..., sigma, 1
    for y0, y1 in zip(ys[:-1], ys[1:]):
        _emit_rect(pool, elements, 0.0, 1.0, y0, y1)


def _build_corner(pool, elements, params):
    pw = sigma_powers(params.sigma, params.n)
    _corner_rings(pool, elements, pw[::-1])


def _build_tensor(pool, elements, params):
    sigma, big_l, n = params.sigma, params.L, params.n
    pw = sigma_powers(sigma, n)
    grid = [0.0] + pw[big_l::-1]  # 0, sigma^L, ..., 1
    for j in range(len(grid) - 1):
        for i in range(len(grid) - 1):
            if i == 0 and j == 0:
                continue  # innermost cell is triangulated below
            _emit_rect(pool, elements, grid[i], grid[i + 1], grid[j], grid[j + 1])
    _corner_rings(pool, elements, pw[n:big_l - 1 if big_l > 0 else None:-1])


def _build_mixed(pool, elements, params):
    sigma, big_l, n = params.sigma, params.L, params.n
    pw = sigma_powers(sigma, n)
    # corner pattern in (0, sigma^L)^2
    _corner_rings(pool, elements, pw[n:big_l - 1 if big_l > 0 else None:-1])
    # columns of strips under the diagonal, one triangle closing each column
    for i in range(big_l):
        s, t = pw[i + 1], pw[i]
        levels = [0.0] + pw[big_l:i:-1]  # 0, sigma^L, ..., sigma^{i+1}
        for y0, y1 in zip(levels[:-1], levels[1:]):
            _emit_rect(pool, elements, s, t, y0, y1)
        _emit_tri(pool, elements, (s, s), (t, s), (t, t))
    # fans above the diagonal
    for i in range(big_l):
        s, t = pw[i + 1], pw[i]
        _emit_tri(pool, elements, (0.0, s), (s, s), (t, t))
        _emit_tri(pool, elements, (0.0, s), (t, t), (0.0, t))


_BUILDERS = {
    PatchKind.TRIVIAL: lambda pool, elements, params: _emit_rect(
        pool, elements, 0.0, 1.0, 0.0, 1.0
    ),
    PatchKind.BOUNDARY_LAYER: _build_boundary_layer,
    PatchKind.CORNER: _build_corner,
    PatchKind.TENSOR: _build_tensor,
    PatchKind.MIXED: _build_mixed,
}


def build_pattern(kind: PatchKind, params: PatchParams) -> PatchMesh:
    """Construct the refinement pattern ``kind`` on the unit square."""
    pool = _NodePool()
    rows: list[tuple[str, tuple[int, ...]]] = []
    _BUILDERS[kind](pool, rows, params)
    conn, eid = {}, {}
    for shape, k in (("r", 4), ("t", 3)):
        ids = [i for i, (s, _) in enumerate(rows) if s == shape]
        eid[shape] = np.array(ids, dtype=np.int64)
        conn[shape] = np.array([rows[i][1] for i in ids], dtype=np.int64).reshape(len(ids), k)
    return PatchMesh(kind, params, pool.array(), conn, eid, _GAMMA[kind])
