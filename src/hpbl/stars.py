"""The blocks of the skeleton CG's vertex-star preconditioner, by class.

A mesh node's star holds its free skeleton dofs: its own, then those of
the facets ending at it.  The preconditioner is overlapping additive
Schwarz on these stars (Pavarino, Numer. Math. 66, 1994; Schoeberl,
Melenk, Pechstein & Zaglmayr, IMA J. Numer. Anal. 28, 2008), which keeps
the iteration count nearly flat in p.  A star's block of the skeleton
matrix is the sum, over the element corners at its node, of the
element's Schur complement on the corner's dofs, and the elements repeat
by class.  So ``layout`` records where each element corner's dofs sit
in its star (it depends on the mesh and q only), ``classes`` sorts the
stars into classes of equal blocks, keyed by integers from the element
classes and that layout, and ``blocks`` sums one block per star class
from the class Schur complements and star classes of a ``LinearSystem``:
the matrix is never indexed, and only the distinct blocks are inverted.

``fem`` imports this module with the first ``DofMap``, so commands that
build none do not load it.
"""

from __future__ import annotations

import numpy as np

from .fem import _basis_for, _ranges, _split

__all__ = ["layout", "classes", "blocks"]


def _corners(shape: str, q: int) -> np.ndarray:
    """Per corner k of a shape, the positions in the interface ids of
    ``_split`` of its node and of the interior dofs of edges k and k - 1,
    which end at it: (corners, 2q - 1)."""
    basis = _basis_for(shape, q)
    edge = [e[1:-1] for e in basis.edge_ids]
    local = [np.concatenate([[c], edge[k], edge[k - 1]]) for k, c in enumerate(basis.corner_ids)]
    return np.searchsorted(_split(shape, q)[1], local)


def layout(dofmap, pairs: np.ndarray):
    """The stars of a ``DofMap`` with facets ``pairs`` and where each
    element corner lies in them.

    Returns ``stars``, per star size s the (stars, s) free skeleton
    indices (int32), and ``corners``, per shape (E, corners, 6): the
    corner's star (numbered size by size; -1 if it holds none of the
    corner's dofs), the node dof's position in it, then for edge k, which
    starts at the corner, and edge k - 1, which ends there, the position
    of the edge's first dof in element order and the step to the next;
    -1, with step 0, where constrained.
    """
    q, nv, nf = dofmap.q, len(dofmap.mesh.nodes), len(pairs)
    # star entries: each node's dof, then each facet's dofs for its lower and its upper node
    owner = np.concatenate([np.arange(nv), np.repeat(pairs.T.ravel(), q - 1)])
    dof = dofmap.free_index[np.r_[:nv, nv : dofmap.nskeleton, nv : dofmap.nskeleton]]
    free = np.flatnonzero(dof >= 0)
    order = free[np.argsort(owner[free], kind="stable")]  # node by node, own dof first
    size = np.bincount(owner[free], minlength=nv)
    start = np.cumsum(size) - size
    pos = np.full(len(owner) + 1, -1)  # each entry's position in its star; -1 past the end
    pos[order] = np.arange(len(order)) - start[owner[order]]
    by_size = np.argsort(size, kind="stable")[np.count_nonzero(size == 0) :]
    sid = np.full(nv, -1)
    sid[by_size] = np.arange(len(by_size))
    dof = dof[order].astype(np.int32)  # int32 holds every index
    stars = {int(s): dof[start[size == s][:, None] + np.arange(s)] for s in np.unique(size[by_size])}

    corners = {}
    for shape, t in dofmap.mesh.conn.items():
        # edge k's facet, and whether it runs from the facet's lower node, as its dofs do
        f = (dofmap.dofs[shape][:, [e[1] for e in _basis_for(shape, q).edge_ids]] - nv) // max(q - 1, 1)
        fwd = t < np.roll(t, -1, axis=1)
        place = np.empty(t.shape + (6,), dtype=np.int32)
        place[..., 1] = pos[t]
        for col, end, roll in ((2, ~fwd, 0), (4, fwd, 1)):  # edge k at its start, k - 1 at its end
            a = pos[nv + (end * nf + f) * (q - 1)]
            place[..., col] = np.roll(np.where(a >= 0, a + (q - 2) * ~fwd, -1), roll, axis=1)
            place[..., col + 1] = np.roll(np.where(a >= 0, 2 * fwd - 1, 0), roll, axis=1)
        free = (place[..., 1] == 0) | (place[..., 2] >= 0) | (place[..., 4] >= 0)
        place[..., 0] = np.where(free, sid[t], -1)
        corners[shape] = place
    return stars, corners


def classes(dofmap, cls: dict):
    """The stars of a ``DofMap`` in classes of equal blocks, for elements
    of the classes ``cls`` (per shape, each element's class).

    Each contribution, an element corner, is keyed by one integer packed
    from (element class, shape, corner, layout columns); stars of one size
    with equal sorted keys form a class.  Returns per star size (indices,
    each star's class, number of classes), each class's size, and per
    shape the contributions of each class's first star: (class, element
    class, corner, layout columns).
    """
    stars, corners = dofmap.stars, dofmap.corners
    radix = (2, 2 + max(stars, default=0), 3, 2 + max(stars, default=0), 3)
    star, key = [], []
    for i, (shape, place) in enumerate(corners.items()):
        k = (2 * cls[shape][:, None] + i) * 4 + np.arange(place.shape[1])  # well inside int64
        for r, col in zip(radix, np.moveaxis(place[..., 1:], 2, 0)):
            k = k * r + col + 1
        star.append(place[..., 0].ravel())
        key.append(k.ravel())
    star, key = np.concatenate(star), np.concatenate(key)
    at = np.flatnonzero(star >= 0)
    at = at[np.argsort(star[at], kind="stable")]  # the contributions star by star
    count = np.bincount(star[at], minlength=sum(map(len, stars.values())))
    start = np.cumsum(count) - count
    table = np.full((len(count), 1 + count.max(initial=0)), -1)  # each star's size, sorted keys
    table[:, 0] = np.repeat(list(stars), [len(D) for D in stars.values()])
    table[star[at], 1 + np.arange(len(at)) - start[star[at]]] = key[at]
    table[:, 1:].sort(axis=1)
    order = np.lexsort(table.T[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(table[order[1:]] != table[order[:-1]], axis=1)
    which = np.empty(len(order), dtype=np.int32)
    which[order] = np.cumsum(new) - 1
    first = order[new]  # each class's first star, classes size by size

    groups, lo = [], 0
    for D in stars.values():
        w = which[lo : lo + len(D)]
        groups.append((D, w - w.min(), int(np.ptp(w)) + 1))
        lo += len(D)
    rep = at[_ranges(start[first], count[first])].astype(np.int32)
    star_class = np.repeat(np.arange(len(first), dtype=np.int32), count[first])
    parts, lo = {}, 0
    for shape, place in corners.items():
        e, k = np.divmod(rep - lo, place.shape[1])
        mine = (e >= 0) & (e < len(place))
        e, k = e[mine], k[mine]
        parts[shape] = star_class[mine], cls[shape][e].astype(np.int32), k, place[e, k, 1:]
        lo += place.shape[0] * place.shape[1]
    return groups, table[first, 0], parts


def blocks(system) -> list:
    """``solve_cg``'s stars for a ``LinearSystem``: per star size the stars'
    indices, one block per star class (the system's ``stars``), summed
    from the class Schur complements, and each star's class."""
    q, schur = system.dofmap.q, system.classes
    groups, size, parts = system.stars
    offset = np.cumsum(size * size) - size * size  # of each class's block in ``flat``
    flat = np.zeros(int(np.sum(size * size)) + 1)  # constrained entries go to the last
    j = np.arange(q - 1)
    for shape, (c, ec, k, place) in parts.items():  # positions from the layout columns
        pos = np.concatenate([place[:, :1], place[:, 1:2] + place[:, 2:3] * j,
                              place[:, 3:4] + place[:, 4:5] * j], axis=1)
        S, local = schur[shape][1], _corners(shape, q)[k]
        src = (ec[:, None, None] * S.shape[1] + local[..., None]) * S.shape[1] + local[:, None]
        dst = offset[c][:, None, None] + pos[..., None] * size[c][:, None, None] + pos[:, None]
        dst = np.where((pos[..., None] >= 0) & (pos[:, None] >= 0), dst, len(flat) - 1)
        flat += np.bincount(dst.ravel(), weights=S.ravel()[src.ravel()], minlength=len(flat))
    split = np.split(flat, np.cumsum([n * D.shape[1] ** 2 for D, _, n in groups]))
    return [(D, S.reshape(n, D.shape[1], D.shape[1]), which) for (D, which, n), S in zip(groups, split)]
