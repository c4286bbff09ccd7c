"""Conformity checks shared by patterns and assembled meshes.

A mesh of straight-edged cells is conforming when every interior facet
is shared by exactly two elements (traversed once in each direction)
and no node lies in the open interior of another element's facet.
Facets are undirected node-index pairs, tabulated as arrays by
``facet_incidence``.  The hanging-node test is geometric and therefore
assumes the supplied node coordinates are exact for the facets (true for
patterns, and for meshes when checked patch by patch in pattern
coordinates); it is a sweep-and-prune over the nodes sorted along each
facet's narrower axis.  Both checks accept a sequence of node-id tuples,
a ``FacetTable``, or a pattern or mesh (``PatchMesh``, ``Mesh``), which
share one element layout: per shape s, ``conn[s]`` (E_s, k) node ids
and ``eid[s]`` (E_s,) element indices.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["FacetTable", "facet_incidence", "hanging_nodes", "conformity_violations"]


@dataclass
class FacetTable:
    """Facets and their uses as arrays.  ``pairs`` (F, 2) are the distinct
    undirected facets (min, max) in lexicographic order, ``count`` (F,)
    their numbers of uses and ``first`` (F,) their first uses.  The uses
    are the element edges in element order, edge k of an element running
    from its node k to node k + 1: ``facet`` (U,) is the pair of each use,
    ``elem`` (U,) its element and ``forward`` (U,) whether it runs from the
    pair's lower node."""

    pairs: np.ndarray
    count: np.ndarray
    first: np.ndarray
    facet: np.ndarray
    elem: np.ndarray
    forward: np.ndarray


def _blocks(elements):
    """(element ids, node ids (E, k)) per block of equal-size elements."""
    if hasattr(elements, "conn"):
        return [(elements.eid[s], conn) for s, conn in elements.conn.items()]
    rows = [tuple(e) for e in elements]
    by_size = defaultdict(list)
    for ei, row in enumerate(rows):
        by_size[len(row)].append(ei)
    return [(np.array(ids, dtype=np.int64), np.array([rows[i] for i in ids], dtype=np.int64))
            for ids in by_size.values()]


def facet_incidence(elements) -> FacetTable:
    """The ``FacetTable`` of an element sequence or of per-shape element arrays."""
    blocks = _blocks(elements) + [(np.empty(0, np.int64), np.empty((0, 1), np.int64))]
    elem = np.concatenate([np.repeat(ids, conn.shape[1]) for ids, conn in blocks])
    order = np.argsort(elem, kind="stable")  # element order, each element's edges in turn
    tail = np.concatenate([conn.ravel() for _, conn in blocks])[order]
    head = np.concatenate([np.roll(conn, -1, axis=1).ravel() for _, conn in blocks])[order]
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    nv = int(hi.max(initial=0)) + 1
    keys, first, facet, count = np.unique(
        lo * nv + hi, return_index=True, return_inverse=True, return_counts=True
    )
    pairs = np.column_stack([keys // nv, keys % nv])
    return FacetTable(pairs, count, first, facet.ravel(), elem[order], tail < head)


_CHUNK = 1 << 20  # candidate pairs built at once, to bound memory on big meshes


def _candidates(nodes, lo, hi):
    """(node, facet) index arrays of the nodes inside each facet's box [lo, hi], in chunks."""
    for k in (0, 1):  # facets swept along their narrower axis k
        order = np.argsort(nodes[:, k], kind="stable")
        f = np.flatnonzero(np.argmin(hi - lo, axis=1) == k)
        start = np.searchsorted(nodes[order, k], lo[f, k], "left")
        count = np.searchsorted(nodes[order, k], hi[f, k], "right") - start
        cuts = np.searchsorted(np.cumsum(count), np.arange(_CHUNK, count.sum(), _CHUNK))
        for i, j in zip([0, *cuts], [*cuts, len(f)]):
            c = count[i:j]
            n = order[np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - start[i:j], c)]
            fi = np.repeat(f[i:j], c)
            keep = (nodes[n, 1 - k] >= lo[fi, 1 - k]) & (nodes[n, 1 - k] <= hi[fi, 1 - k])
            yield n[keep], fi[keep]


def hanging_nodes(nodes: np.ndarray, elements, tol: float = 1e-12) -> list[tuple[int, tuple[int, int]]]:
    """Nodes lying strictly inside some facet, as (node, facet) pairs sorted by (node, facet).

    A pair is accepted when the node is within ``tol * |facet|`` of the
    line and its parameter t along the facet lies in (tol, 1 - tol); the
    facet's end nodes and facets of length zero never take part.  The
    tolerance is relative to each facet's length: geometric patterns
    have facets many orders of magnitude apart in size.

    Only nodes in the facet's bounding box widened by ``tol * |facet|``
    plus 16 epsilons of the largest coordinate are tested.  An accepted
    node is within ``tol * |facet|`` of the computed a + t (b - a), 0 < t
    < 1, which rounds into the box up to a few such epsilons; so the
    result is that of the same test on every node-facet pair.
    """
    nodes = np.asarray(nodes, dtype=float)
    table = elements if isinstance(elements, FacetTable) else facet_incidence(elements)
    facets = table.pairs
    if not len(facets) or not len(nodes):
        return []
    a, b = nodes[facets[:, 0]], nodes[facets[:, 1]]
    ab = b - a
    len2 = np.einsum("fd,fd->f", ab, ab)
    pad = tol * np.sqrt(len2) + 16 * np.finfo(float).eps * np.abs(nodes).max()
    lo = np.minimum(a, b) - pad[:, None]
    hi = np.maximum(a, b) + pad[:, None]
    found = []
    for n, f in _candidates(nodes, lo, hi):
        skip = (n == facets[f, 0]) | (n == facets[f, 1]) | (len2[f] == 0.0)
        n, f = n[~skip], f[~skip]
        t = np.einsum("pd,pd->p", nodes[n] - a[f], ab[f]) / len2[f]
        off = nodes[n] - (a[f] + t[:, None] * ab[f])
        dist = np.hypot(off[:, 0], off[:, 1])
        inside = (dist <= tol * np.sqrt(len2[f])) & (t > tol) & (t < 1.0 - tol)
        found.append(np.stack([n[inside], facets[f[inside], 0], facets[f[inside], 1]], axis=1))
    hits = np.concatenate(found)
    hits = hits[np.lexsort(hits.T[::-1])]
    return [(int(n), (int(fa), int(fb))) for n, fa, fb in hits]


def conformity_violations(nodes: np.ndarray, elements, tol: float = 1e-12) -> list[str]:
    """Human-readable list of conformity defects (empty when conforming).

    Facets used more than twice, or twice in the same direction, are
    reported in the order of their first use, then the hanging nodes.
    """
    table = elements if isinstance(elements, FacetTable) else facet_incidence(elements)
    forward = np.bincount(table.facet[table.forward], minlength=len(table.count))
    bad = np.flatnonzero((table.count > 2) | ((table.count == 2) & (forward != 1)))
    problems = []
    for f in bad[np.argsort(table.first[bad])].tolist():
        facet, n = tuple(table.pairs[f].tolist()), int(table.count[f])
        problems.append(f"facet {facet} shared by {n} elements" if n > 2
                        else f"facet {facet} traversed twice in the same direction")
    for node, facet in hanging_nodes(nodes, table, tol):
        problems.append(f"node {node} hangs on facet {facet}")
    return problems
