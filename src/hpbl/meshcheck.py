"""Conformity checks shared by patterns and assembled meshes.

A mesh of straight-edged cells is conforming when every interior facet
is shared by exactly two elements (traversed once in each direction)
and no node lies in the open interior of another element's facet.
Facets are undirected node-index pairs; the hanging-node test is
geometric and therefore assumes the supplied node coordinates are exact
for the facets (true for patterns, and for meshes when checked patch by
patch in pattern coordinates).  It is a sweep-and-prune over the nodes
sorted along each facet's narrower axis.  Both checks accept an element
sequence or the ``facet_incidence`` table of one.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

__all__ = ["facet_incidence", "hanging_nodes", "conformity_violations"]


def facet_incidence(elements) -> dict[tuple[int, int], list[tuple[int, tuple[int, int]]]]:
    """Map each undirected facet to the (element, directed pair) list."""
    fmap: dict[tuple[int, int], list] = defaultdict(list)
    for ei, e in enumerate(elements):
        ids = e.nodes if hasattr(e, "nodes") else tuple(e)
        m = len(ids)
        for k in range(m):
            a, b = ids[k], ids[(k + 1) % m]
            fmap[(min(a, b), max(a, b))].append((ei, (a, b)))
    return dict(fmap)


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
    table = elements if isinstance(elements, dict) else facet_incidence(elements)
    facets = np.array(list(table), dtype=np.intp)
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
    """Human-readable list of conformity defects (empty when conforming)."""
    problems = []
    incidence = elements if isinstance(elements, dict) else facet_incidence(elements)
    for facet, uses in incidence.items():
        if len(uses) > 2:
            problems.append(f"facet {facet} shared by {len(uses)} elements")
        elif len(uses) == 2 and uses[0][1] == uses[1][1]:
            problems.append(f"facet {facet} traversed twice in the same direction")
    for node, facet in hanging_nodes(nodes, incidence, tol):
        problems.append(f"node {node} hangs on facet {facet}")
    return problems
