"""The sweep-and-prune hanging-node check against the all-pairs scan."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbl import meshcheck
from hpbl.layouts import builtin_layout
from hpbl.macro import build_geo_bl_mesh
from hpbl.meshcheck import hanging_nodes
from hpbl.patches import PatchParams

from helpers import element_rows, facet_uses, pattern_rows


def _all_pairs_hanging_nodes(nodes, elements, tol=1e-12):
    """Reference: every node tested against every facet, in blocks of 256 facets."""
    out = []
    nodes = np.asarray(nodes, dtype=float)
    facets = list(facet_uses(elements))
    if not facets or len(nodes) == 0:
        return out
    fa = np.array([f[0] for f in facets])
    fb = np.array([f[1] for f in facets])
    block = 256
    for lo in range(0, len(facets), block):
        sl = slice(lo, min(lo + block, len(facets)))
        a = nodes[fa[sl]]  # (F, 2)
        ab = nodes[fb[sl]] - a
        len2 = np.einsum("fd,fd->f", ab, ab)
        diff = nodes[:, None, :] - a[None, :, :]  # (N, F, 2)
        t = np.einsum("nfd,fd->nf", diff, ab) / len2
        proj = a[None] + t[..., None] * ab[None]
        off = nodes[:, None, :] - proj
        dist = np.hypot(off[..., 0], off[..., 1])
        inside = (dist <= tol * np.sqrt(len2)[None, :]) & (t > tol) & (t < 1.0 - tol)
        cols = np.arange(sl.stop - sl.start)
        inside[fa[sl], cols] = False
        inside[fb[sl], cols] = False
        for n_idx, f_idx in zip(*np.nonzero(inside)):
            out.append((int(n_idx), facets[lo + f_idx]))
    return out


def _placement(rng, tol):
    """(t along the facet, offset along its normal in units of |facet|)."""
    kind = rng.integers(5)
    if kind == 0:  # facet interior
        return rng.uniform(0.01, 0.99), 0.0
    if kind == 1:  # t just inside or just outside (tol, 1 - tol)
        t = tol * rng.choice([0.5, 2.0])
        return (t if rng.random() < 0.5 else 1.0 - t), 0.0
    if kind == 2:  # off the line, just inside or just outside tol * |facet|
        return rng.uniform(0.01, 0.99), tol * rng.choice([-2.0, -0.5, 0.5, 2.0])
    if kind == 3:  # near an end and off the line
        return tol * rng.choice([1.1, 2.0]), tol * rng.choice([-0.9, 0.9])
    return rng.uniform(0.01, 0.99), rng.uniform(-1e-3, 1e-3)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    sigma=st.floats(0.1, 0.5),
    L=st.integers(1, 12),
    extra=st.integers(0, 3),
    glued=st.booleans(),
    which=st.integers(0, 40),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    chunk=st.sampled_from([7, 500, meshcheck._CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_all_pairs_scan(name, sigma, L, extra, glued, which, tol, chunk, seed):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=sigma, L=L, n=L + extra))
    # the glued mesh, or one pattern in pattern coordinates
    target = mesh if glued else mesh.patterns[which % len(mesh.patterns)]
    nodes = target.nodes.copy()
    elements = element_rows(target) if glued else pattern_rows(target)
    facets = list(facet_uses(elements))
    rng = np.random.default_rng(seed)
    for j in rng.choice(len(facets), size=min(12, len(facets)), replace=False):
        a, b = facets[j]
        k = int(rng.integers(len(nodes)))
        if k not in (a, b):
            ab = nodes[b] - nodes[a]
            t, d = _placement(rng, tol)
            nodes[k] = nodes[a] + t * ab + d * np.array([-ab[1], ab[0]])
    # a small chunk budget splits the candidate pairs across many chunks
    with mock.patch.object(meshcheck, "_CHUNK", chunk):
        got = hanging_nodes(nodes, target, tol)
    # a node moved onto a neighbour makes a facet of length zero: the scan
    # divides by zero there and accepts no pair on it
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _all_pairs_hanging_nodes(nodes, elements, tol)
    assert got == sorted(want)


def test_zero_length_facet_is_skipped():
    # facet (0, 1) has length zero and node 2 sits on it: no pair there and
    # no 0/0 warning, while node 4 still hangs on the two other facets
    nodes = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    assert hanging_nodes(nodes, [(0, 1, 3)]) == [(4, (0, 3)), (4, (1, 3))]
