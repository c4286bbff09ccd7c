import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbl.meshcheck import conformity_violations
from hpbl.patches import (
    PatchKind,
    PatchParams,
    build_pattern,
    sigma_powers,
)

from helpers import patch_metrics, patch_sums, pattern_rows


def _diagonal_edge_cover(patch) -> float:
    """Total length (in x) of element edges lying on the diagonal x = y."""
    spans = set()
    for e in pattern_rows(patch):
        xy = patch.nodes[list(e.nodes)]
        k = len(xy)
        for i in range(k):
            a, b = xy[i], xy[(i + 1) % k]
            if a[0] == a[1] and b[0] == b[1]:
                spans.add((min(a[0], b[0]), max(a[0], b[0])))
    return sum(hi - lo for lo, hi in spans)


def _assert_tiles(patch):
    total = 0.0
    for e in pattern_rows(patch):
        xy = patch.nodes[list(e.nodes)]
        if e.shape == "r":
            total += (xy[1, 0] - xy[0, 0]) * (xy[3, 1] - xy[0, 1])
        else:
            a, b, c = xy
            total += 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    assert abs(total - 1.0) < 1e-12
    assert conformity_violations(patch.nodes, patch) == []


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(PatchKind)),
    sigma=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    counts=st.tuples(st.integers(0, 12), st.integers(0, 12)).map(sorted),
)
def test_full_patterns_conform_and_tile(kind, sigma, counts):
    L, n = counts
    if sigma_powers(sigma, n)[-1] < 2.0**-50:  # finer than double precision: rejected
        with pytest.raises(ValueError, match="2\\^-50"):
            PatchParams(sigma=sigma, L=L, n=n)
        return
    _assert_tiles(build_pattern(kind, PatchParams(sigma=sigma, L=L, n=n)))


def test_sigma_powers_repeated_multiplication():
    powers = sigma_powers(0.25, 4)
    assert powers == [1.0, 0.25, 0.0625, 0.015625, 0.00390625]
    # repeated multiplication, not pow(): bit-identical chains
    p = 1.0
    for k, v in enumerate(sigma_powers(0.1, 6)):
        assert v == p
        p *= 0.1


def test_param_validation():
    with pytest.raises(ValueError):
        PatchParams(sigma=1.2, L=1, n=1)
    with pytest.raises(ValueError):
        PatchParams(sigma=0.25, L=3, n=2)  # corner layers must dominate
    with pytest.raises(ValueError):
        PatchParams(sigma=0.25, L=-1, n=0)


@pytest.mark.parametrize("sigma,n_max", [(0.15, 18), (0.25, 25), (0.5, 50)])
def test_layer_counts_stop_at_double_precision(sigma, n_max):
    PatchParams(sigma=sigma, L=n_max, n=n_max)
    with pytest.raises(ValueError, match=f"sigma\\^n = {sigma}\\^{n_max + 1} is below 2\\^-50"):
        PatchParams(sigma=sigma, L=0, n=n_max + 1)


def test_trivial_patch():
    patch = build_pattern(PatchKind.TRIVIAL, PatchParams(sigma=0.5, L=0, n=0))
    rows = pattern_rows(patch)
    assert len(rows) == 1 and rows[0].shape == "r"
    assert patch.gamma == frozenset()
    (m,) = patch_metrics(patch)
    assert m.h == pytest.approx(np.sqrt(2.0))
    assert m.dist_gamma is None  # no boundary part on a trivial patch
    _assert_tiles(patch)


def test_boundary_layer_metrics():
    patch = build_pattern(PatchKind.BOUNDARY_LAYER, PatchParams(sigma=0.25, L=1, n=1))
    assert patch.gamma == frozenset({"y=0"})
    mets = sorted(patch_metrics(patch), key=lambda m: m.dist_gamma)
    bottom, top = mets
    assert bottom.h_min == 0.25 and bottom.h_max == 1.0 and bottom.dist_gamma == 0.0
    assert top.h_min == 0.75 and top.h_max == 1.0 and top.dist_gamma == 0.25
    _assert_tiles(patch)


def test_boundary_layer_heights_telescope():
    params = PatchParams(sigma=0.25, L=4, n=4)
    patch = build_pattern(PatchKind.BOUNDARY_LAYER, params)
    assert patch.element_count() == 5
    heights = sorted(m.h_min for m in patch_metrics(patch))
    np.testing.assert_allclose(sorted(np.diff([0.0] + sigma_powers(0.25, 4)[::-1])), heights)
    # Sum over rectangles of (h_min/h_max) h_max^delta at delta=1 is the height sum
    sums = patch_sums(patch_metrics(patch), delta=1.0, alpha=1.0, eps=0.5)
    assert sums["rect_sum"] == pytest.approx(1.0, abs=1e-15)
    assert sums["triangle_sum"] == 0.0


def test_corner_patch_rings():
    # innermost square splits into 2 triangles, each ring into 4
    for n in (1, 2, 5):
        patch = build_pattern(PatchKind.CORNER, PatchParams(sigma=0.5, L=0, n=n))
        assert patch.element_count() == 2 + 4 * n
        assert all(e.shape == "t" for e in pattern_rows(patch))
        assert patch.gamma == frozenset({"origin"})
        _assert_tiles(patch)
    # the diagonal stays a meshline: segments of {x=y} between element
    # nodes cover all of [0,1] without being cut by any element interior
    patch = build_pattern(PatchKind.CORNER, PatchParams(sigma=0.5, L=0, n=3))
    assert _diagonal_edge_cover(patch) == pytest.approx(1.0)


def test_tensor_and_mixed_structure():
    params = PatchParams(sigma=0.5, L=2, n=3)
    tensor = build_pattern(PatchKind.TENSOR, params)
    assert tensor.gamma == frozenset({"y=0", "x=0", "origin"})
    _assert_tiles(tensor)

    mixed = build_pattern(PatchKind.MIXED, params)
    assert mixed.gamma == frozenset({"y=0"})
    _assert_tiles(mixed)
    shapes = {e.shape for e in pattern_rows(mixed)}
    assert shapes == {"r", "t"}
    # only the triangles abut the diagonal; rectangles at most touch a corner
    for e in pattern_rows(mixed):
        xy = mixed.nodes[list(e.nodes)]
        ondiag = sum(1 for p in xy if p[0] == p[1])
        if e.shape == "t":
            assert ondiag >= 1
        else:
            assert ondiag <= 1
    assert _diagonal_edge_cover(mixed) == pytest.approx(1.0)


def test_dichotomies_bl():
    # BL patch: a rectangle either touches y=0 or sits at distance
    # sigma/(1-sigma) * h_min from it
    for sigma in (0.1, 0.25, 0.5):
        patch = build_pattern(PatchKind.BOUNDARY_LAYER, PatchParams(sigma=sigma, L=6, n=6))
        for m in patch_metrics(patch):
            if m.touches_gamma:
                assert m.dist_gamma == 0.0
            else:
                ratio = m.dist_gamma / m.h_min
                assert ratio >= sigma / (1 - sigma) - 1e-12


def test_origin_remoteness_bound():
    # dist(K, 0) <= C diam K on every patch (used to trade distance for size)
    for kind in (PatchKind.CORNER, PatchKind.TENSOR, PatchKind.MIXED):
        patch = build_pattern(kind, PatchParams(sigma=0.25, L=3, n=5))
        for m in patch_metrics(patch):
            assert m.dist_origin <= 4.0 * m.h


def test_sums_exclude_origin_triangles():
    # corner patch: every triangle of the innermost square abuts 0 and is
    # excluded from the delta-sum; the remaining rings give a geometric sum
    patch = build_pattern(PatchKind.CORNER, PatchParams(sigma=0.5, L=0, n=8))
    mets = patch_metrics(patch)
    sums = patch_sums(mets, delta=1.0, alpha=1.0, eps=1.0)
    by_hand = sum(m.h for m in mets if not m.touches_origin)
    assert sums["triangle_sum"] == pytest.approx(by_hand)
    assert sums["rect_sum"] == 0.0


def test_sums_uniformly_bounded_quick():
    # small version of the acceptance sweep: refining must not grow the sums
    sigma = 0.25
    coarse = []
    fine = []
    for L, n in ((1, 1), (2, 3), (4, 6), (8, 12)):
        patch = build_pattern(PatchKind.MIXED, PatchParams(sigma=sigma, L=L, n=n))
        rec = patch_sums(patch_metrics(patch), delta=1.0, alpha=1.0, eps=sigma**L)
        (coarse if L <= 2 else fine).append(max(rec.values()))
    assert max(fine) <= 2.0 * max(coarse)


def test_determinism():
    params = PatchParams(sigma=0.1, L=3, n=4)
    a = build_pattern(PatchKind.TENSOR, params)
    b = build_pattern(PatchKind.TENSOR, params)
    assert np.array_equal(a.nodes, b.nodes)
    assert pattern_rows(a) == pattern_rows(b)


def test_built_pattern_is_frozen():
    patch = build_pattern(PatchKind.TENSOR, PatchParams(sigma=0.25, L=2, n=3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        patch.nodes = patch.nodes[::-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        patch.cache = {}  # nor can anything be stored on it later


def test_batch_metrics_match_scalar_reference():
    # patch_metrics computes everything in grouped numpy; element_metrics
    # is the one-element-at-a-time version it must agree with
    from helpers import element_metrics

    for kind in (PatchKind.TENSOR, PatchKind.MIXED):
        patch = build_pattern(kind, PatchParams(sigma=0.3, L=2, n=4))
        for e, got in zip(pattern_rows(patch), patch_metrics(patch)):
            ref = element_metrics(patch, e)
            assert got.shape == ref.shape
            assert got.touches_gamma == ref.touches_gamma
            assert got.touches_origin == ref.touches_origin
            for attr in ("h", "h_min", "h_max", "dist_origin", "dist_gamma"):
                a, b = getattr(ref, attr), getattr(got, attr)
                if a is None:
                    assert b is None
                else:
                    assert b == pytest.approx(a, abs=1e-15)
