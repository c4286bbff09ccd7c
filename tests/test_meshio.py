import numpy as np
import pytest

from hpbl.layouts import builtin_layout
from hpbl.macro import build_geo_bl_mesh
from hpbl.meshio import _outlines, convergence_svg, mesh_svg, mesh_text
from hpbl.patches import PatchKind, PatchParams, build_half_patch, build_pattern

from helpers import reference_mesh_svg


def test_text_dump_roundtrip_counts():
    poly, macro = builtin_layout("lshape")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
    lines = mesh_text(mesh).splitlines()
    v = [l for l in lines if l.startswith("v ")]
    e = [l for l in lines if l[0] in "tr"]
    assert len(v) == mesh.node_count()
    assert len(e) == mesh.element_count()
    # node coordinates round-trip exactly through repr
    x, y = v[0].split()[1:]
    np.testing.assert_array_equal([float(x), float(y)], mesh.nodes[0])


def test_text_dump_works_for_patterns_too():
    patch = build_pattern(PatchKind.MIXED, PatchParams(sigma=0.5, L=2, n=2))
    lines = mesh_text(patch).splitlines()
    assert sum(1 for l in lines if l.startswith("t ")) == sum(
        1 for e in patch.elements if e.shape == "t"
    )


def test_mesh_svg_polygon_count():
    for name in ("square", "slit"):
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=3))
        svg = mesh_svg(mesh)
        assert svg.count("<polygon") == mesh.element_count()
        assert svg == mesh_svg(mesh)  # identical bytes on rerun


def test_mesh_outlines_start_at_element_corners():
    # every 8th outline sample is a corner, in the element's storage order
    for name in ("lshape", "slit"):
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.3, L=2, n=3))
        per_shape = list(_outlines(mesh))
        ids = np.concatenate([ids for ids, _ in per_shape])
        assert len(ids) == mesh.element_count()
        np.testing.assert_array_equal(np.sort(ids), np.arange(mesh.element_count()))
        for ids, rings in per_shape:
            for ei, ring in zip(ids, rings):
                el = mesh.elements[ei]
                assert len(ring) == 8 * len(el.nodes)
                np.testing.assert_allclose(
                    ring[::8], mesh.nodes[list(el.nodes)], rtol=0, atol=1e-12
                )


def _assert_same_svg(obj, width=640, label=""):
    got, want = mesh_svg(obj, width), reference_mesh_svg(obj, width)
    if got != want:  # name the first differing line; a full diff of megabytes is slow
        pairs = zip(got.splitlines(), want.splitlines())
        i, (a, b) = next((i, ab) for i, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"{label} width={width} line {i}: {a[:120]!r} != {b[:120]!r}")


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_mesh_svg_matches_per_point_renderer(name):
    poly, macro = builtin_layout(name)
    for L in range(1, 5):
        for n in (L, L + 2):
            mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=n))
            _assert_same_svg(mesh, label=(name, L, n))
    _assert_same_svg(mesh, width=317, label=name)


def test_pattern_svg_matches_per_point_renderer():
    params = PatchParams(sigma=0.25, L=2, n=3)
    for kind in PatchKind:
        build = build_half_patch if "half" in kind.value else build_pattern
        patch = build(kind, params)
        _assert_same_svg(patch, label=kind)
        _assert_same_svg(patch, width=317, label=kind)


def test_convergence_svg():
    svg = convergence_svg([("eps=1e-2", [1, 2, 3, 4], [1.0, 0.2, 0.03, 0.004])])
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 4
    with pytest.raises(ValueError):
        convergence_svg([("bad", [1, 2], [1.0, -1.0])])
