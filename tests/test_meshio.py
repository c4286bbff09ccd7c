import numpy as np
import pytest

from hpbl.layouts import builtin_layout
from hpbl.macro import build_geo_bl_mesh
from hpbl.meshio import _outlines, convergence_svg, mesh_svg, mesh_text
from hpbl.patches import PatchKind, PatchParams, build_pattern


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
        rings = _outlines(mesh)
        assert len(rings) == mesh.element_count()
        for el, ring in zip(mesh.elements, rings):
            assert len(ring) == 8 * len(el.nodes)
            np.testing.assert_allclose(ring[::8], mesh.nodes[list(el.nodes)], rtol=0, atol=1e-12)


def test_convergence_svg():
    svg = convergence_svg([("eps=1e-2", [1, 2, 3, 4], [1.0, 0.2, 0.03, 0.004])])
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 4
    with pytest.raises(ValueError):
        convergence_svg([("bad", [1, 2], [1.0, -1.0])])
