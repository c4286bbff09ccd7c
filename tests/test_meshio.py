import hashlib

import numpy as np
import pytest

from hpbl.layouts import builtin_layout
from hpbl.macro import build_geo_bl_mesh
from hpbl.meshio import _outlines, convergence_svg, mesh_svg, mesh_text
from hpbl.patches import PatchKind, PatchParams, build_half_patch, build_pattern

from helpers import element_rows, reference_mesh_svg


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
        ids = np.concatenate([ids for _, ids, _ in per_shape])
        assert len(ids) == mesh.element_count()
        np.testing.assert_array_equal(np.sort(ids), np.arange(mesh.element_count()))
        elements = element_rows(mesh)
        for shape, ids, rings in per_shape:
            for ei, ring in zip(ids, rings):
                el = elements[ei]
                assert el.shape == shape
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


# sha256 of mesh_text and mesh_svg of the `hpbl mesh` meshes (sigma=0.25,
# n=L), as the dict-merge builder and element-object Mesh wrote them
_GOLDEN = {
    ("square", 1): ("36b6a142f9ca8cc6735ba985b15d82e29064be5897e137a090309fa661bb9e67",
                    "6a6609115a7fcfd5c4b5ecfeb890efc4f5c02a0f42295bb154c110d0aaf2f889"),
    ("square", 4): ("05c91983d193f92ccd3be99b43454bf1916ea0a09e8cd6ef0b99361e62c79e7d",
                    "3b4c6b9fd74361c10d06ace123a16b4732ce14ccd281eeaf1abc814f2b8e2f0a"),
    ("square", 8): ("9af0c1340c207fdf5dd0e99e598bde3b7377596df3fe110b187377eef529ea29",
                    "20d196d581633a1149d6ac904280d5c8f2f8f05bb8d59dd5563c2da10460bdc9"),
    ("lshape", 1): ("acecdb2a320d825079d6fe6da1edc1daffeddc0dc311490f43e611bb82f4a45b",
                    "0e1959023c8db543da375fceb5225618114591bc08dac46e56b21f706acd66c9"),
    ("lshape", 4): ("7ff2390e95d07702e7083a54303591749424ce961f56aaa219a34075c8205173",
                    "b07a24d0c189d6520627ee964b456660717f2cc7c1a0ae9aaeaa2fc777dd94d8"),
    ("lshape", 8): ("c764f5856e9bf00f211668ac4faeb0605ff4158c5dd360afb429ab83aab49088",
                    "8aed281c1f871c8f6b278df04ddb650322331446c3aba8dadf538e79d504701f"),
    ("slit", 1): ("2abae27c59af1805580649e14fe7ce0843951d4acba0ba9b02e39925ddbc6acd",
                  "2db50eeea5279f83eb434680d3eae76d96a443346920cc7c9b31a36a160caf03"),
    ("slit", 4): ("d488ec60765d17a5c977e94eb138fe22e764386bb12c3b3824747a3210fab87d",
                  "ddbad2754dc00dc46d114de5aaf99cca241034891f0a1aa1723bda296bc068a8"),
    ("slit", 8): ("c9a948d2846b91c1d1eac9382e73e45689e872ccd5706c048c7b9b3ee6361a3d",
                  "ba0e4aa01e7246e409a715d4eda04c82f6602d9ef843e3f001159e83b9a37600"),
}


@pytest.mark.parametrize("name,L", sorted(_GOLDEN))
def test_mesh_dumps_keep_their_bytes(name, L):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L))
    text, svg = (hashlib.sha256(out.encode()).hexdigest() for out in (mesh_text(mesh), mesh_svg(mesh)))
    assert (text, svg) == _GOLDEN[name, L]
