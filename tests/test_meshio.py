import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpbl.layouts import builtin_layout
from hpbl.macro import build_geo_bl_mesh, validate_mesh
from hpbl.meshio import _outlines, convergence_svg, mesh_svg, mesh_text
from hpbl.patches import PatchKind, PatchParams, build_pattern

from helpers import element_rows, fan_macro, nonaffine_meshes, reference_mesh_svg


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
    assert sum(1 for l in lines if l.startswith("t ")) == len(patch.eid["t"])


def test_mesh_svg_polygon_count():
    for name in ("square", "slit"):
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=3))
        svg = mesh_svg(mesh)
        assert svg.count("<polygon") == mesh.element_count()
        assert svg == mesh_svg(mesh)  # identical bytes on rerun


def _bends(mesh, shape):
    """Per element of one shape: does an edge bend?  It does when its
    macro quad is not a parallelogram and the edge is oblique in the
    pattern frame."""
    c = mesh.macro.nodes[mesh.oriented[mesh.macro_id[shape]]]
    parallelogram = np.all(c[:, 0] + c[:, 2] == c[:, 1] + c[:, 3], axis=-1)
    ref = mesh.ref[shape]
    d = np.roll(ref, -1, axis=1) - ref
    return ~parallelogram & np.any((d[..., 0] != 0) & (d[..., 1] != 0), axis=-1)


def test_mesh_outlines_start_at_element_corners():
    # a straight outline is the element's nodes; a bent one has 8 samples
    # per edge, every 8th a corner, in the element's storage order
    layouts = [builtin_layout(name) for name in ("lshape", "slit")]
    meshes = [build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.3, L=2, n=3))
              for poly, macro in layouts]
    bent_total = 0
    for mesh in meshes + list(nonaffine_meshes()):
        groups = list(_outlines(mesh))
        ids = np.concatenate([ids for ids, _, _ in groups])
        np.testing.assert_array_equal(np.sort(ids), np.arange(mesh.element_count()))
        bends = {}
        for s in mesh.eid:
            bends.update(zip(mesh.eid[s].tolist(), _bends(mesh, s).tolist()))
        elements = element_rows(mesh)
        for ids, qids, rings in groups:
            for ei, qid, ring in zip(ids, qids, rings):
                el = elements[ei]
                corners = mesh.nodes[list(el.nodes)]
                assert qid == el.macro_id
                if bends[ei]:
                    bent_total += 1
                    assert len(ring) == 8 * len(el.nodes)
                    np.testing.assert_allclose(ring[::8], corners, rtol=0, atol=1e-12)
                else:
                    assert len(ring) == len(el.nodes)
                    np.testing.assert_array_equal(ring, corners)
    assert bent_total > 0


def _rings(line):
    """The points of one ``<polygon>`` line as a (k, 2) array."""
    pts = line.split('"', 2)[1]
    return np.array([xy.split(",") for xy in pts.split()], dtype=float)


def _seg_dist(p, a, b):
    """Distances of points p (k, 2) to the segments [a, b] (k, 2)."""
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=1) / np.maximum(np.sum(ab * ab, axis=1), 1e-300), 0, 1)
    return np.hypot(*(a + t[:, None] * ab - p).T)


_PX = 0.002  # two formatting roundings of 0.0005 px per coordinate, with room


def _assert_same_picture(obj, width=640, label=""):
    """``mesh_svg`` against the per-point reference renderer, which samples
    every Mesh edge 8 times.  Sampled polygons and every other line match
    byte for byte.  A straight polygon's vertices match the reference's
    every 8th point, and every reference point lies on its edges, both
    within ``_PX`` pixels.  Returns the counts of polygons drawn straight
    and of polygons that match byte for byte (the sampled ones)."""
    got, want = mesh_svg(obj, width).splitlines(), reference_mesh_svg(obj, width).splitlines()
    assert len(got) == len(want), label
    counts = [0, 0]
    for i, (a, b) in enumerate(zip(got, want)):
        where = f"{label} width={width} line {i}"
        if not a.startswith("<polygon") or a == b:
            assert a == b, f"{where}: {a[:120]!r} != {b[:120]!r}"
            counts[1] += a.startswith("<polygon")
            continue
        assert a.split('"', 2)[2] == b.split('"', 2)[2], where
        xy, ref = _rings(a), _rings(b)
        assert len(ref) == 8 * len(xy), where
        assert np.hypot(*(xy - ref[::8]).T).max() <= _PX, where
        edge = np.arange(len(ref)) // 8
        assert _seg_dist(ref, xy[edge], np.roll(xy, -1, axis=0)[edge]).max() <= _PX, where
        counts[0] += 1
    return counts


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_mesh_svg_matches_per_point_renderer(name):
    poly, macro = builtin_layout(name)
    for L in range(1, 5):
        for n in (L, L + 2):
            mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=n))
            straight, sampled = _assert_same_picture(mesh, label=(name, L, n))
            assert (straight, sampled) == (mesh.element_count(), 0)  # parallelogram quads
    _assert_same_picture(mesh, width=317, label=name)


def test_nonaffine_mesh_svg_matches_per_point_renderer():
    counts = np.zeros(2, dtype=int)
    for mesh in nonaffine_meshes():
        counts += _assert_same_picture(mesh, label=mesh.params)
        counts += _assert_same_picture(mesh, width=317, label=mesh.params)
    assert counts.min() > 0  # both branches


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=7),
    axes=st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0)),
    sigma=st.floats(0.1, 0.5),
    L=st.integers(0, 3),
)
def test_random_convex_triangulations_validate_or_raise(gaps, axes, sigma, L):
    # convex polygons on an ellipse, fan-triangulated from their centroid:
    # each mesh validates clean or the build raises ValueError, never a
    # silently invalid mesh, and its picture has one polygon per element
    angles = np.cumsum(gaps) * (2.0 * math.pi / sum(gaps))
    vertices = np.stack([axes[0] * np.cos(angles), axes[1] * np.sin(angles)], axis=1)
    try:
        poly, macro = fan_macro(vertices)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=sigma, L=L, n=L))
    except ValueError:
        return
    assert validate_mesh(mesh).violations == []
    assert mesh_svg(mesh).count("<polygon") == mesh.element_count()


def test_pattern_svg_matches_per_point_renderer():
    params = PatchParams(sigma=0.25, L=2, n=3)
    for kind in PatchKind:
        patch = build_pattern(kind, params)
        for width in (640, 317):  # pattern outlines are their nodes on both sides
            assert _assert_same_picture(patch, width, label=kind)[0] == 0


def test_convergence_svg():
    svg = convergence_svg([("eps=1e-2", [1, 2, 3, 4], [1.0, 0.2, 0.03, 0.004])])
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 4
    with pytest.raises(ValueError):
        convergence_svg([("bad", [1, 2], [1.0, -1.0])])


# sha256 of mesh_text and mesh_svg of the `hpbl mesh` meshes (sigma=0.25,
# n=L): the text as the dict-merge builder and element-object Mesh wrote
# it, the SVG with straight outlines drawn by their corners alone
_GOLDEN = {
    ("square", 1): ("36b6a142f9ca8cc6735ba985b15d82e29064be5897e137a090309fa661bb9e67",
                    "244e4d6c17284d8a13487f8f6229f5a6d9e12e36d392cb757fcfb215e4af1fe3"),
    ("square", 4): ("05c91983d193f92ccd3be99b43454bf1916ea0a09e8cd6ef0b99361e62c79e7d",
                    "9ed60089bf25d313873f21cd16fe810aa9a37bd312df229bfa77aa3173f6c6c4"),
    ("square", 8): ("9af0c1340c207fdf5dd0e99e598bde3b7377596df3fe110b187377eef529ea29",
                    "342dc4bae3499f8868182680bb460f6f0946befa5f3438362b868b73e9c5ea3b"),
    ("lshape", 1): ("acecdb2a320d825079d6fe6da1edc1daffeddc0dc311490f43e611bb82f4a45b",
                    "cb08875e4f78168f0b76a4513f56188c798c56f9ab572e971422560a94dc4563"),
    ("lshape", 4): ("7ff2390e95d07702e7083a54303591749424ce961f56aaa219a34075c8205173",
                    "5cd3385f72eb67ae1e8695da8e5a3c113b5d33d85b4806ab96222d947c34eaae"),
    ("lshape", 8): ("c764f5856e9bf00f211668ac4faeb0605ff4158c5dd360afb429ab83aab49088",
                    "3063edf9090a762177c60ecbdcae904fe2ad91e237c8e962546233483c707d72"),
    ("slit", 1): ("2abae27c59af1805580649e14fe7ce0843951d4acba0ba9b02e39925ddbc6acd",
                  "948031b33d7249ef77f4175c35a23fd65e952e0c65ce546c5dff45caafd8b90e"),
    ("slit", 4): ("d488ec60765d17a5c977e94eb138fe22e764386bb12c3b3824747a3210fab87d",
                  "a6d3863a29f5e2fad7cb301df6022eacb7fbb4accf9de4e5bcb8b95e3e372e6c"),
    ("slit", 8): ("c9a948d2846b91c1d1eac9382e73e45689e872ccd5706c048c7b9b3ee6361a3d",
                  "b713008e344b004728a3a87552e7c3adba1605cfaf1162a29f9b0e79a2202624"),
}


@pytest.mark.parametrize("name,L", sorted(_GOLDEN))
def test_mesh_dumps_keep_their_bytes(name, L):
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L))
    text, svg = (hashlib.sha256(out.encode()).hexdigest() for out in (mesh_text(mesh), mesh_svg(mesh)))
    assert (text, svg) == _GOLDEN[name, L]


# sha256 of mesh_text and mesh_svg of every pattern kind, as the element-object
# patterns wrote them: they pin pattern node and element order
_PATTERN_GOLDEN = {
    (PatchKind.TRIVIAL, 0.25, 2, 3): (
        "b22e9c8c68ed2e0a7569912b38653e5c250ed3665d863774dc70f57ea659a82c",
        "472ecc6f2b103be8f168a1d1701f9519670a453b469983df750b5a6cbda2bf5f",
    ),
    (PatchKind.BOUNDARY_LAYER, 0.25, 2, 3): (
        "48447ead5c413d3fd8e9ef2129ee838f4c0a8024c250bb3927e0c1503fbab675",
        "fe40fbc2a2296e96fcf83a3201623bf052dd2778e0ec38dd9204b4d20849f3d7",
    ),
    (PatchKind.CORNER, 0.25, 2, 3): (
        "251cf75418ca34189afa7593c83a89149a9055c9033f9183d1bd8046fc51f4fa",
        "15bb685d9c37e1ef60f76a0bbb9c536c5ee0545933e68c01b47be17a97dcdf03",
    ),
    (PatchKind.TENSOR, 0.25, 2, 3): (
        "678f35a8b0083be29a93a6ae37a606ba9af16493a427c724e618addd831d63c8",
        "8547e8b4140558edc03f9517ad93e89703389a245b39955b3c057a0a13d1e936",
    ),
    (PatchKind.MIXED, 0.25, 2, 3): (
        "523d445e90d0f600dfc58096dbfcb2561fe251cd607921e01c4881e6d2f6eb0c",
        "73480c6d0dc2a48fdd3080157dd0ec9b382b020229a9866c1c7fc12c0e8a82ad",
    ),
    (PatchKind.TRIVIAL, 0.1, 4, 6): (
        "b22e9c8c68ed2e0a7569912b38653e5c250ed3665d863774dc70f57ea659a82c",
        "472ecc6f2b103be8f168a1d1701f9519670a453b469983df750b5a6cbda2bf5f",
    ),
    (PatchKind.BOUNDARY_LAYER, 0.1, 4, 6): (
        "c52f38bf993d6d8a8eb725ac8e13f2cfc098ba2e55fafc5f0daac881f2969ceb",
        "a250a4e1ca3cf26c1d630bb81b8d4ab5a6ea6940352fc82740c6dfb834a287a6",
    ),
    (PatchKind.CORNER, 0.1, 4, 6): (
        "5d3ae2a8960cea934d68b17279441b8dcd3e9f63a8214e2cbaa2997abb2f8cfb",
        "eb3d47989731ae9d98888d67d55b1ce1c811f868b02f887edbd67457056cc2e7",
    ),
    (PatchKind.TENSOR, 0.1, 4, 6): (
        "9f9deba8e0123e8c46c92130c8b57b2796b45b468a7ac0210d404bda4a4f2871",
        "3cbcef7707b4f25c4d0ad292472132b994fcf6e2fa72944491c9fb0b9076999d",
    ),
    (PatchKind.MIXED, 0.1, 4, 6): (
        "453dd6c465c27a70a3fdc1e10774824914c405e3590030c1964d4f20f5d79bc2",
        "c2e2e02c70dde229271f5a3ccc65d1a48fd80652255e5a665ca1b4f134963cd1",
    ),
}


@pytest.mark.parametrize("kind,sigma,L,n", sorted(_PATTERN_GOLDEN, key=str))
def test_pattern_dumps_keep_their_bytes(kind, sigma, L, n):
    patch = build_pattern(kind, PatchParams(sigma=sigma, L=L, n=n))
    text, svg = (hashlib.sha256(out.encode()).hexdigest() for out in (mesh_text(patch), mesh_svg(patch)))
    assert (text, svg) == _PATTERN_GOLDEN[kind, sigma, L, n]
