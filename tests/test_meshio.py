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
    assert sum(1 for l in lines if l.startswith("t ")) == len(patch.eid["t"])


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


# sha256 of mesh_text and mesh_svg of every pattern kind, as the element-object
# patterns wrote them: they pin pattern node and element order, half kinds included
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
    (PatchKind.MIXED_HALF, 0.25, 2, 3): (
        "3215b8fb590bfdae2a20a83579e9dfd2cdd7255254adfd3824d750d3774011dc",
        "14aa875e17b9c4a0a00488f4fc5cb4beeeac36179fbee198785a39e2a22731b8",
    ),
    (PatchKind.CORNER_HALF, 0.25, 2, 3): (
        "0cb246ba3826252826838a519ae455ecd2e774aff19e6a3624c0c1d80709cabe",
        "0f5d72a3683d082c0b2cdd61299dbc6aabc10cc69abeccf54ffca7cc04d85614",
    ),
    (PatchKind.CORNER_HALF_FLIP, 0.25, 2, 3): (
        "9bd1452670676fba083c135b3d8e34cbaeb36c67815a3d620e63a50cdb6608bd",
        "d8034837baf98c15607d3544ef7d833dddbca689f53ca4f4e24afc0e9b4c3adf",
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
    (PatchKind.MIXED_HALF, 0.1, 4, 6): (
        "bd0c14fc16171015af4ea685d749a23e9d3f46219b368ede91dc72a0b1baa91e",
        "0f21f1feeb6b23af3ac8a57f3910a0a433ae1eee18ad459f2cf05cab23d64da4",
    ),
    (PatchKind.CORNER_HALF, 0.1, 4, 6): (
        "1d4899dcd74c6155371b16afca8a01534508b410f2b741236665ca564bed54df",
        "284177b73dd2846bd8e5a08e6499914af09d200ff302326636ac345b07004fa3",
    ),
    (PatchKind.CORNER_HALF_FLIP, 0.1, 4, 6): (
        "2517e06f8167612863a52bc3ae17f6c387116b932eb6e8eadbc35732833e72ee",
        "1015080a7555206afd939c37bd2d78cc7bee6058d9c71fb4e1661b1d61cf13e2",
    ),
}


@pytest.mark.parametrize("kind,sigma,L,n", sorted(_PATTERN_GOLDEN, key=str))
def test_pattern_dumps_keep_their_bytes(kind, sigma, L, n):
    patch = build_pattern(kind, PatchParams(sigma=sigma, L=L, n=n))
    text, svg = (hashlib.sha256(out.encode()).hexdigest() for out in (mesh_text(patch), mesh_svg(patch)))
    assert (text, svg) == _PATTERN_GOLDEN[kind, sigma, L, n]
