import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpbl.macro
from hpbl.geometry import Polygon
from hpbl.layouts import builtin_layout, layout_names
from hpbl.macro import (
    _JAC_SAMPLES,
    _TRI_SAMPLES,
    BilinearMap,
    MacroTriangulation,
    PatternAssignment,
    assign_refinement_patterns,
    build_geo_bl_mesh,
    element_geometry,
    macro_from_triangulation,
    scale_resolution_L,
    validate_mesh,
)
from hpbl.meshcheck import conformity_violations
from hpbl.patches import PatchKind, PatchParams
from hpbl.reference import rect_quadrature, tri_quadrature

from helpers import (bent_corner_layout, bilinear_broadcast, build_by_dict,
                     element_geometry_per_point, element_rows, nonaffine_meshes,
                     validate_by_element)


def test_scale_resolution_L():
    assert scale_resolution_L(0.25, 1.0, 1.0) == 0
    assert scale_resolution_L(0.25, 1e-2, 1.0) == 4
    assert scale_resolution_L(0.25, 1e-4, 1.0) == 7
    assert scale_resolution_L(0.5, 0.4, 1.0) == 2


def test_triangle_split_oracle():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    macro = macro_from_triangulation(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], poly
    )
    assert len(macro.quads) == 3
    # quad at vertex (0,0): corners (0,0), edge midpoint, barycenter, edge midpoint
    q0 = macro.nodes[list(macro.quads[0])]
    np.testing.assert_allclose(
        q0, [[0, 0], [0.5, 0], [1 / 3, 1 / 3], [0, 0.5]], atol=1e-15
    )


def test_triangle_count_rule():
    # m triangles -> 3m quads when no reentrant split fires (every fan
    # angle at the reentrant corner is 45 degrees here)
    poly, _ = builtin_layout("lshape")
    pts = [[0, 0], [1, 0], [1, 1], [-1, 1], [-1, -1], [0, -1], [0, 1], [-1, 0]]
    tris = [[0, 1, 2], [0, 2, 6], [0, 6, 3], [0, 3, 7], [0, 7, 4], [0, 4, 5]]
    macro = macro_from_triangulation(pts, tris, poly)
    assert len(macro.quads) == 18
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=1, n=1))
    report = validate_mesh(mesh)
    assert report.violations == []


def test_classification_census():
    expected = {
        "square": {PatchKind.TENSOR: 4},
        "lshape": {
            PatchKind.TENSOR: 5,
            PatchKind.BOUNDARY_LAYER: 12,
            PatchKind.TRIVIAL: 7,
            PatchKind.MIXED: 2,
            PatchKind.CORNER: 1,
        },
        "slit": {
            PatchKind.TENSOR: 6,
            PatchKind.BOUNDARY_LAYER: 16,
            PatchKind.TRIVIAL: 10,
            PatchKind.MIXED: 2,
            PatchKind.CORNER: 2,
        },
    }
    for name, want in expected.items():
        poly, macro = builtin_layout(name)
        assignments = assign_refinement_patterns(macro, poly)
        census = {}
        for a in assignments:
            census[a.kind] = census.get(a.kind, 0) + 1
        assert census == want, name


def test_every_kind_is_carried_by_a_builtin_layout():
    # the catalogue holds no pattern that no quad can use: each kind sits
    # on some quad of a built-in domain, whose mesh validates clean
    carried = set()
    for name in layout_names():
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
        assert validate_mesh(mesh).violations == [], name
        carried |= {a.kind for a in mesh.assignments}
    assert carried == set(PatchKind)


def test_all_trivial_grid():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    nodes = np.array(
        [[x, y] for y in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0)]
    )
    quads = [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 5, 8, 7)]
    macro = MacroTriangulation(nodes, quads)
    assignments = [PatternAssignment(PatchKind.TRIVIAL) for _ in quads]
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.5, L=0, n=0), assignments)
    assert mesh.element_count() == 4
    assert mesh.node_count() == 9


def test_shared_edge_traces_merge_exactly():
    # two boundary-layer quads over a shared vertical edge: the induced 1D
    # meshes agree bit for bit, so merging leaves no duplicates
    poly = Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
    nodes = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float)
    macro = MacroTriangulation(nodes, [(0, 1, 4, 3), (1, 2, 5, 4)])
    assignments = [
        PatternAssignment(PatchKind.BOUNDARY_LAYER),
        PatternAssignment(PatchKind.BOUNDARY_LAYER),
    ]
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=3, n=3), assignments)
    assert mesh.merge_discrepancy == 0.0
    on_edge = sorted(
        y for x, y in mesh.nodes if x == 1.0
    )
    np.testing.assert_array_equal(
        on_edge, [0.0, 0.25**3, 0.25**2, 0.25, 1.0]
    )
    assert validate_mesh(mesh).violations == []


def test_finest_layer_count_validates_clean():
    # sigma=0.25 allows L = n = 25 (sigma^n >= 2^-50); the next count is rejected
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=25, n=25))
    report = validate_mesh(mesh)
    assert report.violations == [] and report.warnings == []


def test_builtin_domains_validate_clean():
    for name in ("square", "lshape", "slit"):
        poly, macro = builtin_layout(name)
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
        assert mesh.merge_discrepancy == 0.0, name
        report = validate_mesh(mesh)
        assert report.violations == [], (name, report.violations[:3])
        if name == "slit":
            # the tip angle is 2*pi: no mesh line can split it below pi
            assert len(report.warnings) == 1
        else:
            assert report.warnings == []


def test_unmerged_interface_node_flagged():
    # undo the merge of one interface node: its facets become exposed
    # interior facets, which the validator must flag
    poly, macro = builtin_layout("square")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.5, L=1, n=1))
    interface = next(
        i
        for i, (x, y) in enumerate(mesh.nodes)
        if x == 0.5 and 0.0 < y < 1.0
    )
    dup = len(mesh.nodes)
    mesh.nodes = np.vstack([mesh.nodes, mesh.nodes[interface]])
    for s, conn in mesh.conn.items():
        in_13 = np.isin(mesh.macro_id[s], (1, 3))[:, None]
        conn[in_13 & (conn == interface)] = dup
    report = validate_mesh(mesh, check_corner_condition=False)
    assert any("exposed" in v or "hangs" in v for v in report.violations)


def test_hanging_node_scan():
    from hpbl.meshcheck import hanging_nodes

    # one tall rectangle next to two stacked half-height ones: the shared
    # mid node hangs inside the tall rectangle's right facet
    nodes = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 0.5], [2, 1], [1, 0.5]],
        dtype=float,
    )
    elements = [(0, 1, 2, 3), (1, 4, 5, 7), (7, 5, 6, 2)]
    hangs = hanging_nodes(nodes, elements)
    assert any(node == 7 for node, _ in hangs)


def test_corner_condition_fault_injection():
    # forcing a trivial pattern at the reentrant corner removes the corner
    # refinement; the mesh no longer matches the boundary there
    poly, macro = builtin_layout("lshape")
    assignments = list(assign_refinement_patterns(macro, poly))
    idx = next(i for i, a in enumerate(assignments) if a.kind is PatchKind.CORNER)
    assignments[idx] = PatternAssignment(PatchKind.TRIVIAL)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.5, L=1, n=1), assignments)
    report = validate_mesh(mesh)
    assert any("angle" in w for w in report.warnings)


def test_mixed_orientation_cases():
    # the lshape layout exercises both mixed orientations (vertex at the
    # start and at the end of the boundary edge): both must map the corner
    # sub-pattern onto the polygon vertex
    poly, macro = builtin_layout("lshape")
    assignments = assign_refinement_patterns(macro, poly)
    mixed = [i for i, a in enumerate(assignments) if a.kind is PatchKind.MIXED]
    assert len(mixed) == 2
    flips = {assignments[i].flip for i in mixed}
    assert flips == {False, True}


def test_dof_growth_is_quartic():
    # N(p) for L=n=p grows like p^4 (elements ~ p^2, dofs/element ~ p^2)
    from hpbl.fem import DofMap

    poly, macro = builtin_layout("square")
    ratios = []
    for p in (1, 2, 3, 4, 5, 6):
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=p, n=p))
        dm = DofMap(mesh, p)
        ratios.append(dm.nfree / p**4)
    assert max(ratios) < 40.0
    assert max(ratios[2:]) <= 2.0 * min(ratios[2:])


def test_pattern_defects_are_reported_under_every_quad_that_carries_them():
    poly, macro = builtin_layout("lshape")
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=2, n=2))
    pats = mesh.patterns
    # quads 1 and 4 carry equal copies of one defect (element 0 appended
    # again), quad 2 another (element 0 traversed backwards)
    pat = pats[1]
    s = next(s for s, ids in pat.eid.items() if 0 in ids)
    first = pat.eid[s] == 0
    pats[1] = replace(pat, conn={**pat.conn, s: np.vstack([pat.conn[s], pat.conn[s][first]])},
                      eid={**pat.eid, s: np.append(pat.eid[s], pat.element_count())})
    pats[4] = copy.deepcopy(pats[1])
    pat = pats[2]
    s = next(s for s, ids in pat.eid.items() if 0 in ids)
    conn = pat.conn[s].copy()
    conn[pat.eid[s] == 0] = conn[pat.eid[s] == 0, ::-1]
    pats[2] = replace(pat, conn={**pat.conn, s: conn})
    want = [f"quad {qid}: {msg}" for qid, pat in enumerate(pats)
            for msg in conformity_violations(pat.nodes, pat)]
    assert {int(v.split()[1][:-1]) for v in want} == {1, 2, 4}

    with mock.patch.object(hpbl.macro, "conformity_violations", wraps=conformity_violations) as spy:
        got = validate_mesh(mesh, check_corner_condition=False).violations
    assert got[: len(want)] == want
    assert not any(v.startswith("quad ") for v in got[len(want):])
    # each distinct pattern object once, plus the glued mesh
    assert spy.call_count == len({id(pat) for pat in pats}) + 1


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    sigma=st.floats(0.1, 0.5),
    L=st.integers(0, 7),
    extra=st.integers(0, 3),
)
def test_array_mesh_matches_object_path(name, sigma, L, extra):
    # the one-pass key merge against the node-by-node dict merge, and
    # validate_mesh on the arrays against the element-by-element checks
    poly, macro = builtin_layout(name)
    params = PatchParams(sigma=sigma, L=L, n=L + extra)
    mesh = build_geo_bl_mesh(macro, poly, params)
    want = build_by_dict(macro, poly, params)
    assert mesh.nodes.shape == want.nodes.shape
    assert mesh.nodes.tobytes() == want.nodes.tobytes()
    got = element_rows(mesh)
    assert [e[:3] for e in got] == [e[:3] for e in want.elements]
    assert all(a.ref.tobytes() == b.ref.tobytes() for a, b in zip(got, want.elements))
    assert mesh.boundary_facets.tolist() == sorted(map(list, want.boundary_facets))
    assert mesh.merge_discrepancy == want.merge_discrepancy
    report = validate_mesh(mesh)
    assert (report.violations, report.warnings) == validate_by_element(want)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["square", "lshape", "slit"]),
    L=st.integers(0, 6),
    extra=st.sampled_from([0, 3]),
)
def test_quads_sharing_a_pattern_hold_equal_elements(name, L, extra):
    # the premise of locating points once per pattern pair: elements are
    # numbered quad by quad, and the quads that share a pattern object hold
    # as many elements of each shape, with bitwise-equal pattern corners, in
    # the same order
    poly, macro = builtin_layout(name)
    mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L + extra))
    groups = {}
    for qid, pattern in enumerate(mesh.patterns):
        groups.setdefault(id(pattern), []).append(qid)
    assert len(groups) < len(mesh.patterns)
    for s, ref in mesh.ref.items():
        assert np.all(np.diff(mesh.macro_id[s]) >= 0)
        for qids in groups.values():
            first = ref[mesh.macro_id[s] == qids[0]]
            for qid in qids[1:]:
                same = ref[mesh.macro_id[s] == qid]
                assert same.shape == first.shape and same.tobytes() == first.tobytes()


# validate_mesh on each built-in L=2 mesh with element `dup` appended again
# and the node order of the last original element reversed, as the
# element-object mesh reported it
_CORRUPTED = {
    "square": (0, [
        "facet (0, 1) traversed twice in the same direction",
        "facet (1, 2) shared by 3 elements",
        "facet (2, 3) shared by 3 elements",
        "facet (0, 3) shared by 3 elements",
        "facet (43, 44) traversed twice in the same direction",
        "facet (43, 48) traversed twice in the same direction",
        "stored boundary marking disagrees with element incidence (1 facets differ)",
        "polygon edge 0 covered by facets of total length 0.90625, expected 1",
    ]),
    "lshape": (8, [
        "facet (0, 3) shared by 3 elements",
        "facet (0, 15) traversed twice in the same direction",
        "facet (3, 15) shared by 3 elements",
        "facet (126, 127) traversed twice in the same direction",
        "facet (126, 131) traversed twice in the same direction",
        "stored boundary marking disagrees with element incidence (1 facets differ)",
        "polygon edge 4 covered by facets of total length 0.979166666667, expected 1",
    ]),
    "slit": (8, [
        "facet (0, 3) shared by 3 elements",
        "facet (0, 15) traversed twice in the same direction",
        "facet (3, 15) shared by 3 elements",
        "facet (160, 161) traversed twice in the same direction",
        "facet (160, 165) traversed twice in the same direction",
        "stored boundary marking disagrees with element incidence (1 facets differ)",
        "polygon edge 5 covered by facets of total length 1.97916666667, expected 2",
    ]),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTED))
def test_corrupted_connectivity_reports(name):
    dup, want = _CORRUPTED[name]
    poly, macro = builtin_layout(name)
    params = PatchParams(sigma=0.25, L=2, n=2)
    mesh = build_geo_bl_mesh(macro, poly, params)
    flip = mesh.element_count() - 1
    for s in mesh.conn:  # a copy of element dup's row, as a new last element
        row = np.flatnonzero(mesh.eid[s] == dup)
        mesh.conn[s] = np.vstack([mesh.conn[s], mesh.conn[s][row]])
        mesh.eid[s] = np.append(mesh.eid[s], np.full(len(row), flip + 1))
        mesh.macro_id[s] = np.append(mesh.macro_id[s], mesh.macro_id[s][row])
        mesh.ref[s] = np.concatenate([mesh.ref[s], mesh.ref[s][row]])
    for s in mesh.conn:
        rows = mesh.eid[s] == flip
        mesh.conn[s][rows] = mesh.conn[s][rows, ::-1]
    assert validate_mesh(mesh, check_corner_condition=False).violations == want

    ref = build_by_dict(macro, poly, params)
    ref.elements.append(ref.elements[dup])
    ref.elements[flip] = ref.elements[flip]._replace(nodes=ref.elements[flip].nodes[::-1])
    assert validate_by_element(ref, check_corner_condition=False)[0] == want


def _geometry_points(q):
    """Per shape, the reference points element geometry is formed at: the
    q + 2 rule of assembly, the q + 3 rule of the norms and the samples
    of the Jacobian sign check."""
    return [("r", rect_quadrature(q + 2)[0]), ("r", rect_quadrature(q + 3)[0]),
            ("r", _JAC_SAMPLES), ("t", tri_quadrature(q + 2)[0]),
            ("t", tri_quadrature(q + 3)[0]), ("t", _TRI_SAMPLES)]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["square", "lshape", "slit"])
def test_element_geometry_is_per_element_on_parallelograms(name):
    # every built-in macro quad is a parallelogram, so each element has one
    # Jacobian, and its broadcast is the per-point one bit for bit; at L = 0
    # the square has no rectangles
    poly, macro = builtin_layout(name)
    for L, n in ((0, 0), (0, 2), (1, 1), (3, 3), (2, 4)):
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=n))
        assert mesh.parallelograms.all()
        for q in (1, 4):
            for shape, pts in _geometry_points(q):
                got = element_geometry(mesh, shape, pts)
                want = element_geometry_per_point(mesh, shape, pts)
                ne, npts = len(mesh.eid[shape]), len(pts)
                assert got[3].shape == (ne, 1) and got[4].shape == (ne, 1, 2, 2)
                det = np.broadcast_to(got[3], (ne, npts))
                inv = np.broadcast_to(got[4], (ne, npts, 2, 2))
                assert all(_same_bits(a, b) for a, b in zip((*got[:3], det, inv), want))


def test_element_geometry_is_per_point_on_other_quads():
    # fan-triangulated quads, and one bent quad among three parallelograms,
    # which makes every element of each shape take per-point Jacobians
    poly, macro = bent_corner_layout()
    bent = [build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L)) for L in (1, 3)]
    for mesh in [*nonaffine_meshes(), *bent]:
        for shape, pts in _geometry_points(2):
            assert not mesh.parallelograms[mesh.macro_id[shape]].all()
            got = element_geometry(mesh, shape, pts)
            assert got[3].shape == (len(mesh.eid[shape]), len(pts))
            want = element_geometry_per_point(mesh, shape, pts)
            assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert all(m.parallelograms.tolist() == [True, True, True, False] for m in bent)
    assert all(not validate_mesh(m).violations for m in bent)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ne=st.integers(0, 6), npts=st.integers(1, 9),
       scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e5]))
def test_bilinear_map_planes_match_the_broadcast(seed, ne, npts, scale):
    # x and y formed as planes give the (..., 2) broadcast formula bit for
    # bit: stacked maps (E, 1) at per-element points (E, P, 2), as
    # element_points builds them, stacked maps at shared points, as node
    # placement calls them, and one map at (P, 2) points
    rng = np.random.default_rng(seed)
    corners = scale * rng.standard_normal((ne, 1, 4, 2)) + rng.uniform(-1.0, 1.0, 2)
    pts = rng.uniform(0.0, 1.0, (ne, npts, 2))
    shared = rng.uniform(0.0, 1.0, (npts, 2))
    stacked = BilinearMap(corners)
    single = BilinearMap(scale * rng.standard_normal((4, 2)))
    for bil, at in ((stacked, pts), (stacked, shared), (single, shared)):
        assert _same_bits(bil(at), bilinear_broadcast(bil, at))
