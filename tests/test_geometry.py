import numpy as np
import pytest

from hpbl.geometry import Polygon
from hpbl.layouts import builtin_layout


def test_square_angles_and_area():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert poly.area() == pytest.approx(1.0)
    for j in range(4):
        assert poly.interior_angle(j) == pytest.approx(np.pi / 2)


def test_lshape_reentrant_angle():
    poly, _ = builtin_layout("lshape")
    angles = [poly.interior_angle(j) for j in range(len(poly.vertices))]
    assert sorted(angles)[-1] == pytest.approx(1.5 * np.pi)
    assert sum(1 for a in angles if a == pytest.approx(np.pi / 2)) == 5


def test_slit_tip_angle():
    poly, _ = builtin_layout("slit")
    angles = [poly.interior_angle(j) for j in range(len(poly.vertices))]
    assert max(angles) == pytest.approx(2.0 * np.pi)  # the slit tip


def test_ccw_required():
    with pytest.raises(ValueError):
        Polygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("vertices, named", [
    ([[0, 0], [1, 0], [1, 0], [2, 0], [2, 2], [0, 2]], "vertex 2 repeats vertex 1"),
    ([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]], "vertex 0 repeats vertex 4"),  # the wrap
])
def test_zero_length_edge_rejected(vertices, named):
    # a vertex equal to its predecessor leaves an edge of length 0, on which
    # the on-edge test would divide by zero
    with pytest.raises(ValueError, match=named):
        Polygon(np.array(vertices, dtype=float))


def test_duplicated_slit_vertex_resolution():
    poly, _ = builtin_layout("slit")
    # (-1, 0) appears twice on the boundary walk
    cands = poly.vertex_candidates(np.array([-1.0, 0.0]))
    assert len(cands) == 2


def test_supporting_edge_side():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    # [a, b] on edge 0 seen from inside; the same segment moved to y=0.5 is on none
    a, b = np.array([[0.2, 0.0], [0.2, 0.5]]), np.array([[0.7, 0.0], [0.7, 0.5]])
    j = poly.supporting_edges(a, b, np.array([[0.5, 0.5], [0.5, 0.8]]))
    assert j.tolist() == [0, -1]


def test_point_on_boundary():
    poly = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert poly.point_on_boundary(np.array([0.4, 0.0]))
    assert poly.point_on_boundary(np.array([1.0, 0.3]))
    assert not poly.point_on_boundary(np.array([0.5, 0.5]))


def test_point_on_boundary_takes_point_arrays():
    # edge 0 has length 4: the distance tolerance scales with it, the
    # parameter tolerance does not
    poly = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]]))
    pts = np.array([[[2.0, 3e-12], [2.0, 5e-12], [2.0, -3e-12]],
                    [[4.0 + 3e-12, 0.0], [4.0 + 6e-12, 0.0], [2.0, 0.5]]])
    want = [[True, False, True], [True, False, False]]
    assert poly.point_on_boundary(pts).tolist() == want
    assert [[bool(poly.point_on_boundary(p)) for p in row] for row in pts] == want
