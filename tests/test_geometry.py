import numpy as np
import pytest

from masscons.errors import ConfigurationError, DomainError
from masscons.fields import face_rule, midpoint_rule
from masscons.geometry import BoxDomain, FaceLabel, Topography, classify, grid_centers

BOX = BoxDomain(-2, 2, -2, 2, 0, 2)


def hill():
    def height(x, y):
        return 0.5 * np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2))

    def grad(x, y):
        bump = 0.5 * np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2))
        return np.stack([-2.0 * np.asarray(x) * bump, -2.0 * np.asarray(y) * bump], axis=-1)

    return Topography(height=height, grad=grad)


def test_box_validation():
    with pytest.raises(ConfigurationError):
        BoxDomain(1, 1, 0, 1, 0, 1)
    with pytest.raises(ConfigurationError):
        BoxDomain(0, 1, 0, 1, 2, -2)


@pytest.mark.parametrize("n,interior", [(3, 1), (5, 27), (8, 216)])
def test_grid_counts(n, interior):
    nodes = grid_centers(BOX, n)
    assert len(nodes) == n**3
    assert len(nodes.interior) == interior
    assert len(nodes.interior) + len(nodes.boundary) == n**3


def test_grid_rejects_small_n():
    with pytest.raises(ConfigurationError):
        grid_centers(BOX, 1)
    # two nodes per axis leave no interior node, so div would never be imposed
    with pytest.raises(ConfigurationError, match="at least 3"):
        grid_centers(BOX, 2)


def test_grid_rejects_non_integral_n():
    # int(3.9) would build 27 nodes; a NumPy integer is a count
    with pytest.raises(ConfigurationError, match="must be an integer of at least 3, got 3.9"):
        grid_centers(BOX, 3.9)
    assert len(grid_centers(BOX, np.int64(3))) == 27


def test_nan_boundary_normals_raise():
    # a terrain slope of NaN gives NaN bottom normals, which are not unit vectors
    flat = Topography(height=lambda x, y: np.zeros_like(x), grad=lambda x, y: np.full(np.shape(x) + (2,), np.nan))
    with pytest.raises(DomainError, match="unit vectors"):
        grid_centers(BOX, 3, topo=flat)


def test_grid_ordering_z_major():
    nodes = grid_centers(BOX, 3)
    np.testing.assert_array_equal(nodes.points[0], [-2, -2, 0])
    np.testing.assert_array_equal(nodes.points[1], [0, -2, 0])  # x fastest
    np.testing.assert_array_equal(nodes.points[3], [-2, 0, 0])  # then y
    np.testing.assert_array_equal(nodes.points[9], [-2, -2, 1])  # then z


def test_grid_deterministic():
    a = grid_centers(BOX, 5)
    b = grid_centers(BOX, 5)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.normals, b.normals, equal_nan=True)


def test_classify_examples():
    # the corner (2, 2, 2) resolves to the top face under the fixed priority
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [2.0, 2.0, 2.0], [0.3, -0.7, 1.1]])
    labels, normals = classify(pts, BOX)
    assert labels.tolist() == [FaceLabel.BOTTOM, FaceLabel.XMAX, FaceLabel.TOP, FaceLabel.INTERIOR]
    np.testing.assert_array_equal(normals[:3], [[0, 0, -1], [1, 0, 0], [0, 0, 1]])
    assert np.all(np.isnan(normals[3]))


def test_classify_outside_raises():
    # below the box, beside it, and below the terrain but inside the box
    for point, topo in (([0.0, 0.0, -0.1], None), ([2.5, 0.0, 1.0], None), ([0.0, 0.0, 0.1], hill())):
        with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
            classify(np.array([[0.3, -0.7, 1.1], point]), BOX, topo=topo)


def test_classify_agrees_with_face_rule():
    # Both read one face table: classify gives each face_rule node (a face cell
    # midpoint, never on an edge) that face's label and face_rule's normal.
    m = 3
    nodes, _, normals = face_rule(BOX, m)
    labels, classified = classify(nodes, BOX)
    order = [FaceLabel.XMIN, FaceLabel.XMAX, FaceLabel.YMIN, FaceLabel.YMAX, FaceLabel.BOTTOM, FaceLabel.TOP]
    assert labels.tolist() == [label for label in order for _ in range(m * m)]
    np.testing.assert_array_equal(classified, normals)
    # twice the face tolerance beyond each of the six faces is outside
    for k in range(6):
        i = k * m * m + (m * m) // 2
        with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
            classify(nodes[i : i + 1] + 2 * BOX.face_tol * normals[i], BOX)
    # and so is a point just below the terrain, though inside the box
    topo = hill()
    below = np.array([[0.0, 0.0, topo.height(0.0, 0.0) - 2 * BOX.face_tol]])
    with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
        classify(below, BOX, topo=topo)
    assert classify(below + [0.0, 0.0, 2 * BOX.face_tol], BOX, topo=topo)[0].tolist() == [FaceLabel.BOTTOM]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tiny_box_keeps_its_interior(n):
    # the face tolerance scales with the box, so a box 1e-13 across is labelled like the unit box
    unit = grid_centers(BoxDomain(0, 1, 0, 1, 0, 1), n)
    tiny = grid_centers(BoxDomain(0, 1e-13, 0, 1e-13, 0, 1e-13), n)
    np.testing.assert_array_equal(tiny.labels, unit.labels)
    np.testing.assert_array_equal(tiny.normals, unit.normals)
    assert len(tiny.interior) == (n - 2) ** 3


def test_normals_point_outward():
    for topo in (None, hill()):
        nodes = grid_centers(BOX, 6, topo=topo)
        step = 1e-6 * BOX.diameter()
        outside = nodes.points[nodes.boundary] + step * nodes.normals[nodes.boundary]
        with pytest.raises(DomainError, match=rf"^{len(nodes.boundary)} point\(s\) outside"):
            classify(outside, BOX, topo=topo)
        norms = np.linalg.norm(nodes.normals[nodes.boundary], axis=1)
        assert np.abs(norms - 1).max() <= 1e-12
        assert np.all(np.isnan(nodes.normals[nodes.interior]))


def test_terrain_following_grid():
    topo = hill()
    nodes = grid_centers(BOX, 5, topo=topo)
    assert len(nodes) == 125
    bottom = nodes.points[nodes.labels == FaceLabel.BOTTOM]
    np.testing.assert_allclose(
        bottom[:, 2], topo.height(bottom[:, 0], bottom[:, 1]), rtol=0, atol=1e-14
    )
    # terrain normal is the exact surface normal (dzb/dx, dzb/dy, -1), normalized
    i = nodes.boundary[0]
    assert nodes.labels[i] == FaceLabel.BOTTOM
    x, y = nodes.points[i, 0], nodes.points[i, 1]
    g = topo.grad(x, y)
    expected = np.array([g[0], g[1], -1.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(nodes.normals[i], expected, rtol=0, atol=1e-12)
    # interior count is preserved by the vertical stretch
    assert len(nodes.interior) == 27


def test_terrain_must_stay_below_top():
    tall = Topography(height=lambda x, y: np.full(np.shape(x), 2.5), grad=lambda x, y: np.zeros(np.shape(x) + (2,)))
    for make in (grid_centers, midpoint_rule):
        with pytest.raises(DomainError, match="terrain height reaches or exceeds the top of the box"):
            make(BOX, 4, topo=tall)
