from dataclasses import replace

import numpy as np
import pytest

from masscons.errors import ConfigurationError, ContractError, DomainError
from masscons.fields import face_rule, gauss2_rule, midpoint_rule
from masscons.geometry import BoxDomain, FaceLabel, NodeSet, Topography, classify, grid_centers

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
        grid_centers(replace(BOX, terrain=flat), 3)


def test_node_set_rejects_arrays_of_other_lengths():
    message = r"^inconsistent NodeSet arrays: points \(2, 3\), labels \(3,\), normals \(2, 3\)$"
    with pytest.raises(ContractError, match=message):
        NodeSet(np.zeros((2, 3)), np.zeros(3, dtype=int), np.full((2, 3), np.nan))


def test_node_set_rejects_a_normal_on_an_interior_node():
    with pytest.raises(DomainError, match="^interior nodes must not carry normals$"):
        NodeSet(np.zeros((1, 3)), np.array([FaceLabel.INTERIOR]), np.array([[0.0, 0.0, 1.0]]))


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
    # below the box, beside it, below the terrain but inside the box, and a
    # non-finite coordinate on each axis, which no comparison puts inside
    nan, inf = float("nan"), float("inf")
    for point, topo in (
        ([0.0, 0.0, -0.1], None),
        ([2.5, 0.0, 1.0], None),
        ([0.0, 0.0, 0.1], hill()),
        ([nan, 0.5, 0.5], None),
        ([0.5, nan, 0.5], None),
        ([0.5, 0.5, nan], None),
        ([0.5, 0.5, nan], hill()),
        ([0.5, 0.5, inf], None),
        ([-inf, 0.5, 0.5], None),
    ):
        with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
            classify(np.array([[0.3, -0.7, 1.1], point]), replace(BOX, terrain=topo))
    with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
        classify(np.array([[nan, 0.5, 0.5]]), BoxDomain(0, 1, 0, 1, 0, 1))


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
    box = replace(BOX, terrain=hill())
    below = np.array([[0.0, 0.0, box.terrain.height(0.0, 0.0) - 2 * BOX.face_tol]])
    with pytest.raises(DomainError, match=r"^1 point\(s\) outside the closed domain"):
        classify(below, box)
    assert classify(below + [0.0, 0.0, 2 * BOX.face_tol], box)[0].tolist() == [FaceLabel.BOTTOM]


def test_contains_sees_the_terrain():
    # On a hill box a point more than face_tol below the terrain is outside,
    # though inside the flat box, and one within face_tol below it is inside.
    box = replace(BOX, terrain=hill())
    top = box.terrain.height(0.0, 0.0)
    pts = np.array([[0.0, 0.0, top - 2 * BOX.face_tol], [0.0, 0.0, top - 0.5 * BOX.face_tol], [0.0, 0.0, top]])
    assert box.contains(pts).tolist() == [False, True, True]
    assert BOX.contains(pts).all()
    # elsewhere the domain is the flat box cut at the terrain
    sample = np.random.default_rng(4).uniform(BOX.lo - 0.1, BOX.hi + 0.1, (200, 3))
    above = sample[:, 2] >= box.terrain.height(sample[:, 0], sample[:, 1])
    assert (BOX.contains(sample) & ~above).any()
    np.testing.assert_array_equal(box.contains(sample), BOX.contains(sample) & above)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tiny_box_keeps_its_interior(n):
    # the face tolerance scales with the box, so a box 1e-13 across is labelled like the unit box
    unit = grid_centers(BoxDomain(0, 1, 0, 1, 0, 1), n)
    tiny = grid_centers(BoxDomain(0, 1e-13, 0, 1e-13, 0, 1e-13), n)
    np.testing.assert_array_equal(tiny.labels, unit.labels)
    np.testing.assert_array_equal(tiny.normals, unit.normals)
    assert len(tiny.interior) == (n - 2) ** 3


def test_normals_point_outward():
    for box in (BOX, replace(BOX, terrain=hill())):
        nodes = grid_centers(box, 6)
        step = 1e-6 * box.diameter()
        outside = nodes.points[nodes.boundary] + step * nodes.normals[nodes.boundary]
        with pytest.raises(DomainError, match=rf"^{len(nodes.boundary)} point\(s\) outside"):
            classify(outside, box)
        norms = np.linalg.norm(nodes.normals[nodes.boundary], axis=1)
        assert np.abs(norms - 1).max() <= 1e-12
        assert np.all(np.isnan(nodes.normals[nodes.interior]))


def test_terrain_following_grid():
    topo = hill()
    nodes = grid_centers(replace(BOX, terrain=topo), 5)
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
    # Centres and quadrature nodes share one map, bit for bit: z = zb + (z0 -
    # zmin) * (zmax - zb) / (zmax - zmin) for the flat grid's z0, and every
    # rule weight is cell * (zmax - zb) / (zmax - zmin). A box 3 high, since
    # dividing by 2 is exact and would hide a map rounded another way.
    box = BoxDomain(-2, 2, -2, 2, 0, 3)
    lo, hi = box.zmin, box.zmax
    cell = float(np.prod((box.hi - box.lo) / 6))
    for make in (grid_centers, midpoint_rule, gauss2_rule):
        m = 5 if make is grid_centers else 6
        mapped, flat = make(replace(box, terrain=topo), m), make(box, m)
        pts, flat_pts = (mapped.points, flat.points) if make is grid_centers else (mapped.nodes, flat.nodes)
        np.testing.assert_array_equal(pts[:, :2], flat_pts[:, :2])
        zb = topo.height(pts[:, 0], pts[:, 1])
        np.testing.assert_array_equal(pts[:, 2], zb + (flat_pts[:, 2] - lo) * (hi - zb) / (hi - lo))
        if make is not grid_centers:
            np.testing.assert_array_equal(mapped.weights, cell * ((hi - zb) / (hi - lo)))


def test_terrain_must_stay_below_top():
    def level(z):
        return Topography(height=lambda x, y: np.full(np.shape(x), z), grad=lambda x, y: np.zeros(np.shape(x) + (2,)))

    for make in (grid_centers, midpoint_rule, gauss2_rule):
        with pytest.raises(DomainError, match="terrain height reaches or exceeds the top of the box"):
            make(replace(BOX, terrain=level(2.5)), 4)
        # a terrain height of NaN or inf is not below the top either
        for z in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="terrain height is not finite"):
                make(replace(BOX, terrain=level(z)), 4)
    with pytest.raises(DomainError, match="terrain height is not finite"):
        classify(np.array([[0.5, 0.5, 0.5]]), replace(BOX, terrain=level(np.nan)))
