import numpy as np
import pytest

from masscons.errors import ConfigurationError, ContractError, DomainError
from masscons.fields import (
    Field2,
    _weighted_sum,
    Field3,
    divergence_fd,
    example_field,
    face_rule,
    inject,
    l2_ip,
    midpoint_rule,
    objective,
    observe,
    updraft,
    validate_weights,
    weighted_ip,
)
from masscons.collocation import MultiplierSolution
from masscons.geometry import BoxDomain, classify, grid_centers
from masscons.kernel import KernelParams

BOX = BoxDomain(-2, 2, -2, 2, 0, 2)
UNIT = BoxDomain(0, 1, 0, 1, 0, 1)

XY = Field2(fn=lambda pts: pts[:, :2].copy(), hdiv=lambda pts: np.full(len(pts), 2.0))


def rand_pts(rng, count, box=BOX):
    return rng.uniform(box.lo, box.hi, (count, 3))


def test_observe_drops_vertical():
    case = example_field("ex51")
    rng = np.random.default_rng(0)
    pts = rand_pts(rng, 100)
    np.testing.assert_array_equal(observe(case.exact)(pts), pts[:, :2])
    vertical = Field3(fn=lambda p: np.column_stack([np.zeros(len(p))] * 2 + [p[:, 2]]))
    assert np.all(observe(vertical)(pts) == 0.0)


def test_inject_pads_zero():
    rng = np.random.default_rng(1)
    pts = rand_pts(rng, 1000)
    u = inject(XY)
    vals = u(pts)
    np.testing.assert_array_equal(vals[:, :2], pts[:, :2])
    assert np.all(vals[:, 2] == 0.0)
    assert np.all(inject(Field2(fn=lambda p: np.zeros((len(p), 2))))(pts) == 0.0)


def test_updraft_is_constant_and_divergence_free():
    pts = rand_pts(np.random.default_rng(3), 50)
    np.testing.assert_array_equal(updraft(2.5)(pts), np.broadcast_to([0.0, 0.0, 2.5], (50, 3)))
    assert np.all(updraft()(pts) == 0.0)
    assert np.all(updraft(2.5).divergence(pts) == 0.0)


def test_observe_inject_roundtrip():
    rng = np.random.default_rng(2)
    pts = rand_pts(rng, 200)
    np.testing.assert_array_equal(observe(inject(XY))(pts), XY(pts))


def test_weighted_ip_constants():
    q = midpoint_rule(UNIT, 8)
    e1 = Field2(fn=lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]))
    e2 = Field2(fn=lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]))
    ones = Field2(fn=lambda p: np.ones((len(p), 2)))
    assert weighted_ip(e1, e2, np.eye(2), q) == pytest.approx(0.0, abs=1e-15)
    assert weighted_ip(ones, ones, np.eye(2), q) == pytest.approx(2.0, abs=1e-10)


def test_weighted_ip_quadratic_converges():
    # Midpoint quadrature carries an O(h^2) error on quadratic integrands, so
    # the analytic 256/3 is met at ~2.4e-4 relative on a 64^3 grid, shrinking
    # by 4x per refinement.
    exact = 256.0 / 3.0
    errors = {}
    for m in (32, 64):
        v = weighted_ip(XY, XY, np.eye(2), midpoint_rule(BOX, m))
        errors[m] = abs(v - exact) / exact
    assert errors[64] <= 5e-4
    assert errors[64] <= errors[32] / 3.5


def test_weighted_ip_symmetric():
    rng = np.random.default_rng(3)
    q = midpoint_rule(BOX, 12)
    a = Field2(fn=lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1] * p[:, 2]]))
    b = Field2(fn=lambda p: np.column_stack([np.cos(p[:, 2]), p[:, 0] + p[:, 1]]))
    s = np.array([[2.0, 0.3], [0.3, 1.0]])
    left = weighted_ip(a, b, s, q)
    right = weighted_ip(b, a, s, q)
    assert left == pytest.approx(right, rel=1e-12)


def test_weighted_ip_arity_mismatch():
    q = midpoint_rule(UNIT, 4)
    with pytest.raises(ContractError):
        weighted_ip(XY, updraft(), np.eye(2), q)
    with pytest.raises(ContractError):
        weighted_ip(XY, XY, np.eye(3), q)


def test_adjointness_identity():
    # <M u, V>_S == <u, M*(S V)> on a shared quadrature
    rng = np.random.default_rng(4)
    q = midpoint_rule(BOX, 10)
    u = Field3(fn=lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 2] ** 2, np.cos(p[:, 1])]))
    v = Field2(fn=lambda p: np.column_stack([p[:, 1], np.exp(0.1 * p[:, 0])]))
    s = np.array([[1.5, 0.2], [0.2, 0.8]])
    lhs = weighted_ip(observe(u), v, s, q)

    def m_star_sv(p):
        sv = v(p) @ s.T
        return np.column_stack([sv, np.zeros(len(p))])

    rhs = l2_ip(u, Field3(fn=m_star_sv), q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("m", [3, 8, 1000])
def test_weighted_sum_has_the_bits_of_einsum(m):
    # The shared quadratic form equals np.sum(qw * einsum("ij,jk,ik->i")) bit
    # for bit on the layouts the package passes it: contiguous arrays and
    # column-slice views such as vals_p[:, :2], over ten decades of values.
    rng = np.random.default_rng(m)
    for _ in range(20):
        vals = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-5, 5, (m, 3))
        other = rng.standard_normal((m, 3))
        qw = rng.uniform(0.5, 2.0, m)
        for k in (2, 3):
            s = rng.standard_normal((k, k))
            s = s @ s.T + np.eye(k)
            for a, w, b in (
                (vals[:, :k].copy(), s, other[:, :k].copy()),
                (vals[:, :k], s, vals[:, :k]),
            ):
                assert _weighted_sum(a, w, b, qw) == float(np.sum(qw * np.einsum("ij,jk,ik->i", a, w, b)))


def test_objective_zero_at_trivial_minimum():
    case = example_field("ex51")
    q = midpoint_rule(BOX, 16)
    assert objective(inject(case.data), case.data, np.eye(2), q) == 0.0


def test_objective_value_and_scaling():
    case = example_field("ex51")
    q = midpoint_rule(BOX, 64)
    j = objective(updraft(), case.data, np.eye(2), q)
    assert j == pytest.approx(128.0 / 3.0, rel=5e-4)
    assert objective(updraft(), case.data, 3.0 * np.eye(2), q) == pytest.approx(3.0 * j, rel=1e-14)


def test_quadrature_weights_sum_to_volume():
    q = midpoint_rule(BOX, 9)
    assert np.all(q.weights > 0)
    assert q.weights.sum() == pytest.approx(BOX.volume(), rel=1e-10)

    from masscons.geometry import Topography

    height = lambda x, y: 0.25 * np.exp(-(x**2 + y**2))
    topo = Topography(height=height, grad=lambda x, y: -2.0 * np.stack([x, y], axis=-1) * height(x, y)[..., None])
    qt = midpoint_rule(BOX, 24, topo=topo)
    # terrain-following volume = box volume minus the volume under the hill
    hill_volume = 0.25 * np.pi * (1 - np.exp(-4.0)) ** 2  # integral of the Gaussian over the footprint
    assert qt.weights.sum() == pytest.approx(BOX.volume() - hill_volume, rel=1e-3)


def test_quadrature_cell_volume_must_not_underflow():
    # each side of a cell is a normal float, 2.5e-301, but their product is 0
    with pytest.raises(DomainError, match=r"cell volume 2\.500e-301 x 2\.500e-301 x 2\.500e-301 underflows to 0"):
        midpoint_rule(BoxDomain(0, 1e-300, 0, 1e-300, 0, 1e-300), 4)


def test_face_rule_measures_area():
    nodes, weights, normals = face_rule(BOX, 32)
    assert weights.sum() == pytest.approx(2 * (4 * 4) + 4 * (4 * 2), rel=1e-12)
    assert np.all(np.linalg.norm(normals, axis=1) == 1.0)
    assert len(nodes) == 6 * 32 * 32


def test_integration_by_parts_nontrivial():
    # For divergence-free h, the volume integral of grad(lam) . h equals the
    # boundary integral of lam h . nu; exercised with a field whose two sides
    # are far from zero.
    cube = BoxDomain(-2, 2, -2, 2, -2, 2)
    quad = midpoint_rule(cube, 48)
    lam = lambda p: np.exp(0.3 * p[:, 0] + 0.2 * p[:, 1] + 0.1 * p[:, 2])
    h_of = lambda p: np.column_stack([p[:, 1], p[:, 2], p[:, 0]])
    grads = np.column_stack([0.3 * lam(quad.nodes), 0.2 * lam(quad.nodes), 0.1 * lam(quad.nodes)])
    volume = float(np.sum(quad.weights * np.sum(grads * h_of(quad.nodes), axis=1)))
    fnodes, fweights, fnormals = face_rule(cube, 192)
    surface = float(np.sum(fweights * lam(fnodes) * np.sum(h_of(fnodes) * fnormals, axis=1)))
    assert volume == pytest.approx(surface, rel=1e-3)


def test_divergence_fd_examples():
    rng = np.random.default_rng(5)
    case = example_field("ex51")
    pts = rand_pts(rng, 50)
    assert np.abs(divergence_fd(case.exact, pts, 1e-5)).max() <= 1e-10

    case2 = example_field("ex52")
    pts2 = rng.uniform(-6, 6, (200, 3))
    assert np.abs(divergence_fd(case2.exact, pts2, 1e-4)).max() <= 1e-8

    d = divergence_fd(inject(XY), pts, 1e-4)
    np.testing.assert_allclose(d, 2.0, rtol=0, atol=1e-8)


def test_divergence_fd_stencil_must_stay_inside():
    u = example_field("ex51").exact
    with pytest.raises(DomainError, match="stencil leaves the domain"):
        divergence_fd(u, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e-7]]), 1e-3, box=BOX)
    with pytest.raises(DomainError, match="step must be positive"):
        divergence_fd(u, np.array([[0.0, 0.0, 1.0]]), -1e-3)
    # a stencil that touches a face stays inside
    assert divergence_fd(u, np.array([[0.0, 0.0, 1e-3], [2.0 - 1e-3, 0.0, 1.0]]), 1e-3, box=BOX).shape == (2,)


def test_example_fields_are_divergence_free():
    rng = np.random.default_rng(6)
    for case_id, eps in (("ex51", None), ("ex52", None), ("ex53", 0.1)):
        case = example_field(case_id, eps=eps)
        box = case.domain
        margin = 0.05 * (box.hi - box.lo)
        pts = rng.uniform(box.lo + margin, box.hi - margin, (1000, 3))
        assert np.abs(divergence_fd(case.exact, pts, 1e-4)).max() <= 1e-8
        # data is the horizontal part of the exact field
        np.testing.assert_array_equal(case.data(pts), case.exact(pts)[:, :2])


def test_analytic_divergence_matches_fd():
    rng = np.random.default_rng(7)
    case = example_field("ex53", eps=0.3)
    box = case.domain
    pts = rng.uniform(box.lo + 0.5, box.hi - 0.5, (200, 3))
    u = inject(case.data)  # divergence -0.3 z, nonzero
    analytic = u.divergence(pts)
    fd = divergence_fd(u, pts, 1e-4)
    mask = np.abs(analytic) > 1e-3
    assert (np.abs(analytic[mask] - fd[mask]) / np.abs(analytic[mask])).max() <= 1e-6


def test_example_field_cases():
    case = example_field("ex51")
    assert case.domain.bounds == (-2, 2, -2, 2, 0, 2)
    assert case.domains[1].bounds == (-2, 2, -2, 2, -2, 2)
    assert example_field("ex52").domain.bounds == (-7, 7, -7, 7, -7, 7)
    assert example_field("ex53", eps=0.1).domain.bounds == (-7, 7, -7, 7, 0, 7)
    with pytest.raises(ConfigurationError):
        example_field("ex99")
    with pytest.raises(ConfigurationError):
        example_field("ex53")
    with pytest.raises(ConfigurationError):
        example_field("ex53", eps=-1.0)


def test_validate_weights():
    validate_weights(np.eye(2), 2)
    with pytest.raises(ContractError):
        validate_weights(np.array([[1.0, 0.5], [0.0, 1.0]]), 2)
    with pytest.raises(ContractError):
        validate_weights(np.array([[1.0, 0.0], [0.0, -2.0]]), 2)
    with pytest.raises(ContractError):
        validate_weights(np.eye(3), 2)


def batch_evaluators():
    """name -> (evaluator, trailing shape of each output) for every point evaluator in the package."""
    case = example_field("ex53", eps=0.1)
    nodes = grid_centers(UNIT, 3)
    aniso = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])

    def solution(coeffs):
        return MultiplierSolution(
            coeffs=coeffs, nodes=nodes, kernel=KernelParams(0.7), aniso=aniso,
            residual=0.0, residual_norm=0.0, rank=len(nodes), trunc_tol=1e-12, kappa=float("nan"),
        )

    lam, zero = solution(np.linspace(-1.0, 1.0, len(nodes))), solution(np.zeros(len(nodes)))
    return {
        "Field3": (case.exact, [(3,)]),
        "Field2": (case.data, [(2,)]),
        "Field3.divergence": (inject(case.data).divergence, [()]),
        "jet": (lam.jet, [(), (3,), ()]),
        "jet-zero-coefficients": (zero.jet, [(), (3,), ()]),
        "value": (lam.value, [()]),
        "gradient": (lam.gradient, [(3,)]),
        "laplacian": (lam.laplacian, [()]),
        "operator_laplacian": (lam.operator_laplacian, [()]),
        "hessian": (lam.hessian, [(3, 3)]),
        "divergence_fd": (lambda p: divergence_fd(case.exact, p, 1e-3, box=UNIT), [()]),
        "classify": (lambda p: classify(p, UNIT), [(), (3,)]),
        "BoxDomain.contains": (UNIT.contains, [()]),
    }


@pytest.mark.parametrize("name", sorted(batch_evaluators()))
def test_every_evaluator_takes_only_point_batches(name):
    evaluate, trailing = batch_evaluators()[name]
    pts = np.random.default_rng(8).uniform(0.1, 0.9, (5, 3))
    for m in (0, 1, 5):
        out = evaluate(pts[:m])
        outs = out if isinstance(out, tuple) else (out,)
        assert [np.shape(o) for o in outs] == [(m, *t) for t in trailing]
    with pytest.raises(DomainError, match=r"shape \(m, 3\), got \(3,\)"):
        evaluate(pts[0])
