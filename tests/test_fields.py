import warnings

import numpy as np
import pytest

from masscons.errors import ConfigurationError, ContractError, DomainError
from masscons.adjust import misfit
from masscons.fields import (
    Field2,
    _weighted_sum,
    Field3,
    divergence_fd,
    example_field,
    face_rule,
    inject,
    midpoint_rule,
    updraft,
    validate_weights,
)
from masscons.collocation import MultiplierSolution
from masscons.geometry import BoxDomain, classify, grid_centers
from masscons.kernel import KernelParams

BOX = BoxDomain(-2, 2, -2, 2, 0, 2)
UNIT = BoxDomain(0, 1, 0, 1, 0, 1)

XY = Field2(fn=lambda pts: pts[:, :2].copy(), hdiv=lambda pts: np.full(len(pts), 2.0))


def rand_pts(rng, count, box=BOX):
    return rng.uniform(box.lo, box.hi, (count, 3))


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
    assert np.all(updraft(2.5).div(pts) == 0.0)


def test_midpoint_rule_converges_at_second_order():
    # Midpoint quadrature carries an O(h^2) error on quadratic integrands, so
    # <r, r> of the misfit r = -(x, y, 0) of the data (x, y) meets the analytic
    # 256/3 at ~2.4e-4 relative on a 64^3 grid, shrinking by 4x per refinement.
    exact = 256.0 / 3.0
    errors = {}
    for m in (32, 64):
        q = midpoint_rule(BOX, m)
        r = misfit(XY, np.eye(2))(q.nodes)[:, :2]
        errors[m] = abs(_weighted_sum(r, np.eye(2), r, q.weights) - exact) / exact
    assert errors[64] <= 5e-4
    assert errors[64] <= errors[32] / 3.5


def test_adjointness_identity():
    # <M u, V>_S == <u, M*(S V)> on a shared quadrature; the misfit of data V
    # from an updraft is M*(S (0 - V)) = -M*(S V).
    q = midpoint_rule(BOX, 10)
    u = Field3(fn=lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 2] ** 2, np.cos(p[:, 1])]))
    v = Field2(fn=lambda p: np.column_stack([p[:, 1], np.exp(0.1 * p[:, 0])]))
    s = np.array([[1.5, 0.2], [0.2, 0.8]])
    lhs = _weighted_sum(u(q.nodes)[:, :2], s, v(q.nodes), q.weights)
    rhs = -_weighted_sum(u(q.nodes), np.eye(3), misfit(v, s)(q.nodes), q.weights)
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


def test_quadrature_weights_sum_to_volume():
    q = midpoint_rule(BOX, 9)
    assert np.all(q.weights > 0)
    assert q.weights.sum() == pytest.approx(32.0, rel=1e-10)

    from masscons.geometry import Topography

    height = lambda x, y: 0.25 * np.exp(-(x**2 + y**2))
    topo = Topography(height=height, grad=lambda x, y: -2.0 * np.stack([x, y], axis=-1) * height(x, y)[..., None])
    qt = midpoint_rule(BOX, 24, topo=topo)
    # terrain-following volume = box volume minus the volume under the hill
    hill_volume = 0.25 * np.pi * (1 - np.exp(-4.0)) ** 2  # integral of the Gaussian over the footprint
    assert qt.weights.sum() == pytest.approx(32.0 - hill_volume, rel=1e-3)


def test_quadrature_rejects_non_integral_resolution():
    # int(2.5) would build 8 cells; a NumPy integer is a count
    with pytest.raises(ConfigurationError, match="must be an integer of at least 1, got 2.5"):
        midpoint_rule(BOX, 2.5)
    assert len(midpoint_rule(BOX, np.int64(2)).nodes) == 8


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
    analytic = u.div(pts)
    fd = divergence_fd(u, pts, 1e-4)
    mask = np.abs(analytic) > 1e-3
    assert (np.abs(analytic[mask] - fd[mask]) / np.abs(analytic[mask])).max() <= 1e-6


def test_example_field_cases():
    case = example_field("ex51")
    assert case.domain.bounds == (-2, 2, -2, 2, 0, 2)
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dim", [2, 3])
def test_validate_weights_rejects_non_finite_entries(bad, dim):
    # on the diagonal and, symmetrically, off it; the check comes before any
    # arithmetic, so NumPy warns of nothing
    diagonal = np.eye(dim)
    diagonal[0, 0] = bad
    off = np.eye(dim)
    off[0, 1] = off[1, 0] = bad
    for w in (diagonal, off):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="weight matrix must be finite"):
                validate_weights(w, dim)


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
