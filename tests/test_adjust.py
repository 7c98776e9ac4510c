import logging

import numpy as np
import pytest

from masscons.adjust import (
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
    BaseFieldPolicy,
    FaceBcPolicy,
    adjust,
    adjust_full,
    boundary_data,
    descent_direction,
    misfit,
    poisson_rhs,
    sasaki,
    step_length,
)
from masscons.collocation import MultiplierSolution, assemble, factorize_and_solve
from masscons.errors import ContractError, DegenerateDirectionError, DomainError
from masscons.fields import (
    Field2,
    Field3,
    divergence_fd,
    example_field,
    inject,
    midpoint_rule,
    zero3,
)
from masscons.geometry import BoxDomain, FaceLabel, Topography, grid_centers
from masscons.kernel import KernelParams

EX51 = example_field("ex51")
EX52 = example_field("ex52")
EX53 = example_field("ex53", eps=0.1)

CRIT3_POLICY = FaceBcPolicy(bottom=NO_FLOW_THROUGH, top=NO_FLOW_THROUGH)


def rand_pts(rng, count, box):
    return rng.uniform(box.lo, box.hi, (count, 3))


def test_misfit_vanishes_at_trivial_minimum():
    rng = np.random.default_rng(0)
    pts = rand_pts(rng, 200, EX51.domain)
    m = misfit(inject(EX51.data), EX51.data, np.eye(2))
    assert np.all(m(pts) == 0.0)


def test_misfit_zero_base():
    rng = np.random.default_rng(1)
    pts = rand_pts(rng, 200, EX51.domain)
    m = misfit(zero3(), EX51.data, np.eye(2))
    expected = np.column_stack([-pts[:, 0], -pts[:, 1], np.zeros(len(pts))])
    np.testing.assert_allclose(m(pts), expected, rtol=0, atol=1e-15)


def test_misfit_third_component_zero():
    rng = np.random.default_rng(2)
    pts = rand_pts(rng, 1000, EX52.domain)
    base = Field3(fn=lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1] ** 2, np.cos(p[:, 2])]))
    m = misfit(base, EX52.data, np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert np.all(m(pts)[:, 2] == 0.0)


def test_poisson_rhs_analytic_cases():
    rng = np.random.default_rng(3)
    rhs51 = poisson_rhs(misfit(zero3(), EX51.data, np.eye(2)), EX51.domain)
    pts = rand_pts(rng, 100, EX51.domain)
    np.testing.assert_array_equal(rhs51(pts), np.full(100, -2.0))

    rhs52 = poisson_rhs(misfit(zero3(), EX52.data, np.eye(2)), EX52.domain)
    pts2 = rand_pts(rng, 100, EX52.domain)
    np.testing.assert_array_equal(rhs52(pts2), np.zeros(100))

    rhs53 = poisson_rhs(misfit(zero3(), EX53.data, np.eye(2)), EX53.domain)
    pts3 = rand_pts(rng, 100, EX53.domain)
    np.testing.assert_allclose(rhs53(pts3), 0.1 * pts3[:, 2], rtol=0, atol=1e-15)


def test_poisson_rhs_fd_fallback():
    # a non-scalar weight matrix disables the analytic divergence path
    weights = np.array([[2.0, 0.0], [0.0, 1.0]])
    m = misfit(zero3(), EX51.data, weights)
    assert m.div is None
    rhs = poisson_rhs(m, EX51.domain)
    rng = np.random.default_rng(4)
    pts = rng.uniform(EX51.domain.lo + 0.2, EX51.domain.hi - 0.2, (50, 3))
    # div of -(2x, y, 0) is -3
    np.testing.assert_allclose(rhs(pts), -3.0, rtol=0, atol=1e-6)


def test_boundary_data_policies(caplog):
    nodes = grid_centers(EX51.domain, 3)
    m = misfit(zero3(), EX51.data, np.eye(2))
    policy = FaceBcPolicy(bottom=NO_FLOW_THROUGH)
    bcs = boundary_data(policy, m, nodes)
    from masscons.collocation import DirichletLambda, NeumannLambda

    for i in nodes.boundary:
        label = FaceLabel(nodes.labels[i])
        if label is FaceLabel.BOTTOM:
            # flat ground annihilates the horizontal misfit: g = 0
            assert isinstance(bcs[int(i)], NeumannLambda)
            assert bcs[int(i)].flux == 0.0
        else:
            assert bcs[int(i)] == DirichletLambda(0.0)

    # vertical normal annihilates horizontal misfit on the top face
    nodes52 = grid_centers(EX52.domain, 3)
    m52 = misfit(BaseFieldPolicy.vertical(1.0).build(EX52.data), EX52.data, np.eye(2))
    bcs52 = boundary_data(CRIT3_POLICY, m52, nodes52)
    for i in nodes52.boundary:
        if FaceLabel(nodes52.labels[i]) in (FaceLabel.TOP, FaceLabel.BOTTOM):
            assert bcs52[int(i)].flux == 0.0

    with caplog.at_level(logging.WARNING):
        boundary_data(FaceBcPolicy.uniform(NO_FLOW_THROUGH), m, nodes)
    assert any("Neumann" in record.message for record in caplog.records)


def test_boundary_data_oracle_requires_exact():
    nodes = grid_centers(EX51.domain, 3)
    m = misfit(zero3(), EX51.data, np.eye(2))
    with pytest.raises(ContractError):
        boundary_data(FaceBcPolicy.uniform(ORACLE_NEUMANN), m, nodes)


def test_descent_direction_zero_case():
    nodes = grid_centers(EX51.domain, 3)
    m = misfit(inject(EX51.data), EX51.data, np.eye(2))
    solution = MultiplierSolution(
        coeffs=np.zeros(len(nodes)), nodes=nodes, kernel=KernelParams(1.0),
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, trunc_tol=1e-12,
    )
    p = descent_direction(m, solution)
    rng = np.random.default_rng(5)
    assert np.all(p(rand_pts(rng, 100, EX51.domain)) == 0.0)


def test_descent_direction_exact_config():
    # zero source and zero boundary data force beta = 0, so p is the injected data
    result = adjust(
        EX52.data, EX52.domain, KernelParams(0.01), 5,
        base=BaseFieldPolicy.vertical(1.0), policy=CRIT3_POLICY, exact=EX52.exact,
    )
    assert np.all(result.multiplier.coeffs == 0.0)
    rng = np.random.default_rng(6)
    pts = rand_pts(rng, 200, EX52.domain)
    np.testing.assert_array_equal(result.p(pts)[:, :2], EX52.data(pts))
    assert np.all(result.p(pts)[:, 2] == 0.0)


def test_descent_direction_recovers_linear_correction():
    # With oracle flux data the continuum multiplier is -z^2 and the direction
    # approaches the exact correction (x, y, -2z) in the flat regime.
    result = adjust(
        EX51.data, EX51.domain, KernelParams(0.05), 5,
        base=BaseFieldPolicy.zero(), policy=FaceBcPolicy.uniform(ORACLE_NEUMANN),
        exact=EX51.exact,
    )
    rng = np.random.default_rng(7)
    pts = rng.uniform(EX51.domain.lo + 0.3, EX51.domain.hi - 0.3, (200, 3))
    expected = np.column_stack([pts[:, 0], pts[:, 1], -2.0 * pts[:, 2]])
    rel = np.linalg.norm(result.p(pts) - expected) / np.linalg.norm(expected)
    assert rel <= 5e-4
    assert result.metrics.rel_error <= 5e-4


def test_step_length_formulas_agree_when_multiplier_vanishes():
    quad = midpoint_rule(EX52.domain, 12)
    u_c = BaseFieldPolicy.vertical(1.0).build(EX52.data)
    m = misfit(u_c, EX52.data, np.eye(2))
    solution = MultiplierSolution(
        coeffs=np.zeros(27), nodes=grid_centers(EX52.domain, 3), kernel=KernelParams(0.01),
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, trunc_tol=1e-12,
    )
    p = descent_direction(m, solution)
    t_min = step_length(p, u_c, EX52.data, np.eye(2), quad, MINIMIZER)
    t_desc = step_length(p, u_c, EX52.data, np.eye(2), quad, CLOSED_FORM)
    assert t_min == pytest.approx(1.0, abs=1e-12)
    assert t_desc == pytest.approx(t_min, rel=1e-12)


def test_step_length_degenerate_direction():
    quad = midpoint_rule(EX51.domain, 8)
    vertical = Field3(fn=lambda p: np.column_stack([np.zeros((len(p), 2)), p[:, 2:3] + 1.0]))
    with pytest.raises(DegenerateDirectionError):
        step_length(vertical, zero3(), EX51.data, np.eye(2), quad, MINIMIZER)


def test_adjust_exact_recovery_ex52():
    result = adjust(
        EX52.data, EX52.domain, KernelParams(0.01), 5,
        base=BaseFieldPolicy.vertical(1.0), policy=CRIT3_POLICY,
        formula=MINIMIZER, exact=EX52.exact,
    )
    assert result.t_c == 1.0
    assert result.metrics.rel_error <= 1e-10
    assert result.metrics.j_after <= 1e-12


def test_adjust_inject_base_is_degenerate():
    with pytest.raises(DegenerateDirectionError):
        adjust(
            EX51.data, EX51.domain, KernelParams(0.5), 3,
            base=BaseFieldPolicy.inject_data(), quad=midpoint_rule(EX51.domain, 8),
        )


def test_adjusted_field_is_base_plus_step():
    quad = midpoint_rule(EX51.domain, 8)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 4,
        base=BaseFieldPolicy.zero(),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, exact=EX51.exact,
    )
    rng = np.random.default_rng(8)
    pts = rand_pts(rng, 100, EX51.domain)
    np.testing.assert_allclose(
        result.u_plus(pts), result.t_c * result.p(pts), rtol=0, atol=1e-14
    )
    assert result.metrics.j_after <= result.metrics.j_before + 1e-12

    lifted = adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 4,
        base=BaseFieldPolicy.vertical(2.5),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, exact=EX51.exact,
    )
    base_vals = np.broadcast_to([0.0, 0.0, 2.5], (len(pts), 3))
    np.testing.assert_allclose(
        lifted.u_plus(pts), base_vals + lifted.t_c * lifted.p(pts), rtol=0, atol=1e-14
    )


def test_objective_descent_strict():
    quad = midpoint_rule(EX53.domain, 8)
    result = adjust(
        EX53.data, EX53.domain, KernelParams(0.01), 4,
        base=BaseFieldPolicy.zero(),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, formula=MINIMIZER, exact=EX53.exact,
    )
    assert result.metrics.j_before > 1e-10
    assert result.metrics.j_after < result.metrics.j_before


def test_direction_divergence_free_at_collocation_nodes():
    quad = midpoint_rule(EX53.domain, 8)
    result = adjust(
        EX53.data, EX53.domain, KernelParams(0.05), 5,
        base=BaseFieldPolicy.zero(),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, exact=EX53.exact,
    )
    nodes = result.gram.nodes
    interior = nodes.points[nodes.interior]
    # analytic route: div p = -rhs + lap lambda
    div_analytic = result.p.divergence(interior)
    assert np.abs(div_analytic).max() <= result.multiplier.residual_norm + 1e-10
    # independent oracle route
    div_fd = divergence_fd(result.p, interior, 1e-5 * EX53.domain.diameter())
    assert np.abs(div_fd).max() <= result.multiplier.residual_norm + 1e-6


def test_iterations_keep_descending():
    quad = midpoint_rule(EX53.domain, 8)
    one = adjust(
        EX53.data, EX53.domain, KernelParams(0.05), 4,
        base=BaseFieldPolicy.zero(), policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, iterations=1,
    )
    two = adjust(
        EX53.data, EX53.domain, KernelParams(0.05), 4,
        base=BaseFieldPolicy.zero(), policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, iterations=2,
    )
    assert two.metrics.j_after <= one.metrics.j_after + 1e-12


def test_sasaki_identity_weights_match_full_adjust_bitwise():
    cube = BoxDomain(-2, 2, -2, 2, -2, 2)
    quad = midpoint_rule(cube, 8)
    initial = inject(EX51.data)
    kp = KernelParams(0.5)
    a = sasaki(initial, np.eye(3), cube, kp, 4, quad=quad, exact=EX51.exact)
    b = adjust_full(
        initial, np.eye(3), cube, kp, 4, base_field=zero3(),
        formula=CLOSED_FORM, quad=quad, exact=EX51.exact,
    )
    assert a.t_c == 1.0 and b.t_c == 1.0
    assert np.array_equal(a.multiplier.coeffs, b.multiplier.coeffs)
    rng = np.random.default_rng(9)
    pts = rand_pts(rng, 50, cube)
    assert np.array_equal(a.u_plus(pts), b.u_plus(pts))
    assert a.metrics.kappa == b.metrics.kappa


def test_sasaki_divergence_free_initial_field_is_kept():
    # divergence-free initial data with compatible (lambda = 0) conditions
    # gives a zero right-hand side, beta = 0, and u_plus = initial exactly
    quad = midpoint_rule(EX52.domain, 8)
    result = sasaki(EX52.exact, np.eye(3), EX52.domain, KernelParams(0.1), 4, quad=quad, exact=EX52.exact)
    assert np.all(result.multiplier.coeffs == 0.0)
    rng = np.random.default_rng(10)
    pts = rand_pts(rng, 100, EX52.domain)
    np.testing.assert_allclose(result.u_plus(pts), EX52.exact(pts), rtol=0, atol=1e-8)


def test_sasaki_projects_onto_divergence_free_field():
    # u0 = (x, y, 0) with lambda pinned to zero on the whole boundary; the
    # corrected field satisfies the collocation equations, so the FD oracle
    # sees zero divergence at the interior centers up to the solve residual.
    cube = BoxDomain(-2, 2, -2, 2, -2, 2)
    result = sasaki(
        inject(EX51.data), np.eye(3), cube, KernelParams(0.5), 8,
        quad=midpoint_rule(cube, 8), exact=EX51.exact,
    )
    assert result.t_c == 1.0
    nodes = result.gram.nodes
    interior = nodes.points[nodes.interior]
    div = divergence_fd(result.u_plus, interior, 1e-5 * cube.diameter())
    assert np.abs(div).mean() <= 1e-6


def test_adjust_full_anisotropic_weights():
    weights = np.diag([1.0, 2.0, 4.0])
    result = adjust_full(
        inject(EX51.data), weights, EX51.domain, KernelParams(0.5), 5,
        quad=midpoint_rule(EX51.domain, 8), formula=CLOSED_FORM, exact=EX51.exact,
    )
    assert result.t_c == 1.0
    assert result.gram.row_kinds[result.gram.nodes.interior[0]] == "anisotropic-laplacian"
    # minimizer formula also descends
    result_min = adjust_full(
        inject(EX51.data), weights, EX51.domain, KernelParams(0.5), 5,
        quad=midpoint_rule(EX51.domain, 8), formula=MINIMIZER, exact=EX51.exact,
    )
    assert result_min.metrics.j_after <= result_min.metrics.j_before


def test_face_policy_validation():
    with pytest.raises(ContractError):
        FaceBcPolicy(bottom="sealed")
    with pytest.raises(ContractError):
        BaseFieldPolicy(kind="nothing")
    with pytest.raises(ContractError):
        BaseFieldPolicy(kind="custom")


def _hill(box, amplitude=2.0, width=3.0):
    x0, y0 = 0.5 * (box.xmin + box.xmax), 0.5 * (box.ymin + box.ymax)
    bump = lambda x, y: amplitude * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)
    grad = lambda x, y: np.stack(
        [-2.0 * (x - x0) / width**2 * bump(x, y), -2.0 * (y - y0) / width**2 * bump(x, y)], axis=-1
    )
    return Topography(height=lambda x, y: box.zmin + bump(x, y), grad=grad)


def _ex51_flat():
    quad = midpoint_rule(EX51.domain, 12)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(1e-3), 4,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX51.exact,
    )
    return result, quad, EX51.domain


def _ex53_sasaki_hill():
    weights = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])
    topo = _hill(EX53.domain)
    quad = midpoint_rule(EX53.domain, 8, topo=topo)
    result = sasaki(
        inject(EX53.data), weights, EX53.domain, KernelParams(0.01), 4, topo=topo,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX53.exact,
    )
    return result, quad, None


@pytest.mark.parametrize("make", [_ex51_flat, _ex53_sasaki_hill], ids=["ex51", "ex53-sasaki-hill"])
def test_analytic_divergence_matches_fd_oracle(make):
    result, quad, box = make()
    h = 1e-5 * (box if box is not None else EX53.domain).diameter()
    fd = divergence_fd(result.u_plus, quad.nodes, h, box=box)
    # At this step the oracle's error is roundoff of the field values over h
    # (2e-6 on ex51 at N = 512), which grows with the coefficient size and
    # shrinks as 1/h; its spread against the step 2h measures it on this run.
    atol = 4.0 * np.abs(fd - divergence_fd(result.u_plus, quad.nodes, 2.0 * h, box=box)).max() + 1e-9
    np.testing.assert_allclose(result.node_div, fd, rtol=0, atol=atol)
    assert abs(result.metrics.div_mean - np.mean(fd)) <= atol
    assert abs(result.metrics.div_max - np.max(np.abs(fd))) <= atol
    # the cached node values are u_plus at the nodes
    np.testing.assert_allclose(result.node_values, result.u_plus(quad.nodes), rtol=0, atol=1e-12)


def test_non_scalar_weight_takes_fd_divergence_fallback():
    quad = midpoint_rule(EX51.domain, 8)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 4, weights=np.diag([2.0, 1.0]),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX51.exact,
    )
    assert result.p.div is None
    fd = divergence_fd(result.u_plus, quad.nodes, 1e-5 * EX51.domain.diameter(), box=EX51.domain)
    assert np.array_equal(result.node_div, fd)
    assert np.isfinite(result.metrics.div_mean) and np.isfinite(result.metrics.div_max)
    assert result.metrics.div_max == np.max(np.abs(fd))


def _nan_on_ground(pts):
    # finite at every quadrature node; NaN on the z = 0 face, where the
    # sealed ground reads the misfit flux, so only the solve sees it
    vals = pts[:, :2].copy()
    vals[pts[:, 2] == 0.0] = np.nan
    return vals


_CONST_NAN = Field2(fn=lambda p: np.full((len(p), 2), np.nan))
_CONST_INF = Field2(fn=lambda p: np.full((len(p), 2), np.inf))


@pytest.mark.parametrize(
    "run, match",
    [
        (lambda quad: adjust(_CONST_NAN, EX51.domain, KernelParams(0.1), 3, quad=quad), "data values"),
        (
            lambda quad: adjust(
                EX51.data, EX51.domain, KernelParams(0.1), 3,
                base=BaseFieldPolicy.vertical(float("nan")), quad=quad,
            ),
            "base field values",
        ),
        (
            lambda quad: sasaki(inject(_CONST_INF), np.eye(3), EX51.domain, KernelParams(0.1), 3, quad=quad),
            "initial values",
        ),
        (
            lambda quad: adjust(
                Field2(fn=_nan_on_ground), EX51.domain, KernelParams(0.1), 3,
                policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad,
            ),
            "step length",
        ),
    ],
    ids=["nan-data", "nan-base", "inf-initial", "nan-step"],
)
def test_non_finite_input_raises_domain_error(run, match):
    with pytest.raises(DomainError, match=match):
        run(midpoint_rule(EX51.domain, 6))
