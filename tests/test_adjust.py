import importlib
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masscons.adjust import (
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
    FaceBcPolicy,
    Problem,
    adjust,
    adjust_full,
    boundary_data,
    build_system,
    descent_direction,
    misfit,
    poisson_rhs,
    sasaki,
    _step,
)
from masscons.collocation import MultiplierSolution, factorize_and_solve
from masscons.errors import ContractError, DegenerateDirectionError, DomainError, NonDescentError
from masscons.fields import (
    Field2,
    Field3,
    Quadrature,
    divergence_fd,
    example_field,
    inject,
    midpoint_rule,
    updraft,
)
from masscons.geometry import BoxDomain, FaceLabel, Topography, grid_centers
from masscons.kernel import KernelParams

EX51 = example_field("ex51")
EX52 = example_field("ex52")
EX53 = example_field("ex53", eps=0.1)

CRIT3_POLICY = FaceBcPolicy(bottom=NO_FLOW_THROUGH, top=NO_FLOW_THROUGH)


def rand_pts(rng, count, box):
    return rng.uniform(box.lo, box.hi, (count, 3))


def test_misfit_zero_base():
    rng = np.random.default_rng(1)
    pts = rand_pts(rng, 200, EX51.domain)
    m = misfit(EX51.data, np.eye(2))
    expected = np.column_stack([-pts[:, 0], -pts[:, 1], np.zeros(len(pts))])
    np.testing.assert_allclose(m(pts), expected, rtol=0, atol=1e-15)


def test_poisson_rhs_analytic_cases():
    rng = np.random.default_rng(3)
    rhs51 = poisson_rhs(misfit(EX51.data, np.eye(2)), EX51.domain)
    pts = rand_pts(rng, 100, EX51.domain)
    np.testing.assert_array_equal(rhs51(pts), np.full(100, -2.0))

    rhs52 = poisson_rhs(misfit(EX52.data, np.eye(2)), EX52.domain)
    pts2 = rand_pts(rng, 100, EX52.domain)
    np.testing.assert_array_equal(rhs52(pts2), np.zeros(100))

    rhs53 = poisson_rhs(misfit(EX53.data, np.eye(2)), EX53.domain)
    pts3 = rand_pts(rng, 100, EX53.domain)
    np.testing.assert_allclose(rhs53(pts3), 0.1 * pts3[:, 2], rtol=0, atol=1e-15)


def test_poisson_rhs_fd_fallback():
    # a non-scalar weight matrix disables the analytic divergence path
    weights = np.array([[2.0, 0.0], [0.0, 1.0]])
    m = misfit(EX51.data, weights)
    assert m.div is None
    rhs = poisson_rhs(m, EX51.domain)
    rng = np.random.default_rng(4)
    pts = rng.uniform(EX51.domain.lo + 0.2, EX51.domain.hi - 0.2, (50, 3))
    # div of -(2x, y, 0) is -3
    np.testing.assert_allclose(rhs(pts), -3.0, rtol=0, atol=1e-6)


def test_boundary_data_policies(caplog):
    nodes = grid_centers(EX51.domain, 3)
    boundary = nodes.boundary
    labels = nodes.labels[boundary]
    ex51 = lambda policy: Problem.horizontal(EX51.data, EX51.domain, policy=policy)
    neumann, values, conormals = boundary_data(ex51(FaceBcPolicy(bottom=NO_FLOW_THROUGH)), nodes)
    assert neumann.dtype == bool and values.shape == neumann.shape == (len(boundary),)
    np.testing.assert_array_equal(neumann, labels == FaceLabel.BOTTOM)
    # flat ground annihilates the horizontal misfit (g = 0); flow-through rows hold 0
    assert np.all(values == 0.0)
    np.testing.assert_array_equal(conormals, nodes.normals[boundary])

    # vertical normal annihilates horizontal misfit on the top face
    nodes52 = grid_centers(EX52.domain, 3)
    neumann52, values52, _ = boundary_data(Problem.horizontal(EX52.data, EX52.domain, policy=CRIT3_POLICY), nodes52)
    sealed = np.isin(nodes52.labels[nodes52.boundary], (FaceLabel.TOP, FaceLabel.BOTTOM))
    np.testing.assert_array_equal(neumann52, sealed)
    assert np.all(values52 == 0.0)

    with caplog.at_level(logging.WARNING):
        boundary_data(ex51(FaceBcPolicy.uniform(NO_FLOW_THROUGH)), nodes)
    assert any("Neumann" in record.message for record in caplog.records)

    # full observation with 3x3 weights S: every row carries the conormal
    # S^-1 nu, and oracle rows the flux (exact - initial) . nu about a zero base
    weights = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])
    initial = inject(EX53.data)
    problem = Problem.full(initial, EX53.domain, weights, policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH, top=ORACLE_NEUMANN))
    nodes53 = grid_centers(EX53.domain, 3)
    r = problem.residual
    neumann53, values53, conormals53 = boundary_data(problem, nodes53, exact=EX53.exact)
    pts = nodes53.points[nodes53.boundary]
    normals = nodes53.normals[nodes53.boundary]
    r_vals, oracle_vals = r(pts), EX53.exact(pts) - initial(pts)
    np.testing.assert_allclose(conormals53, np.linalg.solve(weights, normals.T).T, rtol=1e-13)
    for row, label in enumerate(nodes53.labels[nodes53.boundary]):
        assert neumann53[row] == (label in (FaceLabel.BOTTOM, FaceLabel.TOP))
        if label in (FaceLabel.BOTTOM, FaceLabel.TOP):
            flux = r_vals[row] if label == FaceLabel.BOTTOM else oracle_vals[row]
            assert values53[row] == float(flux @ normals[row])
        else:
            assert values53[row] == 0.0


def test_boundary_data_matches_per_node_reference_bitwise():
    # Hill terrain and an oracle face, about each problem's own base: an
    # updraft under horizontal data, zero under full observation with an
    # anisotropic S. Every Neumann value is the row's own flux @ nu_i and
    # every conormal A @ nu_i (nu_i when isotropic), bit for bit.
    box = _hill(EX53.domain)
    policy = FaceBcPolicy(bottom=NO_FLOW_THROUGH, top=ORACLE_NEUMANN, xmin=NO_FLOW_THROUGH)
    weights = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])
    cases = [
        (Problem.horizontal(EX53.data, box, w_b=0.3, policy=policy), updraft(0.3)),
        (Problem.full(inject(EX53.data), box, weights, policy=policy), updraft()),
    ]
    nodes = grid_centers(box, 6)
    pts = nodes.points[nodes.boundary]
    for problem, base in cases:
        neumann, values, conormals = boundary_data(problem, nodes, exact=EX53.exact)
        r_vals = problem.residual(pts)
        oracle_vals = EX53.exact(pts) - base(pts) + r_vals
        for row, i in enumerate(nodes.boundary):
            nu, kind = nodes.normals[i], getattr(policy, FaceLabel(nodes.labels[i]).name.lower())
            conormal = nu if problem.aniso is None else problem.aniso @ nu
            assert conormals[row].tobytes() == conormal.tobytes()
            assert neumann[row] == (kind != FLOW_THROUGH)
            if kind == FLOW_THROUGH:
                assert values[row] == 0.0
                continue
            flux = r_vals if kind == NO_FLOW_THROUGH else oracle_vals
            assert values[row].tobytes() == np.float64(float(flux[row] @ nu)).tobytes()
        assert {FaceLabel(label) for label in nodes.labels[nodes.boundary][neumann]} == {
            FaceLabel.BOTTOM, FaceLabel.TOP, FaceLabel.XMIN
        }
    assert cases[0][0].aniso is None
    np.testing.assert_array_equal(cases[1][0].aniso, np.linalg.inv(weights))


def test_boundary_data_oracle_requires_exact():
    nodes = grid_centers(EX51.domain, 3)
    with pytest.raises(ContractError):
        boundary_data(Problem.horizontal(EX51.data, EX51.domain, policy=FaceBcPolicy.uniform(ORACLE_NEUMANN)), nodes)


def _zero_solution():
    nodes = grid_centers(EX51.domain, 3)
    return MultiplierSolution(
        coeffs=np.zeros(len(nodes)), nodes=nodes, kernel=KernelParams(1.0),
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, kappa=float("nan"),
    )


def test_descent_direction_zero_case():
    p = descent_direction(updraft(), _zero_solution())
    rng = np.random.default_rng(5)
    assert np.all(p(rand_pts(rng, 100, EX51.domain)) == 0.0)


def test_descent_direction_needs_the_residual_divergence():
    # p's divergence is -div r + L lambda, so a residual without one has no direction
    residual = Field3(fn=updraft().fn)
    with pytest.raises(ContractError, match="^the descent direction needs the residual's divergence$"):
        descent_direction(residual, _zero_solution())


def test_descent_direction_exact_config():
    # zero source and zero boundary data force beta = 0, so p is the injected data
    result = adjust(
        EX52.data, EX52.domain, KernelParams(0.01), 5,
        w_b=1.0, policy=CRIT3_POLICY, exact=EX52.exact,
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
        policy=FaceBcPolicy.uniform(ORACLE_NEUMANN),
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
    m = misfit(EX52.data, np.eye(2))
    solution = MultiplierSolution(
        coeffs=np.zeros(27), nodes=grid_centers(EX52.domain, 3), kernel=KernelParams(0.01),
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, kappa=float("nan"),
    )
    vals_p = descent_direction(m, solution)(quad.nodes)
    misfit_obs = 0.0 - EX52.data(quad.nodes)
    t_min = _step(vals_p, misfit_obs, np.eye(2), np.eye(3), quad.weights, MINIMIZER)
    t_desc = _step(vals_p, misfit_obs, np.eye(2), np.eye(3), quad.weights, CLOSED_FORM)
    assert t_min == pytest.approx(1.0, abs=1e-12)
    assert t_desc == pytest.approx(t_min, rel=1e-12)


def test_step_length_degenerate_direction():
    quad = midpoint_rule(EX51.domain, 8)
    vertical = np.column_stack([np.zeros((len(quad.nodes), 2)), quad.nodes[:, 2:3] + 1.0])
    misfit_obs = 0.0 - EX51.data(quad.nodes)
    with pytest.raises(DegenerateDirectionError, match="no observed content"):
        _step(vertical, misfit_obs, np.eye(2), np.eye(3), quad.weights, MINIMIZER)


@pytest.mark.parametrize("formula", [MINIMIZER, CLOSED_FORM])
def test_step_length_matches_full_observation_line_search(formula):
    # result.p is the direction the search stepped along: its step, recomputed
    # from its values at the quadrature nodes, is the search's t_c.
    weights = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
    quad = midpoint_rule(EX51.domain, 8)
    result = adjust_full(
        inject(EX51.data), weights, EX51.domain, KernelParams(0.5), 4, quad=quad, formula=formula,
    )
    initial = inject(EX51.data)(quad.nodes)
    t = _step(result.p(quad.nodes), 0.0 - initial, weights, weights, quad.weights, formula)
    assert t == pytest.approx(result.t_c, rel=1e-12)


def test_j_before_value_and_scaling():
    # From the zero field J = 1/2 int_box x^2 + y^2 = 128/3 on ex51's box, to
    # the midpoint rule's O(h^2); S = 3 I triples it.
    quad = midpoint_rule(EX51.domain, 64)
    j = [
        adjust(EX51.data, EX51.domain, KernelParams(0.5), 3, weights=s * np.eye(2), quad=quad).metrics.j_before
        for s in (1.0, 3.0)
    ]
    assert j[0] == pytest.approx(128.0 / 3.0, rel=5e-4)
    assert j[1] == pytest.approx(3.0 * j[0], rel=1e-14)


def test_adjust_exact_recovery_ex52():
    result = adjust(
        EX52.data, EX52.domain, KernelParams(0.01), 5,
        w_b=1.0, policy=CRIT3_POLICY,
        formula=MINIMIZER, exact=EX52.exact,
    )
    assert result.t_c == 1.0
    assert result.metrics.rel_error <= 1e-10
    assert result.metrics.j_after <= 1e-12


def test_adjusted_field_is_base_plus_step():
    quad = midpoint_rule(EX51.domain, 8)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 4,
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
        w_b=2.5,
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
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, formula=MINIMIZER, exact=EX53.exact,
    )
    assert result.metrics.j_before > 1e-10
    assert result.metrics.j_after < result.metrics.j_before


def test_direction_divergence_free_at_collocation_nodes():
    quad = midpoint_rule(EX53.domain, 8)
    result = adjust(
        EX53.data, EX53.domain, KernelParams(0.05), 5,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH),
        quad=quad, exact=EX53.exact,
    )
    nodes = result.multiplier.nodes
    interior = nodes.points[nodes.interior]
    # analytic route: div p = -rhs + lap lambda
    div_analytic = result.p.div(interior)
    assert np.abs(div_analytic).max() <= result.multiplier.residual_norm + 1e-10
    # independent oracle route
    div_fd = divergence_fd(result.p, interior, 1e-5 * EX53.domain.diameter())
    assert np.abs(div_fd).max() <= result.multiplier.residual_norm + 1e-6


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    example=st.sampled_from(["ex51", "ex53"]),
    n=st.integers(3, 5),
    c=st.floats(0.01, 1.0),
    hill=st.booleans(),
    scale=st.one_of(st.floats(0.1, 10.0), arrays(float, (3, 3), elements=st.floats(-1.0, 1.0))),
    sealed=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_direction_meets_every_collocated_row(example, n, c, hill, scale, sealed):
    # The direction's divergence at the interior nodes, p . nu at the Neumann
    # nodes and lambda at the Dirichlet nodes are the rows of G beta - b.
    case = EX51 if example == "ex51" else EX53
    box = case.domain
    height, extent = box.zmax - box.zmin, min(box.xmax - box.xmin, box.ymax - box.ymin)
    box = _hill(box, 0.3 * height, 0.25 * extent) if hill else box
    policy = FaceBcPolicy(*(NO_FLOW_THROUGH if s else FLOW_THROUGH for s in sealed))
    if np.ndim(scale) == 0:  # horizontal data under a scalar 2x2 S
        problem = Problem.horizontal(case.data, box, scale * np.eye(2), policy=policy)
    else:  # full observation under an SPD 3x3 S
        problem = Problem.full(inject(case.data), box, scale @ scale.T + 0.5 * np.eye(3), policy=policy)
    system = build_system(problem, KernelParams(c), n)
    nodes = system.nodes
    matrix = system.matrix.copy()  # the solve consumes the system's
    solution = factorize_and_solve(system)

    pts = nodes.points
    p = descent_direction(problem.residual, solution)
    kinds = np.array(system.row_kinds)
    dirichlet, neumann = kinds == "dirichlet", kinds == "neumann"
    got = p.div(pts)
    got[neumann] = np.sum(p(pts)[neumann] * nodes.normals[neumann], axis=1)
    got[dirichlet] = solution.value(pts)[dirichlet]
    rows = matrix @ solution.coeffs - system.rhs
    bound = 1e-10 * (np.abs(matrix) @ np.abs(solution.coeffs) + np.abs(system.rhs))
    assert np.all(np.abs(got - rows) <= bound)
    assert np.array_equal(np.flatnonzero(~(dirichlet | neumann)), nodes.interior)


def test_sasaki_identity_weights_match_full_adjust_bitwise():
    # sasaki is adjust_full at its defaults: one line search from the zero
    # field with the unit closed-form step. With identity weights it solves
    # the isotropic system build_system assembles about the zero field, bit for bit.
    assert sasaki is adjust_full
    cube = BoxDomain(-2, 2, -2, 2, -2, 2)
    quad = midpoint_rule(cube, 8)
    initial = inject(EX51.data)
    kp = KernelParams(0.5)
    a = sasaki(initial, np.eye(3), cube, kp, 4, quad=quad, exact=EX51.exact)
    problem = Problem.full(initial, cube, np.eye(3))
    system = build_system(problem, kp, 4)
    solution = factorize_and_solve(system)
    assert a.t_c == 1.0 and a.multiplier.aniso is None
    assert np.array_equal(a.multiplier.coeffs, solution.coeffs)
    rng = np.random.default_rng(9)
    pts = rand_pts(rng, 50, cube)
    assert np.array_equal(a.u_plus(pts), descent_direction(problem.residual, solution)(pts))
    assert a.multiplier.kappa == solution.kappa


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
    nodes = result.multiplier.nodes
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
    # the multiplier's operator is div(S^-1 grad .)
    np.testing.assert_array_equal(result.multiplier.aniso, np.linalg.inv(weights))
    # minimizer formula also descends
    result_min = adjust_full(
        inject(EX51.data), weights, EX51.domain, KernelParams(0.5), 5,
        quad=midpoint_rule(EX51.domain, 8), formula=MINIMIZER, exact=EX51.exact,
    )
    assert result_min.metrics.j_after <= result_min.metrics.j_before


def test_face_policy_validation():
    with pytest.raises(ContractError):
        FaceBcPolicy(bottom="sealed")


@pytest.mark.parametrize(
    "run",
    [
        lambda: adjust(EX51.data, EX51.domain, KernelParams(0.1), 3, formula="bogus"),
        lambda: adjust_full(inject(EX51.data), np.eye(3), EX51.domain, KernelParams(0.1), 3, formula="bogus"),
    ],
    ids=["adjust-formula", "full-formula"],
)
def test_bad_options_fail_before_assembly(run, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("the system was assembled before the options were checked")

    # the package attribute masscons.adjust is the function; patch the module
    monkeypatch.setattr(importlib.import_module("masscons.adjust"), "assemble", no_assembly)
    with pytest.raises(ContractError):
        run()


def _sealed_vertical_base(formula):
    # A constant updraft under a sealed bottom and xmax: the closed-form ratio
    # presumes a vanishing boundary term, which these faces do not give.
    return adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 3,
        w_b=2.0,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH, xmax=NO_FLOW_THROUGH),
        formula=formula, quad=midpoint_rule(EX51.domain, 12),
    )


def test_ascending_step_raises_non_descent():
    with pytest.raises(NonDescentError, match=r"j_before = .* j_after = .*closed-form"):
        _sealed_vertical_base(CLOSED_FORM)
    result = _sealed_vertical_base(MINIMIZER)
    assert result.metrics.j_after < result.metrics.j_before


@pytest.mark.parametrize(
    "run",
    [
        lambda: adjust(EX51.data, EX51.domain, KernelParams(0.1), 3, quad=midpoint_rule(EX51.domain, 2)),
        lambda: sasaki(
            inject(EX51.data), np.diag([1.0, 2.0, 4.0]), EX51.domain, KernelParams(0.1), 3,
            quad=midpoint_rule(EX51.domain, 2),
        ),
    ],
    ids=["adjust", "sasaki"],
)
def test_grid_too_large_for_memory_fails_before_assembly(run, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("the system was assembled before the memory check")

    monkeypatch.setattr(importlib.import_module("masscons.adjust"), "assemble", no_assembly)
    # One budget serves the quadrature and the grid: 1000 bytes hold the 2^3
    # quadrature nodes (448 bytes), but 27 nodes need 3 * 27^2 float64 = 17496
    monkeypatch.setattr(importlib.import_module("masscons.fields"), "_physical_memory", lambda: 1000)
    with pytest.raises(DomainError, match=r"27 nodes needs about 17496 bytes.* 1000 bytes"):
        run()


def _hill(box, amplitude=2.0, width=3.0):
    """``box`` with a Gaussian hill of ``amplitude`` and ``width`` over its centre as its terrain."""
    x0, y0 = 0.5 * (box.xmin + box.xmax), 0.5 * (box.ymin + box.ymax)
    bump = lambda x, y: amplitude * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)
    grad = lambda x, y: np.stack(
        [-2.0 * (x - x0) / width**2 * bump(x, y), -2.0 * (y - y0) / width**2 * bump(x, y)], axis=-1
    )
    return replace(box, terrain=Topography(height=lambda x, y: box.zmin + bump(x, y), grad=grad))


def _ex51_flat(weights=None):
    quad = midpoint_rule(EX51.domain, 12)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(1e-3), 4, weights=weights,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX51.exact,
    )
    return result, quad, EX51.domain


def _ex51_flat_non_scalar_weight():
    # The misfit of a non-scalar S has no analytic divergence: div r is central
    # differences of r, the right-hand side's, and L lambda stays analytic.
    return _ex51_flat(np.diag([2.0, 1.0]))


def _ex53_sasaki_hill():
    weights = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])
    box = _hill(EX53.domain)
    quad = midpoint_rule(box, 8)
    result = sasaki(
        inject(EX53.data), weights, box, KernelParams(0.01), 4,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX53.exact,
    )
    return result, quad, box


@pytest.mark.parametrize(
    "make",
    [_ex51_flat, _ex53_sasaki_hill, _ex51_flat_non_scalar_weight],
    ids=["ex51", "ex53-sasaki-hill", "ex51-non-scalar-s"],
)
def test_analytic_divergence_matches_fd_oracle(make):
    result, quad, box = make()
    h = 1e-5 * box.diameter()
    fd = divergence_fd(result.u_plus, quad.nodes, h, box=box)
    # At this step the oracle's error is roundoff of the field values over h
    # (2e-6 on ex51 at N = 512), which grows with the coefficient size and
    # shrinks as 1/h; its spread against the step 2h measures it on this run.
    atol = 4.0 * np.abs(fd - divergence_fd(result.u_plus, quad.nodes, 2.0 * h, box=box)).max() + 1e-9
    np.testing.assert_allclose(result.node_div, fd, rtol=0, atol=atol)
    # div_mean is the quadrature-weighted mean; the hill's weights differ node to node
    assert abs(result.metrics.div_mean - np.sum(quad.weights * fd) / np.sum(quad.weights)) <= atol
    assert abs(result.metrics.div_max - np.max(np.abs(fd))) <= atol
    # the cached node values are u_plus at the nodes
    np.testing.assert_allclose(result.node_values, result.u_plus(quad.nodes), rtol=0, atol=1e-12)


def test_non_scalar_weight_row_makes_one_multiplier_jet(monkeypatch):
    # The divergence of u_plus at the quadrature nodes comes from the same jet
    # as its values, even where the misfit's divergence is central differences.
    calls = []
    jet = MultiplierSolution.jet
    monkeypatch.setattr(MultiplierSolution, "jet", lambda self, pts: calls.append(len(pts)) or jet(self, pts))
    quad = midpoint_rule(EX51.domain, 8)
    result = adjust(
        EX51.data, EX51.domain, KernelParams(0.1), 4, weights=np.diag([2.0, 1.0]),
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH), quad=quad, exact=EX51.exact,
    )
    assert calls == [len(quad.nodes)]
    assert np.isfinite(result.metrics.div_mean) and np.isfinite(result.metrics.div_max)


def _nan_on_ground(pts):
    # finite at every quadrature node; NaN on the z = 0 face, where the
    # sealed ground reads the misfit flux, so only the system's right-hand side sees it
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
                w_b=float("nan"), quad=quad,
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
            "right-hand side",
        ),
    ],
    ids=["nan-data", "nan-base", "inf-initial", "nan-rhs"],
)
def test_non_finite_input_raises_domain_error(run, match):
    with pytest.raises(DomainError, match=match):
        run(midpoint_rule(EX51.domain, 6))


def test_quadrature_node_outside_the_box_raises_domain_error():
    # The data and the direction evaluate anywhere, so a node at x = 100 on a
    # box of -2 <= x <= 2 would otherwise give a row that reads as a success.
    quad = midpoint_rule(EX51.domain, 6)
    nodes = quad.nodes.copy()
    nodes[0, 0] = 100.0
    with pytest.raises(DomainError, match=r"^1 quadrature node\(s\) outside the problem's box$"):
        adjust(EX51.data, EX51.domain, KernelParams(0.1), 3, quad=Quadrature(nodes, quad.weights), exact=EX51.exact)
