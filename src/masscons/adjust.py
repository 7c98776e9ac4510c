"""Divergence-free adjustment of a 3D field by a single line-search step.

Incomplete-data pipeline (horizontal observations ``data``, base field u_c,
2x2 weight matrix S):

  1. misfit      m = M* ( S (M u_c - data) ), a horizontal field,
  2. multiplier  lap lambda = div m in the volume, with per-face boundary
                 conditions (lambda = 0, or grad lambda . nu = m . nu),
  3. direction   p = -m + grad lambda, divergence-free by construction,
  4. step        t minimizing the quadratic restriction of the objective
                 along p (or the closed-form descent ratio),
  5. adjusted    u_plus = u_c + t p.

The line search and the diagnostics need p at the quadrature nodes; one
multiplier jet there gives both its values and its analytic divergence
div p = -div m + L lambda (L the multiplier's interior operator). The
divergence of u_plus is composed through the step like its values, so
``div_mean``/``div_max`` and the node arrays on the result cost no further
kernel sums. Only when an analytic divergence is missing (a non-scalar 2x2
S, or a base field without one) do they fall back to the central-difference
oracle :func:`~masscons.fields.divergence_fd`.

Full-observation pipeline (3D initial field, 3x3 weights): the same chain in
the S-weighted geometry, with residual r = u_c - initial, anisotropic
multiplier equation div(S^-1 grad lambda) = div r, direction
p = -(r - S^-1 grad lambda), and analytic step length one. With u_c = 0 this
is the classical one-shot (Sasaki) adjustment u_plus = initial + S^-1 grad
lambda.

Face policies map each face to one of:

  flow-through     mass crosses the face; the multiplier is pinned to zero,
  no-flow-through  sealed face (terrain): the direction's normal component
                   is forced to zero via a Neumann condition on lambda,
  field-dirichlet  the normal trace is considered known and already carried
                   by the base field; numerically identical to
                   no-flow-through, kept distinct for bookkeeping,
  oracle-neumann   Neumann data manufactured from a known exact field so the
                   continuum direction reproduces the exact correction;
                   verification harness only, flagged in outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .collocation import (
    DirichletLambda,
    GramSystem,
    MultiplierSolution,
    NeumannLambda,
    assemble,
    condition_number,
    factorize_and_solve,
)
from .errors import ContractError, DegenerateDirectionError, DomainError
from .fields import (
    Field2,
    Field3,
    Quadrature,
    add_scaled,
    divergence_fd,
    inject,
    midpoint_rule,
    subtract,
    validate_weights,
    zero3,
)
from .geometry import BoxDomain, FaceLabel, NodeSet, Topography, grid_centers
from .kernel import KernelParams

__all__ = [
    "FLOW_THROUGH",
    "NO_FLOW_THROUGH",
    "FIELD_DIRICHLET",
    "ORACLE_NEUMANN",
    "MINIMIZER",
    "CLOSED_FORM",
    "FaceBcPolicy",
    "BaseFieldPolicy",
    "Metrics",
    "AdjustmentResult",
    "misfit",
    "poisson_rhs",
    "boundary_data",
    "descent_direction",
    "step_length",
    "adjust",
    "adjust_full",
    "sasaki",
]

log = logging.getLogger(__name__)

FLOW_THROUGH = "flow-through"
NO_FLOW_THROUGH = "no-flow-through"
FIELD_DIRICHLET = "field-dirichlet"
ORACLE_NEUMANN = "oracle-neumann"
_POLICIES = (FLOW_THROUGH, NO_FLOW_THROUGH, FIELD_DIRICHLET, ORACLE_NEUMANN)

MINIMIZER = "minimizer"
CLOSED_FORM = "closed-form"
_FORMULAS = (MINIMIZER, CLOSED_FORM)

# Relative threshold below which <S Mp, Mp> counts as zero horizontal content.
_DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class FaceBcPolicy:
    """One boundary policy per face of the box."""

    bottom: str = FLOW_THROUGH
    top: str = FLOW_THROUGH
    xmin: str = FLOW_THROUGH
    xmax: str = FLOW_THROUGH
    ymin: str = FLOW_THROUGH
    ymax: str = FLOW_THROUGH

    def __post_init__(self):
        for face, kind in self.items():
            if kind not in _POLICIES:
                raise ContractError(f"unknown boundary policy {kind!r} on face {face}")

    @classmethod
    def uniform(cls, kind: str) -> "FaceBcPolicy":
        return cls(**{f: kind for f in ("bottom", "top", "xmin", "xmax", "ymin", "ymax")})

    def items(self):
        return (
            ("bottom", self.bottom),
            ("top", self.top),
            ("xmin", self.xmin),
            ("xmax", self.xmax),
            ("ymin", self.ymin),
            ("ymax", self.ymax),
        )

    def for_label(self, label: FaceLabel) -> str:
        return {
            FaceLabel.BOTTOM: self.bottom,
            FaceLabel.TOP: self.top,
            FaceLabel.XMIN: self.xmin,
            FaceLabel.XMAX: self.xmax,
            FaceLabel.YMIN: self.ymin,
            FaceLabel.YMAX: self.ymax,
        }[label]


@dataclass(frozen=True)
class BaseFieldPolicy:
    """How the base field u_c is built from the data.

    kinds: ``zero``; ``inject`` (u_c = M* data, the trivial horizontal
    minimum, which makes the misfit vanish identically); ``inject+vertical``
    (M* data plus a constant updraft w_b); ``vertical`` (just the constant
    updraft); ``custom`` (any Field3).
    """

    kind: str = "zero"
    w_b: float = 1.0
    custom: Field3 | None = None

    _KINDS = ("zero", "inject", "inject+vertical", "vertical", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ContractError(f"unknown base field kind {self.kind!r}")
        if self.kind == "custom" and self.custom is None:
            raise ContractError("custom base field policy requires a field")

    @classmethod
    def zero(cls) -> "BaseFieldPolicy":
        return cls(kind="zero")

    @classmethod
    def inject_data(cls) -> "BaseFieldPolicy":
        return cls(kind="inject")

    @classmethod
    def inject_plus_vertical(cls, w_b: float) -> "BaseFieldPolicy":
        return cls(kind="inject+vertical", w_b=w_b)

    @classmethod
    def vertical(cls, w_b: float) -> "BaseFieldPolicy":
        return cls(kind="vertical", w_b=w_b)

    @classmethod
    def custom_field(cls, field: Field3) -> "BaseFieldPolicy":
        return cls(kind="custom", custom=field)

    def build(self, data: Field2) -> Field3:
        if self.kind == "zero":
            return zero3()
        if self.kind == "inject":
            return inject(data)
        if self.kind == "inject+vertical":
            vertical = np.array([0.0, 0.0, self.w_b])
            base = inject(data)
            return Field3(
                fn=lambda pts: base.fn(pts) + vertical,
                div=base.div,
                hdiv=base.hdiv,
            )
        if self.kind == "vertical":
            w = self.w_b
            zero = lambda pts: np.zeros(len(pts))
            return Field3(
                fn=lambda pts: np.column_stack(
                    [np.zeros(len(pts)), np.zeros(len(pts)), np.full(len(pts), w)]
                ),
                div=zero,
                hdiv=zero,
            )
        return self.custom


@dataclass(frozen=True)
class Metrics:
    rel_error: float
    div_mean: float
    div_max: float
    kappa: float
    j_before: float
    j_after: float
    residual: float
    residual_norm: float


@dataclass(frozen=True)
class AdjustmentResult:
    """Step length, direction, adjusted field, multiplier, and diagnostics.

    ``node_values`` and ``node_div`` are u_plus and its divergence at the
    quadrature nodes the adjustment ran on, (m, 3) and (m,).
    """

    t_c: float
    p: Field3
    u_plus: Field3
    multiplier: MultiplierSolution
    gram: GramSystem
    metrics: Metrics
    node_values: np.ndarray
    node_div: np.ndarray
    oracle_bc: bool = False


def misfit(u_c: Field3, data: Field2, weights) -> Field3:
    """The horizontal misfit field M* ( S (M u_c - data) ); vertical component zero.

    When S is a multiple of the identity and both horizontal divergences are
    analytic, the misfit carries an analytic divergence as well.
    """
    w = validate_weights(weights, 2)

    def fn(pts):
        v = u_c.fn(pts)[:, :2] - data.fn(pts)
        out = np.zeros((len(pts), 3))
        out[:, :2] = v @ w.T
        return out

    div = None
    scalar_weight = w[0, 1] == 0.0 and w[1, 0] == 0.0 and w[0, 0] == w[1, 1]
    if scalar_weight and u_c.hdiv is not None and data.hdiv is not None:
        alpha = w[0, 0]
        div = lambda pts: alpha * (u_c.hdiv(pts) - data.hdiv(pts))

    return Field3(fn=fn, div=div, hdiv=div)


def poisson_rhs(misfit_field: Field3, box: BoxDomain):
    """Source term for the multiplier equation: the divergence of the misfit.

    Analytic when the misfit carries one, else central differences with step
    1e-5 times the domain diameter.
    """
    if misfit_field.div is not None:
        return misfit_field.div
    h = 1e-5 * box.diameter()
    return lambda pts: divergence_fd(misfit_field, pts, h)


def boundary_data(
    policy: FaceBcPolicy,
    misfit_field: Field3,
    nodes: NodeSet,
    exact: Field3 | None = None,
    base: Field3 | None = None,
) -> dict[int, DirichletLambda | NeumannLambda]:
    """Per-node boundary conditions realizing the face policies.

    flow-through pins lambda to zero. no-flow-through and field-dirichlet
    prescribe grad lambda . nu = m . nu so the direction's normal component
    vanishes. oracle-neumann prescribes grad lambda . nu = (exact - u_c + m) . nu,
    the flux of the multiplier whose gradient turns the direction into the
    exact correction.
    """
    idx = nodes.boundary
    pts = nodes.points[idx]
    normals = nodes.normals[idx]
    m_vals = misfit_field(pts)

    kinds = [policy.for_label(FaceLabel(nodes.labels[i])) for i in idx]
    if any(k == ORACLE_NEUMANN for k in kinds):
        if exact is None:
            raise ContractError("oracle-neumann boundary data requires the exact field")
        base_field = base if base is not None else zero3()
        oracle_vals = exact(pts) - base_field(pts) + m_vals

    out: dict[int, DirichletLambda | NeumannLambda] = {}
    for row, (i, kind) in enumerate(zip(idx, kinds)):
        if kind == FLOW_THROUGH:
            out[int(i)] = DirichletLambda(0.0)
        elif kind in (NO_FLOW_THROUGH, FIELD_DIRICHLET):
            out[int(i)] = NeumannLambda(float(m_vals[row] @ normals[row]), normals[row])
        else:
            out[int(i)] = NeumannLambda(float(oracle_vals[row] @ normals[row]), normals[row])

    if out and all(isinstance(bc, NeumannLambda) for bc in out.values()):
        log.warning(
            "all boundary conditions are Neumann: the system is rank deficient up to a "
            "constant; the truncated solve returns the minimal-norm multiplier"
        )
    return out


def _direction_jet(misfit_field: Field3, solution: MultiplierSolution, pts: np.ndarray):
    """Values of p at (m, 3) points and its analytic divergence (None without div m)."""
    _, grad, op = solution.jet(pts)
    if solution.aniso is not None:
        grad = grad @ solution.aniso
    vals = -misfit_field.fn(pts) + grad
    div = None if misfit_field.div is None else -misfit_field.div(pts) + op
    return vals, div


def descent_direction(misfit_field: Field3, solution: MultiplierSolution) -> Field3:
    """Steepest-descent direction p = -m + grad lambda (or -r + A grad lambda).

    Its analytic divergence, -div m + L lambda, vanishes at the collocation
    nodes up to the linear-solve residual.
    """
    div = None
    if misfit_field.div is not None:
        div = lambda pts: _direction_jet(misfit_field, solution, pts)[1]
    return Field3(fn=lambda pts: _direction_jet(misfit_field, solution, pts)[0], div=div)


def _weighted_sum(a: np.ndarray, w: np.ndarray, b: np.ndarray, qw: np.ndarray) -> float:
    return float(np.sum(qw * np.einsum("ij,jk,ik->i", a, w, b)))


def _require_finite(what: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} at the quadrature nodes are not finite")


def _require_finite_step(t: float) -> None:
    if not np.isfinite(t):
        raise DomainError(f"step length is not finite ({t})")


def _step_from_arrays(
    vals_p: np.ndarray,
    vals_uc2: np.ndarray,
    vals_data: np.ndarray,
    w: np.ndarray,
    qw: np.ndarray,
    formula: str,
) -> float:
    if formula not in _FORMULAS:
        raise ContractError(f"unknown step formula {formula!r}")
    mp = vals_p[:, :2]
    denom = _weighted_sum(mp, w, mp, qw)
    pp = float(np.sum(qw * np.sum(vals_p * vals_p, axis=1)))
    if denom <= _DEGENERATE_RTOL * pp or denom <= 0.0:
        raise DegenerateDirectionError(
            f"direction has no horizontal content (<S Mp, Mp> = {denom:.3e}, <p, p> = {pp:.3e})"
        )
    if formula == CLOSED_FORM:
        t = pp / denom
    else:
        t = -_weighted_sum(vals_uc2 - vals_data, w, mp, qw) / denom
    _require_finite_step(t)
    return t


def step_length(
    p: Field3,
    u_c: Field3,
    data: Field2,
    weights,
    quad: Quadrature,
    formula: str = MINIMIZER,
) -> float:
    """Step along p. ``minimizer`` is the exact 1D minimizer of the objective;
    ``closed-form`` is the closed-form ratio <p,p> / <S Mp, Mp>, which
    presumes the boundary term of the integration by parts vanishes."""
    w = validate_weights(weights, 2)
    return _step_from_arrays(
        p(quad.nodes), u_c(quad.nodes)[:, :2], data(quad.nodes), w, quad.weights, formula
    )


def _node_divergence(
    div_uplus: np.ndarray | None, u_plus: Field3, quad: Quadrature, box: BoxDomain, check_box: bool
) -> np.ndarray:
    """The composed analytic divergence of u_plus at the nodes, else the FD oracle's."""
    if div_uplus is not None:
        return div_uplus
    h = 1e-5 * box.diameter()
    return divergence_fd(u_plus, quad.nodes, h, box=box if check_box else None)


def _relative_error(vals_uplus: np.ndarray, exact: Field3 | None, quad: Quadrature) -> float:
    if exact is None:
        return float("nan")
    vals_exact = exact(quad.nodes)
    return float(np.linalg.norm(vals_uplus - vals_exact) / np.linalg.norm(vals_exact))


def adjust(
    data: Field2,
    domain: BoxDomain,
    kernel: KernelParams,
    n_per_axis: int,
    *,
    topo: Topography | None = None,
    base: BaseFieldPolicy | None = None,
    weights=None,
    policy: FaceBcPolicy | None = None,
    formula: str = MINIMIZER,
    quad: Quadrature | None = None,
    trunc_tol: float = 1e-12,
    iterations: int = 1,
    exact: Field3 | None = None,
    row_scaling: bool = False,
) -> AdjustmentResult:
    """Run the incomplete-data line-search pipeline; one step by default.

    With ``iterations > 1`` the adjusted field becomes the next base field and
    the boundary data is rebuilt each pass. ``exact`` enables the relative
    error metric and is required by oracle-neumann faces.
    """
    base = base if base is not None else BaseFieldPolicy.zero()
    policy = policy if policy is not None else FaceBcPolicy.uniform(FLOW_THROUGH)
    w = validate_weights(weights if weights is not None else np.eye(2), 2)
    quad = quad if quad is not None else midpoint_rule(domain, 32, topo=topo)
    if iterations < 1:
        raise ContractError("iterations must be at least 1")

    nodes = grid_centers(domain, n_per_axis, topo=topo)
    u_c = base.build(data)
    vals_data = data(quad.nodes)
    vals_uc = u_c(quad.nodes)
    _require_finite("data values", vals_data)
    _require_finite("base field values", vals_uc)
    div_uc = None if u_c.div is None else u_c.divergence(quad.nodes)
    d0 = vals_uc[:, :2] - vals_data
    j_before = 0.5 * _weighted_sum(d0, w, d0, quad.weights)

    for _ in range(iterations):
        m = misfit(u_c, data, w)
        rhs = poisson_rhs(m, domain)
        bcs = boundary_data(policy, m, nodes, exact=exact, base=u_c)
        system = assemble(nodes, kernel, bcs, rhs)
        solution = factorize_and_solve(system, trunc_tol=trunc_tol, row_scaling=row_scaling)
        p = descent_direction(m, solution)
        vals_p, div_p = _direction_jet(m, solution, quad.nodes)
        t = _step_from_arrays(vals_p, vals_uc[:, :2], vals_data, w, quad.weights, formula)
        u_c = add_scaled(u_c, t, p)
        vals_uc = vals_uc + t * vals_p
        div_uc = None if div_uc is None or div_p is None else div_uc + t * div_p

    u_plus = u_c
    d1 = vals_uc[:, :2] - vals_data
    div = _node_divergence(div_uc, u_plus, quad, domain, check_box=topo is None)
    metrics = Metrics(
        rel_error=_relative_error(vals_uc, exact, quad),
        div_mean=float(np.mean(div)),
        div_max=float(np.max(np.abs(div))),
        kappa=condition_number(system),
        j_before=j_before,
        j_after=0.5 * _weighted_sum(d1, w, d1, quad.weights),
        residual=solution.residual,
        residual_norm=solution.residual_norm,
    )
    oracle = any(kind == ORACLE_NEUMANN for _, kind in policy.items())
    return AdjustmentResult(
        t_c=t, p=p, u_plus=u_plus, multiplier=solution, gram=system, metrics=metrics,
        node_values=vals_uc, node_div=div, oracle_bc=oracle,
    )


def _full_boundary_data(
    policy: FaceBcPolicy,
    residual_field: Field3,
    nodes: NodeSet,
    aniso: np.ndarray,
    initial: Field3,
    exact: Field3 | None,
) -> dict[int, DirichletLambda | NeumannLambda]:
    """Boundary data for the full-observation multiplier problem.

    Neumann faces prescribe (S^-1 grad lambda) . nu = r . nu, collocated as
    grad lambda . (S^-1 nu); oracle faces use (exact - initial) . nu.
    """
    idx = nodes.boundary
    pts = nodes.points[idx]
    normals = nodes.normals[idx]
    r_vals = residual_field(pts)

    kinds = [policy.for_label(FaceLabel(nodes.labels[i])) for i in idx]
    if any(k == ORACLE_NEUMANN for k in kinds):
        if exact is None:
            raise ContractError("oracle-neumann boundary data requires the exact field")
        oracle_vals = exact(pts) - initial(pts)

    out: dict[int, DirichletLambda | NeumannLambda] = {}
    for row, (i, kind) in enumerate(zip(idx, kinds)):
        if kind == FLOW_THROUGH:
            out[int(i)] = DirichletLambda(0.0)
            continue
        conormal = aniso @ normals[row]
        if kind in (NO_FLOW_THROUGH, FIELD_DIRICHLET):
            out[int(i)] = NeumannLambda(float(r_vals[row] @ normals[row]), conormal)
        else:
            out[int(i)] = NeumannLambda(float(oracle_vals[row] @ normals[row]), conormal)
    if out and all(isinstance(bc, NeumannLambda) for bc in out.values()):
        log.warning("all boundary conditions are Neumann: rank-deficient multiplier system")
    return out


def adjust_full(
    initial: Field3,
    weights,
    domain: BoxDomain,
    kernel: KernelParams,
    n_per_axis: int,
    *,
    topo: Topography | None = None,
    base_field: Field3 | None = None,
    policy: FaceBcPolicy | None = None,
    formula: str = CLOSED_FORM,
    quad: Quadrature | None = None,
    trunc_tol: float = 1e-12,
    exact: Field3 | None = None,
    row_scaling: bool = False,
) -> AdjustmentResult:
    """Full-observation line search: every component of ``initial`` is data.

    The multiplier solves div(S^-1 grad lambda) = div(u_c - initial) with
    boundary conditions (u_c - initial - S^-1 grad lambda) . nu = 0 or
    lambda = 0 per face, the direction is p = -(u_c - initial) + S^-1 grad
    lambda, and the closed-form step length is exactly one.
    """
    if formula not in _FORMULAS:
        raise ContractError(f"unknown step formula {formula!r}")
    w = validate_weights(weights, 3)
    policy = policy if policy is not None else FaceBcPolicy.uniform(FLOW_THROUGH)
    quad = quad if quad is not None else midpoint_rule(domain, 32, topo=topo)
    u_c = base_field if base_field is not None else zero3()

    identity = np.array_equal(w, np.eye(3))
    aniso = np.eye(3) if identity else np.linalg.inv(w)

    vals_init = initial(quad.nodes)
    vals_uc = u_c(quad.nodes)
    _require_finite("initial values", vals_init)
    _require_finite("base field values", vals_uc)

    nodes = grid_centers(domain, n_per_axis, topo=topo)
    residual_field = subtract(u_c, initial)
    rhs = poisson_rhs(residual_field, domain)
    bcs = _full_boundary_data(policy, residual_field, nodes, aniso, initial, exact)
    system = assemble(nodes, kernel, bcs, rhs, aniso=aniso)
    solution = factorize_and_solve(system, trunc_tol=trunc_tol, row_scaling=row_scaling)
    p = descent_direction(residual_field, solution)

    qw = quad.weights
    vals_p, div_p = _direction_jet(residual_field, solution, quad.nodes)
    # Full observation: M is the identity, so the denominator <S Mp, Mp> runs
    # over the observed components of p, which are all of them; the
    # closed-form ratio is exactly one.
    vals_mp = vals_p[:, :3]
    denom = _weighted_sum(vals_mp, w, vals_mp, qw)
    pp = _weighted_sum(vals_p, w, vals_p, qw)
    if denom <= _DEGENERATE_RTOL * pp or denom <= 0.0:
        raise DegenerateDirectionError("full-observation direction is identically zero")
    if formula == CLOSED_FORM:
        t = pp / denom
    else:
        t = -_weighted_sum(vals_uc - vals_init, w, vals_mp, qw) / denom
    _require_finite_step(t)

    u_plus = add_scaled(u_c, t, p)
    vals_uplus = vals_uc + t * vals_p
    div_uplus = None
    if u_c.div is not None and div_p is not None:
        div_uplus = u_c.divergence(quad.nodes) + t * div_p
    div = _node_divergence(div_uplus, u_plus, quad, domain, check_box=topo is None)
    d0 = vals_uc - vals_init
    d1 = vals_uplus - vals_init
    metrics = Metrics(
        rel_error=_relative_error(vals_uplus, exact, quad),
        div_mean=float(np.mean(div)),
        div_max=float(np.max(np.abs(div))),
        kappa=condition_number(system),
        j_before=0.5 * _weighted_sum(d0, w, d0, qw),
        j_after=0.5 * _weighted_sum(d1, w, d1, qw),
        residual=solution.residual,
        residual_norm=solution.residual_norm,
    )
    oracle = any(kind == ORACLE_NEUMANN for _, kind in policy.items())
    return AdjustmentResult(
        t_c=t, p=p, u_plus=u_plus, multiplier=solution, gram=system, metrics=metrics,
        node_values=vals_uplus, node_div=div, oracle_bc=oracle,
    )


def sasaki(
    initial: Field3,
    weights,
    domain: BoxDomain,
    kernel: KernelParams,
    n_per_axis: int,
    *,
    topo: Topography | None = None,
    policy: FaceBcPolicy | None = None,
    quad: Quadrature | None = None,
    trunc_tol: float = 1e-12,
    exact: Field3 | None = None,
    row_scaling: bool = False,
) -> AdjustmentResult:
    """Classical one-shot adjustment u_plus = initial + S^-1 grad lambda.

    This is :func:`adjust_full` with a zero base field and unit step; with
    identity weights it reduces to the isotropic pipeline bit for bit.
    """
    return adjust_full(
        initial,
        weights,
        domain,
        kernel,
        n_per_axis,
        topo=topo,
        base_field=zero3(),
        policy=policy,
        formula=CLOSED_FORM,
        quad=quad,
        trunc_tol=trunc_tol,
        exact=exact,
        row_scaling=row_scaling,
    )
