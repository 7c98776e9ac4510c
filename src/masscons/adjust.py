"""Divergence-free adjustment of a 3D field by a line search.

One pipeline serves two problems. A :class:`Problem` states the whole
constrained problem: the residual field r = r(u_c) at the base u_c, the
observed width k (the order of the weight matrix S), a 3x3 metric G, and
the box (with its terrain) and face policy of the constraint:

  horizontal data   r = M* ( S (M u_c - data) ),  k = 2, G = I,
  full observation  r = u_c - initial,             k = 3, G = S.

The problem also holds its base, the updraft u_c = (0, 0, w_b): w_b is
given to the horizontal problem (zero by default), a modelling input the
data cannot see, and is zero for full observation. Neither observes
anything of u_c, so r and div r are settled once, with the problem, as is
the exact field, when one is known. :func:`adjust`, the one entry, runs the
line search about u_c as one straight pass with one multiplier system and
one solve:

  1. residual    r, the problem's,
  2. multiplier  div(G^-1 grad lambda) = div r in the volume, with per-face
                 boundary conditions (lambda = 0, or
                 (G^-1 grad lambda) . nu = r . nu),
  3. direction   p = -r + G^-1 grad lambda, divergence-free by construction,
  4. step        t minimizing the quadratic restriction of the objective
                 along p, or the closed-form ratio <G p, p> / <S Mp, Mp>,
  5. adjusted    u_plus = u_c + t p.

The solve also estimates the condition number of the system, whose matrix
it consumes. With full observation the closed-form ratio is exactly one, so
the search from zero is the classical one-shot (Sasaki) adjustment
u_plus = initial + S^-1 grad lambda: :func:`sasaki` is :func:`adjust` with
the closed-form step.

The line search and the diagnostics need p at the quadrature nodes (by
default :func:`~masscons.fields.gauss2_rule`'s), which must lie in the
problem's box; one multiplier jet there gives both its values and its
divergence div p = -div r + L lambda (L the multiplier's interior operator,
analytic). div r is the one the problem settles through :func:`poisson_rhs`,
which the system's right-hand side also uses: analytic, or central
differences of r where r has none (a non-scalar 2x2 S).
The divergence of u_plus is t div p, so ``div_mean``/``div_max`` and the node
arrays on the result cost no further kernel sums. ``rel_error`` and
``div_mean`` are quadrature-weighted (an L2 ratio and a mean over the volume);
``div_max`` is the largest |div u_plus| at the nodes.

Face policies map each face to one of the kinds below; :func:`boundary_data`
turns them into a Neumann mask, values and conormals per boundary node:

  flow-through     mass crosses the face; the multiplier is pinned to zero,
  no-flow-through  sealed face (terrain): the direction's normal component
                   is forced to zero via a Neumann condition on lambda,
  oracle-neumann   Neumann data manufactured from a known exact field so the
                   continuum direction reproduces the exact correction;
                   verification harness only, flagged in outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .collocation import (
    _SOLVE_BYTES_PER_PAIR,
    DEFAULT_TRUNC_TOL,
    GramSystem,
    MultiplierSolution,
    assemble,
    factorize_and_solve,
)
from .errors import ContractError, DegenerateDirectionError, DomainError, NonDescentError
from .fields import (
    Field2,
    Field3,
    Quadrature,
    _require_memory,
    _weighted_sum,
    add_scaled,
    divergence_fd,
    gauss2_rule,
    updraft,
    validate_weights,
)
from .fields import midpoint_rule  # noqa: F401  # unused; the benchmark's tracer patches this name
from .geometry import BoxDomain, FaceLabel, NodeSet, grid_centers
from .kernel import KernelParams

__all__ = [
    "FLOW_THROUGH",
    "NO_FLOW_THROUGH",
    "ORACLE_NEUMANN",
    "FACE_POLICIES",
    "MINIMIZER",
    "CLOSED_FORM",
    "FORMULAS",
    "FaceBcPolicy",
    "Problem",
    "Metrics",
    "AdjustmentResult",
    "misfit",
    "poisson_rhs",
    "boundary_data",
    "build_system",
    "descent_direction",
    "adjust",
    "sasaki",
]

log = logging.getLogger(__name__)

FLOW_THROUGH = "flow-through"
NO_FLOW_THROUGH = "no-flow-through"
ORACLE_NEUMANN = "oracle-neumann"
FACE_POLICIES = (FLOW_THROUGH, NO_FLOW_THROUGH, ORACLE_NEUMANN)

MINIMIZER = "minimizer"
CLOSED_FORM = "closed-form"
FORMULAS = (MINIMIZER, CLOSED_FORM)

# Relative threshold below which <S Mp, Mp> counts as zero observed content.
_DEGENERATE_RTOL = 1e-14
# Relative rise of the objective over the line search that counts as ascent.
_DESCENT_RTOL = 1e-12


@dataclass(frozen=True)
class FaceBcPolicy:
    """One boundary policy per face of the box, named as the FaceLabel in lower case."""

    bottom: str = FLOW_THROUGH
    top: str = FLOW_THROUGH
    xmin: str = FLOW_THROUGH
    xmax: str = FLOW_THROUGH
    ymin: str = FLOW_THROUGH
    ymax: str = FLOW_THROUGH

    def __post_init__(self):
        for face, kind in self.items():
            if kind not in FACE_POLICIES:
                raise ContractError(f"unknown boundary policy {kind!r} on face {face}")

    @classmethod
    def uniform(cls, kind: str) -> "FaceBcPolicy":
        return cls(**{f.name: kind for f in fields(cls)})

    def items(self):
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))

    def faces(self, *kinds: str) -> list[FaceLabel]:
        """The labels of the faces whose policy is one of ``kinds``."""
        return [FaceLabel[face.upper()] for face, kind in self.items() if kind in kinds]


@dataclass(frozen=True, eq=False)
class Problem:
    """The constrained problem: what the line search observes, where, and from which base.

    ``residual`` is r(u_c) at the line search's base u_c = ``base``, whose
    first k = len(weights) components, compared with ``observed`` under the
    k x k weights S, are zero; it carries the divergence :func:`poisson_rhs`
    gives it. ``metric`` is the 3x3 G of the multiplier operator
    div(G^-1 grad .) and of the closed-form step numerator <G p, p>, and
    ``aniso`` is G^-1, or None for the plain Laplacian. ``box`` is the domain
    with its terrain and ``policy`` the condition on each of its faces, which
    the constructors default to flow-through on every face. ``exact`` is the
    known field, if any: it gives the line search's ``rel_error`` and the
    oracle-neumann faces' flux, so such a face without it raises ContractError
    here. ``name`` labels the observed values in error messages.
    """

    residual: Field3
    observed: Field2 | Field3
    weights: np.ndarray
    metric: np.ndarray
    name: str
    box: BoxDomain
    policy: FaceBcPolicy
    base: Field3
    exact: Field3 | None = None
    aniso: np.ndarray | None = field(init=False)

    def __post_init__(self):
        if self.exact is None and self.policy.faces(ORACLE_NEUMANN):
            raise ContractError("oracle-neumann boundary data requires the exact field")
        object.__setattr__(self, "residual", Field3(self.residual.fn, poisson_rhs(self.residual, self.box)))
        isotropic = np.array_equal(self.metric, np.eye(3))
        object.__setattr__(self, "aniso", None if isotropic else np.linalg.inv(self.metric))

    @classmethod
    def horizontal(
        cls, data: Field2, box: BoxDomain, weights=None, *, w_b: float = 0.0,
        policy: FaceBcPolicy | None = None, exact: Field3 | None = None,
    ) -> "Problem":
        """Horizontal data about u_c = (0, 0, w_b): r = M* ( S (M u_c - data) ), k = 2, G = I."""
        w = validate_weights(weights if weights is not None else np.eye(2), 2)
        return cls(misfit(data, w), data, w, np.eye(3), "data", box, policy or FaceBcPolicy(), updraft(w_b), exact)

    @classmethod
    def full(
        cls, initial: Field3, box: BoxDomain, weights, *,
        policy: FaceBcPolicy | None = None, exact: Field3 | None = None,
    ) -> "Problem":
        """Full observation from u_c = 0: r = u_c - initial, k = 3, G = S."""
        w, base = validate_weights(weights, 3), updraft()
        residual = add_scaled(base, -1.0, initial)
        return cls(residual, initial, w, w, "initial", box, policy or FaceBcPolicy(), base, exact)


@dataclass(frozen=True)
class Metrics:
    """The line search's numbers; the solve's (rank, residuals, kappa) are on :class:`MultiplierSolution`."""

    rel_error: float
    div_mean: float
    div_max: float
    j_before: float
    j_after: float


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
    metrics: Metrics
    node_values: np.ndarray
    node_div: np.ndarray
    oracle_bc: bool = False


def misfit(data: Field2, weights) -> Field3:
    """The horizontal misfit field M* ( S (M u_c - data) ) of an updraft u_c; vertical component zero.

    An updraft has no horizontal part, so M u_c - data is 0.0 - data. When S
    is a multiple of the identity and the data carry their divergence, the
    misfit carries an analytic divergence as well.
    """
    w = validate_weights(weights, 2)

    def fn(pts):
        v = 0.0 - data.fn(pts)
        out = np.zeros((len(pts), 3))
        out[:, :2] = v @ w.T
        return out

    div = None
    if w[0, 1] == 0.0 and w[1, 0] == 0.0 and w[0, 0] == w[1, 1] and data.hdiv is not None:
        alpha = w[0, 0]
        div = lambda pts: alpha * (0.0 - data.hdiv(pts))
    return Field3(fn=fn, div=div)


def poisson_rhs(residual_field: Field3, box: BoxDomain):
    """Source term for the multiplier equation: the divergence of the residual.

    Analytic when the residual carries one, else central differences with
    step 1e-5 times the domain diameter.
    """
    if residual_field.div is not None:
        return residual_field.div
    h = 1e-5 * box.diameter()
    return lambda pts: divergence_fd(residual_field, pts, h)


def boundary_data(problem: Problem, nodes: NodeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary rows realizing the problem's face policy, aligned with ``nodes.boundary``.

    Returns the Neumann mask, the values and the conormals that
    :func:`~masscons.collocation.assemble` takes. flow-through pins lambda to
    zero. no-flow-through prescribes (A grad lambda) . nu = r . nu, collocated
    as grad lambda . (A nu) with A = ``problem.aniso`` (the identity when
    None), so the direction's normal component vanishes. oracle-neumann
    prescribes the flux (exact - u_c + r) . nu about the problem's base u_c
    from its exact field,
    which turns the direction into the exact correction. The conormal is nu,
    or A nu, on every row.
    """
    idx = nodes.boundary
    pts = nodes.points[idx]
    normals = nodes.normals[idx]
    neumann = np.isin(nodes.labels[idx], problem.policy.faces(NO_FLOW_THROUGH, ORACLE_NEUMANN))
    oracle = np.isin(nodes.labels[idx], problem.policy.faces(ORACLE_NEUMANN))

    flux = problem.residual(pts)
    if oracle.any():
        oracle_vals = problem.exact(pts) - problem.base(pts) + flux
        flux = np.where(oracle[:, None], oracle_vals, flux)

    # Batched matmul gives each row the bits of its own 3-vector product.
    values = np.zeros(len(idx))
    values[neumann] = np.matmul(flux[neumann][:, None, :], normals[neumann][:, :, None])[:, 0, 0]
    conormals = normals if problem.aniso is None else np.matmul(problem.aniso, normals[:, :, None])[:, :, 0]

    if len(idx) and neumann.all():
        log.warning(
            "all boundary conditions are Neumann: the system is rank deficient up to a "
            "constant; the truncated solve returns the minimal-norm multiplier"
        )
    return neumann, values, conormals


def build_system(problem: Problem, kernel: KernelParams, n_per_axis: int) -> GramSystem:
    """The multiplier system of ``problem`` on the n^3 centres :func:`grid_centers` places in its box, unsolved.

    The line search and dump-gram both build a row's system here. A grid
    whose dense solve would not fit in physical memory raises DomainError
    before its nodes are built. A right-hand side that is not finite raises
    DomainError.
    """
    n = n_per_axis**3
    _require_memory(f"a grid of {n} nodes", _SOLVE_BYTES_PER_PAIR * n * n, "the dense solve")
    nodes = grid_centers(problem.box, n_per_axis)
    # Data that overflow give a right-hand side of inf or NaN, which fails below
    # by name, so the data are evaluated quietly: the boundary rows here, the
    # source where assemble calls it. The matrix's kernel arithmetic keeps its
    # warnings, because no finiteness check follows it.
    quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet:
        rows = boundary_data(problem, nodes)
    system = assemble(nodes, kernel, *rows, quiet(problem.residual.div), aniso=problem.aniso)
    if not np.all(np.isfinite(system.rhs)):
        raise DomainError("the right-hand side of the multiplier system is not finite")
    return system


def _direction_jet(residual_field: Field3, solution: MultiplierSolution, pts: np.ndarray):
    """Values of p at (m, 3) points and its divergence -div r + L lambda."""
    _, grad, op = solution.jet(pts)
    if solution.aniso is not None:
        grad = grad @ solution.aniso
    return -residual_field.fn(pts) + grad, -residual_field.div(pts) + op


def descent_direction(residual_field: Field3, solution: MultiplierSolution) -> Field3:
    """Steepest-descent direction p = -r + A grad lambda (A the identity when isotropic).

    r must carry its divergence, as a :class:`Problem`'s residual carries the
    one :func:`poisson_rhs` gives it. The divergence of p, -div r + L lambda,
    vanishes at the collocation nodes up to the linear-solve residual.
    """
    if residual_field.div is None:
        raise ContractError("the descent direction needs the residual's divergence")
    return Field3(
        fn=lambda pts: _direction_jet(residual_field, solution, pts)[0],
        div=lambda pts: _direction_jet(residual_field, solution, pts)[1],
    )


def _require_finite(what: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} at the quadrature nodes are not finite")


def _step(
    vals_p: np.ndarray,
    misfit_obs: np.ndarray,
    w: np.ndarray,
    metric: np.ndarray,
    qw: np.ndarray,
    formula: str,
) -> float:
    """Step along p from its node values and the observed misfit M u_c - observed."""
    mp = vals_p[:, : len(w)]
    denom = _weighted_sum(mp, w, mp, qw)
    pp = _weighted_sum(vals_p, metric, vals_p, qw)
    if denom <= _DEGENERATE_RTOL * pp or denom <= 0.0:
        raise DegenerateDirectionError(
            f"direction has no observed content (<S Mp, Mp> = {denom:.3e}, <G p, p> = {pp:.3e})"
        )
    if formula == CLOSED_FORM:
        t = pp / denom
    else:
        t = -_weighted_sum(misfit_obs, w, mp, qw) / denom
    if not np.isfinite(t):
        raise DomainError(f"step length is not finite ({t})")
    return t


def _relative_error(vals_uplus: np.ndarray, exact: Field3 | None, nodes: np.ndarray, rel_w: np.ndarray) -> float:
    """sqrt(sum w |u_plus - exact|^2 / sum w |exact|^2) over the nodes; NaN without ``exact``."""
    if exact is None:
        return float("nan")
    vals_exact = exact(nodes)
    num = np.sum(rel_w * np.sum((vals_uplus - vals_exact) ** 2, axis=1))
    return float(np.sqrt(num) / np.sqrt(np.sum(rel_w * np.sum(vals_exact**2, axis=1))))


def adjust(
    problem: Problem,
    kernel: KernelParams,
    n_per_axis: int,
    *,
    formula: str = MINIMIZER,
    quad: Quadrature | None = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> AdjustmentResult:
    """The line search of ``problem`` from its base u_c, on the n^3 centres of its box.

    A quadrature node outside the problem's box raises DomainError. A step
    that ends with a larger objective than it started from raises
    NonDescentError; a metric that is not finite (``rel_error`` only when
    the problem has its exact field) raises DomainError naming it.
    """
    if formula not in FORMULAS:
        raise ContractError(f"unknown step formula {formula!r}")
    quad = quad if quad is not None else gauss2_rule(problem.box)
    outside = ~problem.box.contains(quad.nodes)
    if outside.any():
        raise DomainError(f"{int(outside.sum())} quadrature node(s) outside the problem's box")
    w, k, qw, exact = problem.weights, len(problem.weights), quad.weights, problem.exact

    # Values that overflow fail here by name.
    with np.errstate(over="ignore", invalid="ignore"):
        vals_obs = problem.observed(quad.nodes)
        vals_uc = problem.base(quad.nodes)
    _require_finite(f"{problem.name} values", vals_obs)
    _require_finite("base field values", vals_uc)
    objective = lambda d: 0.5 * _weighted_sum(d, w, d, qw)  # J of the observed misfit d = M u - observed
    d = vals_uc[:, :k] - vals_obs
    j_before = objective(d)

    system = build_system(problem, kernel, n_per_axis)
    solution = factorize_and_solve(system, trunc_tol=trunc_tol)
    p = descent_direction(problem.residual, solution)
    vals_p, div_p = _direction_jet(problem.residual, solution, quad.nodes)
    t = _step(vals_p, d, w, problem.metric, qw, formula)
    vals_uc = vals_uc + t * vals_p
    div = 0.0 + t * div_p
    j_after = objective(vals_uc[:, :k] - vals_obs)
    if j_after > j_before * (1.0 + _DESCENT_RTOL):
        raise NonDescentError(
            f"the line search raised the objective from j_before = {j_before:.6e} "
            f"to j_after = {j_after:.6e} (formula {formula})"
        )
    # The node metrics weight each node by its quadrature weight over the largest:
    # equal weights then give the plain mean bit for bit, and tiny weights do not
    # underflow in the sums. div_max is the max over the nodes. A metric that
    # overflows fails the row below, by name; NumPy need not warn first.
    rel_w = qw / qw.max()
    with np.errstate(over="ignore", invalid="ignore"):
        values = dict(
            rel_error=_relative_error(vals_uc, exact, quad.nodes, rel_w),
            div_mean=float(np.sum(rel_w * div) / np.sum(rel_w)),
            div_max=float(np.max(np.abs(div))), j_before=j_before, j_after=j_after,
        )
    for name, value in values.items():
        if not np.isfinite(value) and (exact is not None or name != "rel_error"):
            raise DomainError(f"{name} is not finite ({value})")
    return AdjustmentResult(
        t_c=t, p=p, u_plus=add_scaled(problem.base, t, p), multiplier=solution, metrics=Metrics(**values),
        node_values=vals_uc, node_div=div, oracle_bc=bool(problem.policy.faces(ORACLE_NEUMANN)),
    )


def sasaki(
    problem: Problem,
    kernel: KernelParams,
    n_per_axis: int,
    *,
    quad: Quadrature | None = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> AdjustmentResult:
    """The line search with the closed-form step: on a full-observation problem, Sasaki's (1970) field.

    There the multiplier solves div(S^-1 grad lambda) = -div initial with
    boundary conditions (-initial - S^-1 grad lambda) . nu = 0 or lambda = 0
    per face, the direction is p = initial + S^-1 grad lambda, and the step
    is exactly one, so u_plus = initial + S^-1 grad lambda.
    """
    return adjust(problem, kernel, n_per_axis, formula=CLOSED_FORM, quad=quad, trunc_tol=trunc_tol)


adjust_full = sasaki  # unused; the benchmark's tracer patches this name
