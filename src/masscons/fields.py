"""Vector fields, the adjoint of the horizontal observation, and quadrature.

Fields are thin wrappers around vectorized evaluators: a Field3 maps (m, 3)
points to (m, 3) values, a Field2 to (m, 2) horizontal values; any other
shape of points raises DomainError. A Field3 may carry an analytic
divergence (``div``), a Field2 the divergence of its two components
(``hdiv``), each checked to map (m, 3) points to (m,) values; where a field
has none, its divergence is the central-difference oracle :func:`divergence_fd`.

The observation operator drops the vertical component, M u = (u1, u2); its
adjoint pads a zero, M* U = (U1, U2, 0). The line search's integrals are
sums over a composite two-point Gauss-Legendre rule (:func:`gauss2_rule`):
m points per axis over m/2 cells, exact for every polynomial of degree 3 per
axis on each cell, and all of whose weights are equal on a box. The 16^3
default has 4,096 nodes. :func:`midpoint_rule`, second order, is the
reference the acceptance criteria and the benchmark's set-up probe build.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractError, DomainError
from .geometry import _FACES, BoxDomain, Topography, _bottom_height, _count, _flat_normal, as_points

__all__ = [
    "Field3",
    "Field2",
    "Quadrature",
    "inject",
    "updraft",
    "add_scaled",
    "validate_weights",
    "midpoint_rule",
    "gauss2_rule",
    "face_rule",
    "divergence_fd",
    "ExampleCase",
    "example_field",
]

ScalarField = Callable[[np.ndarray], np.ndarray]

# Points per axis of the rule a line search integrates over when given none.
DEFAULT_QUAD = 16
# Bytes per node of a tensor rule: three grid axes, three node coordinates
# and one weight, float64 each.
_QUAD_BYTES_PER_NODE = 7 * 8


def _evaluate(fn, pts, *width: int) -> np.ndarray:
    """fn at the (m, 3) points, checked to return (m, *width) values: (m,) when no width is given."""
    p = as_points(pts)
    vals = np.asarray(fn(p), dtype=float)
    if vals.shape != (len(p), *width):
        raise ContractError(f"evaluator returned shape {vals.shape}, expected {(len(p), *width)}")
    return vals


@dataclass(frozen=True)
class Field3:
    """3D vector field with an optional analytic divergence."""

    fn: Callable[[np.ndarray], np.ndarray]
    div: ScalarField | None = None

    def __post_init__(self):
        if self.div is not None:  # checked like __call__, to (m,) values
            object.__setattr__(self, "div", functools.partial(_evaluate, self.div))

    def __call__(self, pts):
        return _evaluate(self.fn, pts, 3)


@dataclass(frozen=True)
class Field2:
    """Horizontal 2-component field evaluated at 3D positions."""

    fn: Callable[[np.ndarray], np.ndarray]
    hdiv: ScalarField | None = None

    def __post_init__(self):
        if self.hdiv is not None:  # checked like __call__, to (m,) values
            object.__setattr__(self, "hdiv", functools.partial(_evaluate, self.hdiv))

    def __call__(self, pts):
        return _evaluate(self.fn, pts, 2)


def inject(data: Field2) -> Field3:
    """Adjoint M*: pad a zero vertical component."""

    def fn(pts):
        vals = data.fn(pts)
        out = np.zeros((len(pts), 3))
        out[:, :2] = vals
        return out

    return Field3(fn=fn, div=data.hdiv)


def updraft(w_b: float = 0.0) -> Field3:
    """The constant field (0, 0, w_b); the zero field by default."""

    def fn(pts):
        out = np.zeros((len(pts), 3))
        out[:, 2] = w_b
        return out

    return Field3(fn=fn, div=lambda pts: np.zeros(len(pts)))


def add_scaled(u: Field3, t: float, p: Field3) -> Field3:
    """The field x -> u(x) + t * p(x), composing analytic divergences when present."""
    div = None
    if u.div is not None and p.div is not None:
        div = lambda pts: u.div(pts) + t * p.div(pts)
    return Field3(fn=lambda pts: u.fn(pts) + t * p.fn(pts), div=div)


def validate_weights(weights, dim: int | None = None) -> np.ndarray:
    """Check a weight matrix is square, finite, symmetric to 1e-14, and positive definite."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractError(f"weight matrix must be square, got shape {w.shape}")
    if dim is not None and w.shape != (dim, dim):
        raise ContractError(f"weight matrix must be {dim}x{dim}, got {w.shape}")
    if not np.isfinite(w).all():
        raise ContractError("weight matrix must be finite")
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w - w.T).max() > 1e-14 * scale:
        raise ContractError("weight matrix must be symmetric")
    if np.linalg.eigvalsh(w).min() <= 0:
        raise ContractError("weight matrix must be positive definite")
    return w


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(what: str, need: int, use: str) -> None:
    """Raise DomainError, naming ``what`` and ``use``, when ``need`` bytes exceed physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise DomainError(
            f"{what} needs about {need} bytes for {use}, more than the {have} bytes of physical memory"
        )


@dataclass(frozen=True)
class Quadrature:
    """Evaluation nodes and positive weights for volume integrals."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ContractError("quadrature nodes and weights must have equal length")
        if np.any(self.weights <= 0):
            raise ContractError("quadrature weights must be positive")


def _tensor_rule(box: BoxDomain, m: int, unit_points: np.ndarray, topo: Topography | None) -> Quadrature:
    """m^3 nodes of weight h^3, at lo + h * unit_points per axis with h = (hi - lo) / m.

    With a terrain bottom, nodes are stretched per column exactly like the
    center grid, and the weights are scaled by the local column height so the
    weights still sum to the terrain-following volume. A terrain that reaches
    the top of the box raises DomainError, as in the center grid. A rule whose
    m^3 node arrays would not fit in physical memory, or whose node weight (the
    volume of an h^3 cell) underflows to zero, raises DomainError before any
    is allocated.
    """
    _require_memory(f"a quadrature of {m}^3 nodes", _QUAD_BYTES_PER_NODE * m**3, "its nodes")
    lo, hi = box.lo, box.hi
    h = (hi - lo) / m
    cell = float(np.prod(h))
    if cell == 0.0:
        raise DomainError(f"the quadrature cell volume {h[0]:.3e} x {h[1]:.3e} x {h[2]:.3e} underflows to 0")
    axes = [lo[k] + h[k] * unit_points for k in range(3)]
    zg, yg, xg = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    nodes = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])
    weights = np.full(len(nodes), cell)
    if topo is not None:
        zb = _bottom_height(box, topo, nodes[:, 0], nodes[:, 1])
        factor = (box.zmax - zb) / (box.zmax - box.zmin)
        nodes[:, 2] = zb + (nodes[:, 2] - box.zmin) * factor
        weights = weights * factor
    return Quadrature(nodes=nodes, weights=weights)


def midpoint_rule(box: BoxDomain, m_per_axis: int = DEFAULT_QUAD, topo: Topography | None = None) -> Quadrature:
    """Tensor-product midpoint rule with m^3 cells; weights sum to the domain volume.

    Terrain, memory and underflow are handled as in :func:`_tensor_rule`.
    """
    m = _count(m_per_axis, 1, "quadrature resolution")
    return _tensor_rule(box, m, np.arange(m) + 0.5, topo)


def gauss2_rule(box: BoxDomain, m_per_axis: int = DEFAULT_QUAD, topo: Topography | None = None) -> Quadrature:
    """Composite two-point Gauss-Legendre rule: m points per axis over m/2 cells of side 2h.

    Each cell's nodes sit at its centre +- h / sqrt(3) per axis, so the rule
    integrates a polynomial of degree 3 per axis exactly on every cell. Every
    weight is h^3 on a box, and the weights sum to the domain volume. An odd
    or non-integral m raises ConfigurationError; terrain, memory and underflow
    are handled as in :func:`_tensor_rule`.
    """
    m = _count(m_per_axis, 2, "quadrature resolution")
    if m % 2:
        raise ConfigurationError(f"quadrature resolution must be even (two points per cell), got {m}")
    centres = 2.0 * np.arange(m // 2) + 1.0
    offset = 1.0 / np.sqrt(3.0)
    return _tensor_rule(box, m, np.column_stack([centres - offset, centres + offset]).ravel(), topo)


def face_rule(box: BoxDomain, m_per_axis: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint rule of m^2 cells on each of the six flat faces; returns (nodes, weights, outward normals)."""
    m = _count(m_per_axis, 1, "quadrature resolution")
    lo, hi = box.lo, box.hi
    h = (hi - lo) / m
    mids = [lo[k] + h[k] * (np.arange(m) + 0.5) for k in range(3)]
    nodes, weights, normals = [], [], []
    for axis, side in sorted(_FACES.values()):  # xmin, xmax, ymin, ymax, zmin, zmax
        others = [k for k in range(3) if k != axis]
        a, b = np.meshgrid(mids[others[0]], mids[others[1]], indexing="ij")
        pts = np.empty((m * m, 3))
        pts[:, axis] = box.bounds[2 * axis + side]
        pts[:, others[0]] = a.ravel()
        pts[:, others[1]] = b.ravel()
        nodes.append(pts)
        weights.append(np.full(m * m, float(h[others[0]] * h[others[1]])))
        normals.append(np.broadcast_to(_flat_normal(axis, side), (m * m, 3)).copy())
    return np.vstack(nodes), np.concatenate(weights), np.vstack(normals)


def _weighted_sum(a: np.ndarray, w: np.ndarray, b: np.ndarray, qw: np.ndarray) -> float:
    """sum_i qw_i a_i^T W b_i over the rows of a and b.

    Each row's form accumulates (a[:, j] W_jk) b[:, k] over the entries of W
    in row-major order. For three rows or more and a C-ordered W that is the
    order of np.einsum("ij,jk,ik->i"), bit for bit; with one or two rows, or
    a Fortran-ordered W, einsum may round differently in the last bit.
    """
    rows = np.zeros(len(a))
    for (j, k), w_jk in np.ndenumerate(w):
        rows += (a[:, j] * w_jk) * b[:, k]
    return float(np.sum(qw * rows))


def divergence_fd(u: Field3, pts, h: float, box: BoxDomain | None = None):
    """Central-difference divergence with step h; the independent oracle.

    When ``box`` is given, every stencil point must lie in the closed box.
    """
    p = as_points(pts)
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    # p +- h e_k lies in the box for every k exactly when p +- (h, h, h) does
    if box is not None and not (box.contains(p + h).all() and box.contains(p - h).all()):
        raise DomainError("finite-difference stencil leaves the domain")
    acc = np.zeros(len(p))
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        acc += (u.fn(p + step)[:, k] - u.fn(p - step)[:, k]) / (2.0 * h)
    return acc


@dataclass(frozen=True)
class ExampleCase:
    """A built-in analytic case: exact field, horizontal data, and its domain."""

    exact: Field3
    data: Field2
    domain: BoxDomain


def _const(value: float) -> ScalarField:
    return lambda pts: np.full(len(pts), value)


def _gauss49(pts: np.ndarray) -> np.ndarray:
    return np.exp(-np.sum(pts * pts, axis=1) / 49.0)


def example_field(case_id: str, eps: float | None = None) -> ExampleCase:
    """The three built-in divergence-free fields with horizontal-only data.

    ex51: linear field (x, y, -2z); ex52: a Gaussian vortex column with unit
    updraft; ex53: the vortex sheared by a strength-eps correction (requires
    eps > 0). The data field is the exact field with the vertical component
    replaced by zero.
    """
    if case_id == "ex51":
        exact = Field3(
            fn=lambda pts: np.column_stack([pts[:, 0], pts[:, 1], -2.0 * pts[:, 2]]),
            div=_const(0.0),
        )
        data = Field2(fn=lambda pts: pts[:, :2].copy(), hdiv=_const(2.0))
        return ExampleCase(exact, data, BoxDomain(-2, 2, -2, 2, 0, 2))

    if case_id == "ex52":
        def fn(pts):
            g = _gauss49(pts)
            return np.column_stack([2.0 * pts[:, 1] * g, -2.0 * pts[:, 0] * g, np.ones(len(pts))])

        exact = Field3(fn=fn, div=_const(0.0))
        data = Field2(fn=lambda pts: fn(pts)[:, :2], hdiv=_const(0.0))
        return ExampleCase(exact, data, BoxDomain(-7, 7, -7, 7, -7, 7))

    if case_id == "ex53":
        if eps is None or not eps > 0:
            raise ConfigurationError(f"ex53 requires eps > 0, got {eps}")

        def fn(pts):
            g = _gauss49(pts)
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            return np.column_stack(
                [
                    2.0 * y * g - eps * x * z / 2.0,
                    -2.0 * x * g - eps * y * z / 2.0,
                    eps * z * z / 2.0,
                ]
            )

        exact = Field3(fn=fn, div=_const(0.0))
        data = Field2(fn=lambda pts: fn(pts)[:, :2], hdiv=lambda pts: -eps * pts[:, 2])
        return ExampleCase(exact, data, BoxDomain(-7, 7, -7, 7, 0, 7))

    raise ConfigurationError(f"unknown example id {case_id!r} (expected ex51, ex52 or ex53)")
