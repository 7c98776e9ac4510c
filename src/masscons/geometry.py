"""Box domains, optional terrain bottoms, and collocation center generation.

Centers live on a boundary-inclusive tensor-product grid. With a terrain
bottom, the vertical coordinate is stretched column by column,

    z -> z_b(x, y) + (z - z_lo) * (z_hi - z_b(x, y)) / (z_hi - z_lo),

so the lowest grid layer lies on the terrain while node counts stay n^3.
Every node carries exactly one face label; nodes on edges and corners are
resolved by the order of the face table ``_FACES``, bottom > top > xmin >
xmax > ymin > ymax.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractError, DomainError

__all__ = [
    "FaceLabel",
    "BoxDomain",
    "Topography",
    "NodeSet",
    "grid_centers",
    "classify",
    "as_points",
]


def _count(value, least: int, name: str) -> int:
    """``value`` as an int; anything but an integer of at least ``least`` raises ConfigurationError."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer of at least {least}, got {value}")
    return int(value)


def as_points(pts) -> np.ndarray:
    """The (m, 3) float array of a batch of points; any other shape raises DomainError."""
    p = np.asarray(pts, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise DomainError(f"expected points of shape (m, 3), got {p.shape}")
    return p


class FaceLabel(IntEnum):
    """Face membership of a node; ``_FACES`` lists the faces in edge/corner tie-break priority."""

    INTERIOR = 0
    BOTTOM = 1
    TOP = 2
    XMIN = 3
    XMAX = 4
    YMIN = 5
    YMAX = 6


# Each face's (axis, side), side 0 the lower bound and 1 the upper, in
# edge/corner tie-break priority. The bottom's bound is the terrain height.
_FACES = {
    FaceLabel.BOTTOM: (2, 0),
    FaceLabel.TOP: (2, 1),
    FaceLabel.XMIN: (0, 0),
    FaceLabel.XMAX: (0, 1),
    FaceLabel.YMIN: (1, 0),
    FaceLabel.YMAX: (1, 1),
}


def _flat_normal(axis: int, side: int) -> np.ndarray:
    """The outward unit normal of a flat face: -1 or +1 along ``axis``, +0.0 elsewhere."""
    return np.where(np.arange(3) == axis, 2.0 * side - 1.0, 0.0)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box; bounds are (lower, upper) per axis."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float

    def __post_init__(self):
        for lo, hi, ax in (
            (self.xmin, self.xmax, "x"),
            (self.ymin, self.ymax, "y"),
            (self.zmin, self.zmax, "z"),
        ):
            if not lo < hi:
                raise ConfigurationError(f"{ax} bounds must satisfy lower < upper, got ({lo}, {hi})")

    @property
    def lo(self) -> np.ndarray:
        return np.array([self.xmin, self.ymin, self.zmin])

    @property
    def hi(self) -> np.ndarray:
        return np.array([self.xmax, self.ymax, self.zmax])

    @property
    def bounds(self) -> tuple[float, ...]:
        return (self.xmin, self.xmax, self.ymin, self.ymax, self.zmin, self.zmax)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def face_tol(self) -> float:
        """How far from a face a point may lie and still count as on it: 1e-12 of the diameter."""
        return 1e-12 * self.diameter()

    def contains(self, pts) -> np.ndarray:
        """Membership of each of the (m, 3) points in the closed box, within face_tol (flat bottom only)."""
        p = as_points(pts)
        return np.all((p >= self.lo - self.face_tol) & (p <= self.hi + self.face_tol), axis=1)


@dataclass(frozen=True)
class Topography:
    """Terrain bottom z = height(x, y) over the horizontal footprint.

    ``grad`` returns the analytic (dz/dx, dz/dy) stacked on the last axis;
    it gives the exact surface normal.
    """

    height: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def normal(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Outward (downward-pointing) unit normals of the surface z = height(x, y) at (m,) x and y."""
        g = np.asarray(self.grad(x, y), dtype=float)
        n = np.column_stack([g[:, 0], g[:, 1], -np.ones(len(g))])
        return n / np.linalg.norm(n, axis=1, keepdims=True)


@dataclass(frozen=True)
class NodeSet:
    """Collocation centers with face labels and outward unit normals.

    ``normals`` has NaN rows at interior nodes. Arrays are frozen, so the
    solution that keeps a NodeSet sees the nodes its system was built on.
    """

    points: np.ndarray
    labels: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        n = len(self.points)
        if self.points.shape != (n, 3) or self.labels.shape != (n,) or self.normals.shape != (n, 3):
            raise ContractError(
                f"inconsistent NodeSet arrays: points {self.points.shape}, "
                f"labels {self.labels.shape}, normals {self.normals.shape}"
            )
        bnd = self.labels != FaceLabel.INTERIOR
        norms = np.linalg.norm(self.normals[bnd], axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise DomainError("boundary normals must be unit vectors")
        if (~bnd).any() and not np.all(np.isnan(self.normals[~bnd])):
            raise DomainError("interior nodes must not carry normals")
        for arr in (self.points, self.labels, self.normals):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(self.labels == FaceLabel.INTERIOR)

    @property
    def boundary(self) -> np.ndarray:
        return np.flatnonzero(self.labels != FaceLabel.INTERIOR)


def _bottom_height(box: BoxDomain, topo: Topography | None, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if topo is None:
        return np.full(np.shape(x), box.zmin, dtype=float)
    zb = np.asarray(topo.height(x, y), dtype=float)
    if np.any(zb >= box.zmax):
        raise DomainError("terrain height reaches or exceeds the top of the box")
    return zb


def classify(pts, box: BoxDomain, topo: Topography | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Face labels (m,) and outward unit normals (m, 3), NaN at interior points, of (m, 3) points.

    A point counts as on a face within ``box.face_tol``. Points outside the
    closed domain raise :class:`DomainError`.
    """
    pts = as_points(pts)
    tol = box.face_tol
    x, y = pts[:, 0], pts[:, 1]
    bounds = ((box.xmin, box.xmax), (box.ymin, box.ymax), (_bottom_height(box, topo, x, y), box.zmax))
    outside = np.zeros(len(pts), dtype=bool)
    for axis, side in _FACES.values():
        bound = bounds[axis][side]
        outside |= pts[:, axis] > bound + tol if side else pts[:, axis] < bound - tol
    if np.any(outside):
        raise DomainError(f"{int(outside.sum())} point(s) outside the closed domain")

    labels = np.full(len(pts), int(FaceLabel.INTERIOR))
    normals = np.full((len(pts), 3), np.nan)
    unassigned = np.ones(len(pts), dtype=bool)
    for label, (axis, side) in _FACES.items():
        pick = (np.abs(pts[:, axis] - bounds[axis][side]) <= tol) & unassigned
        if not pick.any():
            continue
        labels[pick] = int(label)
        if label is FaceLabel.BOTTOM and topo is not None:
            normals[pick] = topo.normal(x[pick], y[pick])
        else:
            normals[pick] = _flat_normal(axis, side)
        unassigned &= ~pick
    return labels, normals


def grid_centers(box: BoxDomain, n_per_axis: int, topo: Topography | None = None) -> NodeSet:
    """Boundary-inclusive equidistant tensor grid of n^3 centers.

    Ordering is lexicographic with z slowest and x fastest, so identical
    inputs always produce identical node orderings. With a terrain bottom
    the vertical coordinate is stretched per column (see module docstring).
    """
    # with 2 nodes per axis no node is interior, and div is never imposed
    n = _count(n_per_axis, 3, "n_per_axis")
    xs = np.linspace(box.xmin, box.xmax, n)
    ys = np.linspace(box.ymin, box.ymax, n)
    zs = np.linspace(box.zmin, box.zmax, n)
    zg, yg, xg = np.meshgrid(zs, ys, xs, indexing="ij")
    pts = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])

    if topo is not None:
        zb = _bottom_height(box, topo, pts[:, 0], pts[:, 1])
        pts[:, 2] = zb + (pts[:, 2] - box.zmin) * (box.zmax - zb) / (box.zmax - box.zmin)

    labels, normals = classify(pts, box, topo)
    return NodeSet(points=pts, labels=labels, normals=normals)
