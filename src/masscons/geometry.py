"""Box domains, optional terrain bottoms, and collocation center generation.

Centers and quadrature nodes live on tensor grids (``_tensor_grid``). With
a terrain bottom, the vertical coordinate is stretched column by column,

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
    """Axis-aligned box; bounds are (lower, upper) per axis, and the bottom is the ``terrain`` when there is one."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float
    terrain: Topography | None = None

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
        """Membership of each of the (m, 3) points in the closed domain, on or above the terrain, within face_tol."""
        p = as_points(pts)
        tol = self.face_tol
        bounds = _face_bounds(self, p)
        return np.all([(p[:, k] >= lo - tol) & (p[:, k] <= hi + tol) for k, (lo, hi) in enumerate(bounds)], axis=0)


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


def _bottom_height(box: BoxDomain, x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """The terrain height at each (x, y); ``zmin`` itself on a flat bottom."""
    if box.terrain is None:
        return box.zmin
    zb = np.asarray(box.terrain.height(x, y), dtype=float)
    if not np.isfinite(zb).all():
        raise DomainError("terrain height is not finite")
    if np.any(zb >= box.zmax):
        raise DomainError("terrain height reaches or exceeds the top of the box")
    return zb


def _face_bounds(box: BoxDomain, pts: np.ndarray) -> tuple:
    """Each axis's (lower, upper) bound at the (m, 3) points; the lower z bound is the bottom height."""
    return (box.xmin, box.xmax), (box.ymin, box.ymax), (_bottom_height(box, pts[:, 0], pts[:, 1]), box.zmax)


def _tensor_grid(box: BoxDomain, axes) -> tuple[np.ndarray, np.ndarray | None]:
    """The (m, 3) points of the tensor grid over ``axes``, x fastest and z slowest, and their column factors.

    A terrain bottom maps z as in the module docstring, and each factor is
    (z_hi - z_b) / (z_hi - z_lo); on a flat bottom the factors are None.
    """
    zg, yg, xg = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    pts = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])
    if box.terrain is None:
        return pts, None
    zb = _bottom_height(box, pts[:, 0], pts[:, 1])
    pts[:, 2] = zb + (pts[:, 2] - box.zmin) * (box.zmax - zb) / (box.zmax - box.zmin)
    return pts, (box.zmax - zb) / (box.zmax - box.zmin)


def classify(pts, box: BoxDomain) -> tuple[np.ndarray, np.ndarray]:
    """Face labels (m,) and outward unit normals (m, 3), NaN at interior points, of (m, 3) points.

    A point counts as on a face within ``box.face_tol``. Points outside the
    closed domain, or with a non-finite coordinate, raise :class:`DomainError`.
    """
    pts = as_points(pts)
    outside = ~box.contains(pts)
    if np.any(outside):
        raise DomainError(f"{int(outside.sum())} point(s) outside the closed domain")
    tol = box.face_tol
    bounds = _face_bounds(box, pts)

    labels = np.full(len(pts), int(FaceLabel.INTERIOR))
    normals = np.full((len(pts), 3), np.nan)
    unassigned = np.ones(len(pts), dtype=bool)
    for label, (axis, side) in _FACES.items():
        pick = (np.abs(pts[:, axis] - bounds[axis][side]) <= tol) & unassigned
        if not pick.any():
            continue
        labels[pick] = int(label)
        if label is FaceLabel.BOTTOM and box.terrain is not None:
            normals[pick] = box.terrain.normal(pts[pick, 0], pts[pick, 1])
        else:
            normals[pick] = _flat_normal(axis, side)
        unassigned &= ~pick
    return labels, normals


def grid_centers(box: BoxDomain, n_per_axis: int) -> NodeSet:
    """Boundary-inclusive equidistant tensor grid of n^3 centers.

    Ordering is lexicographic with z slowest and x fastest, so identical
    inputs always produce identical node orderings. With a terrain bottom
    the vertical coordinate is stretched per column (see module docstring).
    """
    # with 2 nodes per axis no node is interior, and div is never imposed
    n = _count(n_per_axis, 3, "n_per_axis")
    pts, _ = _tensor_grid(box, [np.linspace(lo, hi, n) for lo, hi in zip(box.lo, box.hi)])
    labels, normals = classify(pts, box)
    return NodeSet(points=pts, labels=labels, normals=normals)
