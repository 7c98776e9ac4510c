"""Inverse multiquadric radial kernel and its exact derivatives.

The kernel family is

    phi(r) = 1 / sqrt(1 + (r*c)**2)

with shape parameter c > 0 multiplying the radius (flat-limit convention:
small c flattens the kernel). All derivatives are closed forms derived from
the radial chain rule; writing s = 1 + c**2 * r**2 and d = x - center,

    grad phi = -c**2 * d * s**(-3/2)
    hess phi = -c**2 * s**(-3/2) * I + 3 c**4 * (d d^T) * s**(-5/2)
    lap  phi = -3 c**2 * s**(-5/2)

The apparent phi'(r)/r singularity of the radial chain rule cancels
analytically, so r = 0 needs no special casing and the gradient vanishes
exactly at the center. Finite differencing exists only in the test suite.

All functions broadcast over leading axes: points may be single (3,)
vectors, stacked (m, 3) arrays, or pairwise (m, 1, 3) vs (1, n, 3) blocks,
which is how the collocation assembly calls them. The fractional powers are
evaluated as sqrt-and-divide, which is considerably faster than ``**-1.5``
on large pairwise blocks and bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["KernelParams", "phi", "grad_phi", "hess_phi", "lap_phi"]


@dataclass(frozen=True)
class KernelParams:
    """Inverse multiquadric parameters; ``shape`` is the c in 1/sqrt(1+(rc)^2)."""

    shape: float

    def __post_init__(self):
        if not (self.shape > 0 and np.isfinite(self.shape)):
            raise DomainError(f"shape parameter must be finite and positive, got {self.shape}")


def _sq_radius(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance ||x - center||^2 without materializing the difference block."""
    r2 = (x[..., 0] - center[..., 0]) ** 2
    r2 += (x[..., 1] - center[..., 1]) ** 2
    r2 += (x[..., 2] - center[..., 2]) ** 2
    return r2


def _inv32(s: np.ndarray) -> np.ndarray:
    """s**(-3/2) via sqrt and divide."""
    return 1.0 / (s * np.sqrt(s))


def _inv52(s: np.ndarray) -> np.ndarray:
    """s**(-5/2) via sqrt and divide."""
    return 1.0 / (s * s * np.sqrt(s))


def phi(r, params: KernelParams):
    """Kernel profile phi(r) = (1 + (r c)^2)^(-1/2).

    Parameters
    ----------
    r : float or ndarray
        Nonnegative radii.
    params : KernelParams

    Returns
    -------
    float or ndarray
        Values in (0, 1], equal to 1 at r = 0, strictly decreasing in r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    out = 1.0 / np.sqrt(1.0 + (r * params.shape) ** 2)
    return float(out) if out.ndim == 0 else out


def phi_sq(r2, params: KernelParams):
    """phi evaluated from squared radii (assembly fast path, no extra sqrt)."""
    return 1.0 / np.sqrt(1.0 + params.shape**2 * np.asarray(r2, dtype=float))


def grad_phi(x, center, params: KernelParams):
    """Gradient of phi(||x - center||) with respect to x; shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    c2 = params.shape**2
    s = 1.0 + c2 * _sq_radius(x, center)
    factor = -c2 * _inv32(s)
    return np.stack(
        [factor * (x[..., k] - center[..., k]) for k in range(3)],
        axis=-1,
    )


def hess_phi(x, center, params: KernelParams):
    """Second-derivative matrix of phi(||x - center||); shape (..., 3, 3).

    Symmetric by construction; its trace equals :func:`lap_phi`.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    c2 = params.shape**2
    d = x - center
    s = 1.0 + c2 * np.sum(d * d, axis=-1)
    outer = d[..., :, None] * d[..., None, :]
    return (
        (-c2 * _inv32(s))[..., None, None] * np.eye(3)
        + (3.0 * c2 * c2 * _inv52(s))[..., None, None] * outer
    )


def lap_phi(x, center, params: KernelParams):
    """Laplacian of phi(||x - center||); shape (...,).

    Strictly negative everywhere; equals -3 c^2 at x = center.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    c2 = params.shape**2
    s = 1.0 + c2 * _sq_radius(x, center)
    out = -3.0 * c2 * _inv52(s)
    return float(out) if np.ndim(out) == 0 else out
