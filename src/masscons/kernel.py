"""Inverse multiquadric radial kernel and its exact derivatives.

The kernel family is

    phi(r) = 1 / sqrt(1 + (r*c)**2)

with shape parameter c > 0 multiplying the radius (flat-limit convention:
small c flattens the kernel). All derivatives are closed forms derived from
the radial chain rule; writing s = 1 + c**2 * r**2 and d = x - center,

    grad phi = -c**2 * d * s**(-3/2)
    hess phi = -c**2 * s**(-3/2) * I + 3 c**4 * (d d^T) * s**(-5/2)
    lap  phi = -3 c**2 * s**(-5/2)
    A : hess phi = -c**2 tr(A) s**(-3/2) + 3 c**4 (d^T A d) s**(-5/2)   (lap_phi, aniso=A)

The apparent phi'(r)/r singularity of the radial chain rule cancels
analytically, so r = 0 needs no special casing and the gradient vanishes
exactly at the center. Finite differencing exists only in the test suite.

All functions broadcast over leading axes: points may be single (3,)
vectors, stacked (m, 3) arrays, or pairwise (m, 1, 3) vs (1, n, 3) blocks,
which is how the collocation assembly calls them, with at most 2**16 // n
rows per call: a block holds at most 2**16 pairs (512 KiB per scalar, 1.5 MiB
for the gradient) whatever n is. The fractional powers are
evaluated as sqrt-and-divide, which is considerably faster than ``**-1.5``
on large pairwise blocks and bit-for-bit deterministic.

The multiplier's jet (``collocation``) sums the factors s**(-q/2) from such
pairwise blocks or, where c**2 r**2 << 1, from their truncated binomial
series, the polynomial flat limit of the basis (Driscoll & Fornberg 2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["KernelParams", "phi_sq", "grad_phi", "hess_phi", "lap_phi"]


@dataclass(frozen=True)
class KernelParams:
    """Inverse multiquadric parameters; ``shape`` is the c in 1/sqrt(1+(rc)^2), c^2 a positive float."""

    shape: float

    def __post_init__(self):
        # c * c, not c**2: a Python float's ** raises OverflowError where * gives inf
        if not (self.shape > 0 and 0 < self.shape * self.shape < np.inf):
            raise DomainError(
                f"shape parameter must be positive with a finite, nonzero square, got {self.shape}"
            )

    def require_finite_over(self, extent: float) -> None:
        """Raise DomainError unless the kernels stay finite at distances up to ``extent``.

        The largest s = 1 + c^2 D^2 (D = ``extent``) must leave s * s * sqrt(s),
        the s^(5/2) the kernels form, finite.
        """
        s = 1.0 + self.shape * self.shape * (extent * extent)
        if not math.isfinite(s * s * math.sqrt(s)):
            raise DomainError(
                f"shape parameter {self.shape} over a distance of {extent}: "
                f"s = 1 + c^2 D^2 = {s:.3e} makes the kernels' s^(5/2) overflow"
            )


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


def phi_sq(r2, params: KernelParams):
    """phi from squared radii r2 = r^2: values in (0, 1], 1 at r = 0, strictly decreasing."""
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


def lap_phi(x, center, params: KernelParams, aniso=None):
    """Interior operator applied to phi(||x - center||); shape (...,).

    With ``aniso`` None this is the Laplacian, strictly negative everywhere and
    -3 c^2 at x = center. With a 3x3 ``aniso`` A it is A : hess phi, the sum
    over all nine A_kl (A need not be symmetric), built from (...,) arrays
    without the Hessian; it equals -c^2 tr(A) at x = center and changes sign.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    c2 = params.shape**2
    s = 1.0 + c2 * _sq_radius(x, center)
    if aniso is None:
        out = -3.0 * c2 * _inv52(s)
    else:
        # d^T A d from all nine A_kl: an inverted SPD matrix is not bitwise symmetric.
        a = np.asarray(aniso, dtype=float)
        d0, d1, d2 = (x[..., k] - center[..., k] for k in range(3))
        quad = d0 * (a[0, 0] * d0 + (a[0, 1] + a[1, 0]) * d1 + (a[0, 2] + a[2, 0]) * d2)
        quad += d1 * (a[1, 1] * d1 + (a[1, 2] + a[2, 1]) * d2)
        quad += a[2, 2] * d2 * d2
        del d0, d1, d2  # freed before the s^(-5/2) temporaries
        # -c^2 tr(A) s^(-3/2) + 3 c^4 quad s^(-5/2) over the common s^(-5/2)
        out = (3.0 * c2 * quad - np.trace(a) * s) * (c2 * _inv52(s))
    return float(out) if np.ndim(out) == 0 else out
