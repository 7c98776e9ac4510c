"""Shared finite-difference oracles for the kernel derivative tests.

All oracles are Richardson-extrapolated central differences of the public
kernel functions, vectorized over rows of points for a single shape value.
Step sizes follow the calibrated rules

    grad / hess : h = 1e-2 / max(c, 0.1)
    laplacian   : h = 1e-2 / clip(c, 0.1, 2.0)

which keep the worst relative error over c in [1e-3, 10] below ~3e-7.

``traced_peak`` measures the peak allocation of a call for the memory tests.
"""

import tracemalloc

import numpy as np

from masscons.kernel import KernelParams, grad_phi, phi_sq


def fd_step_grad(c: float) -> float:
    return 1e-2 / max(c, 0.1)


def fd_step_lap(c: float) -> float:
    return 1e-2 / min(max(c, 0.1), 2.0)


def _phi(x: np.ndarray, center: np.ndarray, params: KernelParams) -> np.ndarray:
    d = x - center
    return phi_sq(np.sum(d * d, axis=1), params)


def fd_grad_phi(x: np.ndarray, center: np.ndarray, params: KernelParams, h: float) -> np.ndarray:
    """Richardson central differences of phi; x, center are (m, 3)."""

    def central(hh):
        g = np.empty_like(x)
        for k in range(3):
            xp = x.copy()
            xp[:, k] += hh
            xm = x.copy()
            xm[:, k] -= hh
            g[:, k] = (_phi(xp, center, params) - _phi(xm, center, params)) / (2 * hh)
        return g

    return (4.0 * central(h / 2) - central(h)) / 3.0


def fd_lap_phi(x: np.ndarray, center: np.ndarray, params: KernelParams, h: float) -> np.ndarray:
    """Richardson second differences of phi summed over axes; x, center are (m, 3)."""

    def central(hh):
        p0 = _phi(x, center, params)
        total = np.zeros(len(x))
        for k in range(3):
            xp = x.copy()
            xp[:, k] += hh
            xm = x.copy()
            xm[:, k] -= hh
            total += (
                _phi(xp, center, params) - 2 * p0 + _phi(xm, center, params)
            ) / hh**2
        return total

    return (4.0 * central(h / 2) - central(h)) / 3.0


def fd_hess_phi(x: np.ndarray, center: np.ndarray, params: KernelParams, h: float) -> np.ndarray:
    """Richardson central differences of grad_phi; returns (m, 3, 3), symmetrized."""

    def central(hh):
        hess = np.empty((len(x), 3, 3))
        for k in range(3):
            xp = x.copy()
            xp[:, k] += hh
            xm = x.copy()
            xm[:, k] -= hh
            hess[:, :, k] = (grad_phi(xp, center, params) - grad_phi(xm, center, params)) / (2 * hh)
        return hess

    out = (4.0 * central(h / 2) - central(h)) / 3.0
    return 0.5 * (out + np.transpose(out, (0, 2, 1)))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn runs: numpy's own arrays, not LAPACK's workspace."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
