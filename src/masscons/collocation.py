"""Asymmetric (Kansa) collocation for the multiplier Poisson problem.

One global inverse multiquadric ansatz lambda(x) = sum_j beta_j phi(|x - c_j|)
is collocated against the interior operator at interior nodes and against the
boundary operator at boundary nodes:

    row i = lap phi_j(x_i)                    interior, isotropic
    row i = sum_kl A_kl d_k d_l phi_j(x_i)    interior, anisotropic operator div(A grad .)
    row i = phi_j(x_i)                        Dirichlet node
    row i = grad phi_j(x_i) . nu_i            Neumann node (nu may be a conormal A nu)

Each row kind is built in blocks of at most _BLOCK_ELEMENTS // N target rows,
so every kernel array (at most the (rows, N, 3) gradient block, 1.5 MiB)
has a fixed byte size whatever N is; only the N x N matrix grows with N.
Every entry is computed elementwise, so the block split does not change a bit
of the matrix.

The dense square system G beta = b gets its truncated-SVD minimum-norm
solution from one LAPACK dgelsd call (``np.linalg.lstsq``), keeping the
directions with sigma > trunc_tol * sigma_max. That keeps the solve meaningful
in the ill-conditioned flat-kernel regime and on rank-deficient (pure-Neumann)
systems; dgelsd returns the rank and the spectrum without forming U or V^T.

The solved multiplier is evaluated by :meth:`MultiplierSolution.jet`, which
returns lambda, grad lambda and the interior operator applied to lambda from
one pass over byte-bounded blocks of target points; the per-quantity
evaluators select from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, SingularSystemError
from .geometry import FaceLabel, NodeSet, as_points
from .kernel import KernelParams, grad_phi, lap_phi, phi_sq
from .kernel import hess_phi  # noqa: F401  # unused; the benchmark's tracer patches this name

__all__ = [
    "DirichletLambda",
    "NeumannLambda",
    "GramSystem",
    "MultiplierSolution",
    "assemble",
    "factorize_and_solve",
    "condition_number",
    "dump_gram",
]

log = logging.getLogger(__name__)

# Float64 elements per (rows, N) block (512 KiB), in assembly and in
# MultiplierSolution.jet; a (rows, N, 3) gradient block is 3 times that.
_BLOCK_ELEMENTS = 1 << 16

ROW_INTERIOR = "interior-laplacian"
ROW_ANISO = "anisotropic-laplacian"
ROW_DIRICHLET = "dirichlet"
ROW_NEUMANN = "neumann"


@dataclass(frozen=True)
class DirichletLambda:
    """Pin the multiplier to ``value`` at a boundary node."""

    value: float


@dataclass(frozen=True, eq=False)
class NeumannLambda:
    """Prescribe grad(lambda) . direction = flux at a boundary node.

    ``direction`` is the outward unit normal for the plain Laplacian; for the
    anisotropic operator div(A grad lambda) it is the conormal A nu and need
    not be unit length.
    """

    flux: float
    direction: np.ndarray


@dataclass
class GramSystem:
    """Dense collocation system with its build context.

    ``singular_values`` is populated by :func:`factorize_and_solve`.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_kinds: tuple[str, ...]
    nodes: NodeSet
    kernel: KernelParams
    aniso: np.ndarray | None = None
    singular_values: np.ndarray | None = None


def _is_identity(a: np.ndarray | None) -> bool:
    return a is not None and a.shape == (3, 3) and np.array_equal(a, np.eye(3))


def _row_blocks(m: int, n: int):
    """Slices of at most ``_BLOCK_ELEMENTS // n`` (at least one) of m rows against n centers."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    return (slice(start, start + rows) for start in range(0, m, rows))


def assemble(
    nodes: NodeSet,
    kernel: KernelParams,
    bcs: Mapping[int, DirichletLambda | NeumannLambda],
    f: Callable[[np.ndarray], np.ndarray],
    aniso: np.ndarray | None = None,
) -> GramSystem:
    """Build the N x N collocation matrix and right-hand side.

    ``bcs`` must cover exactly the boundary node indices. ``f`` is the
    interior source evaluated at the interior nodes. ``aniso`` switches the
    interior operator to sum_kl A_kl d_k d_l; the exact identity matrix is
    routed through the isotropic path so it reproduces those rows bit for bit.
    The kernels are called on row blocks of at most _BLOCK_ELEMENTS // N rows.
    """
    pts = nodes.points
    n = len(pts)
    boundary = set(int(i) for i in nodes.boundary)
    given = set(int(i) for i in bcs)
    if given != boundary:
        missing = sorted(boundary - given)[:5]
        extra = sorted(given - boundary)[:5]
        raise ContractError(
            f"boundary conditions must cover exactly the boundary nodes "
            f"(missing {missing}, extra {extra})"
        )

    if _is_identity(aniso):
        aniso = None

    matrix = np.empty((n, n))
    rhs = np.empty(n)
    kinds: list[str] = [""] * n
    centers = pts[None, :, :]

    interior = nodes.interior
    for block in _row_blocks(len(interior), n):
        idx = interior[block]
        x = pts[idx][:, None, :]
        matrix[idx] = lap_phi(x, centers, kernel, aniso)
    rhs[interior] = np.asarray(f(pts[interior]), dtype=float)
    kind_interior = ROW_INTERIOR if aniso is None else ROW_ANISO
    for i in interior:
        kinds[i] = kind_interior

    dir_idx = np.array(sorted(i for i, bc in bcs.items() if isinstance(bc, DirichletLambda)), dtype=int)
    neu_idx = np.array(sorted(i for i, bc in bcs.items() if isinstance(bc, NeumannLambda)), dtype=int)

    for block in _row_blocks(len(dir_idx), n):
        idx = dir_idx[block]
        d = pts[idx][:, None, :] - centers
        matrix[idx] = phi_sq(np.sum(d * d, axis=-1), kernel)
    rhs[dir_idx] = [bcs[int(i)].value for i in dir_idx]
    for i in dir_idx:
        kinds[i] = ROW_DIRICHLET

    dirs = np.array([bcs[int(i)].direction for i in neu_idx], dtype=float).reshape(-1, 3)
    for block in _row_blocks(len(neu_idx), n):
        idx = neu_idx[block]
        grads = grad_phi(pts[idx][:, None, :], centers, kernel)
        matrix[idx] = np.einsum("mnk,mk->mn", grads, dirs[block])
    rhs[neu_idx] = [bcs[int(i)].flux for i in neu_idx]
    for i in neu_idx:
        kinds[i] = ROW_NEUMANN

    return GramSystem(
        matrix=matrix, rhs=rhs, row_kinds=tuple(kinds), nodes=nodes, kernel=kernel, aniso=aniso
    )


@dataclass(frozen=True, eq=False)
class MultiplierSolution:
    """RBF coefficients over the centers, with its kernel and interior operator.

    Every evaluator is a selection from one chunked kernel pass (:meth:`jet`).
    With d = x - c_j and s_j = 1 + c^2 |d|^2 formed by GEMM expansion, each
    derivative is a few mat-vecs against the (rows, N) blocks W_q = s^(-q/2):

        lambda      = W_1 beta
        grad lambda = -c^2 (x (W_3 beta) - W_3 (beta o C))
        lap lambda  = -3 c^2 W_5 beta
        hess lambda = -c^2 (W_3 beta) I + 3 c^4 (x x^T (W_5 beta) - x g^T - g x^T
                      + W_5 (beta o C C^T)),   g = W_5 (beta o C)

    with C the centers as rows. The anisotropic operator is sum_kl A_kl of
    the Hessian. No (m, N, 3) or (m, N, 3, 3) block is ever formed, and each
    (rows, N) block holds about ``_BLOCK_ELEMENTS`` float64 values.
    """

    coeffs: np.ndarray
    nodes: NodeSet
    kernel: KernelParams
    aniso: np.ndarray | None
    residual: float
    residual_norm: float
    rank: int
    trunc_tol: float

    def _sums(self, pts, hessian: bool):
        """(lambda, grad, lap, hess or None) at (m, 3) points from one chunked pass."""
        m = len(pts)
        beta = self.coeffs
        # An identically zero coefficient vector (e.g. zero data with zero
        # boundary values) short-circuits the kernel sums.
        if not beta.any():
            return np.zeros(m), np.zeros((m, 3)), np.zeros(m), (np.zeros((m, 3, 3)) if hessian else None)

        # Shifting to the centers' centroid keeps the expanded |x - c_j|^2 and
        # the gradient's x (W_3 beta) - W_3 (beta o C) accurate when the
        # domain lies far from the origin.
        origin = self.nodes.points.mean(axis=0)
        centers = self.nodes.points - origin
        x_all = pts - origin
        n = len(centers)
        c2 = self.kernel.shape**2
        cc = np.einsum("ij,ij->i", centers, centers)
        bc = beta[:, None] * centers
        rhs3 = np.column_stack([beta, bc])
        rhs5 = beta[:, None]
        if hessian:
            bcc = (bc[:, :, None] * centers[:, None, :]).reshape(n, 9)
            rhs5 = np.column_stack([beta, bc, bcc])

        value = np.empty(m)
        sum3 = np.empty((m, 4))
        lap5 = np.empty((m, rhs5.shape[1]))
        for block in _row_blocks(m, n):
            x = x_all[block]
            s = x @ centers.T
            s *= -2.0
            s += np.einsum("ij,ij->i", x, x)[:, None]
            s += cc
            s *= c2
            s += 1.0
            root = np.sqrt(s)
            value[block] = (1.0 / root) @ beta
            sum3[block] = (1.0 / (s * root)) @ rhs3
            # -3 c^2 s^(-5/2) exactly as lap_phi forms it, so the Laplacian is
            # the assembled interior rows applied to beta.
            w = s * s
            w *= root
            np.divide(1.0, w, out=w)
            w *= -3.0 * c2
            lap5[block] = w @ rhs5

        grad = -c2 * (x_all * sum3[:, :1] - sum3[:, 1:])
        lap = lap5[:, 0]
        hess = None
        if hessian:
            # 3 c^4 sum_j beta_j s^(-5/2) d d^T = -c^2 sum_j beta_j (-3 c^2 s^(-5/2)) d d^T.
            g5 = lap5[:, 1:4]
            moment = (
                x_all[:, :, None] * x_all[:, None, :] * lap[:, None, None]
                - x_all[:, :, None] * g5[:, None, :]
                - g5[:, :, None] * x_all[:, None, :]
                + lap5[:, 4:].reshape(m, 3, 3)
            )
            hess = -c2 * (sum3[:, 0, None, None] * np.eye(3) + moment)
        return value, grad, lap, hess

    def jet(self, pts):
        """(lambda, grad lambda, L lambda) at one point or a batch, from one kernel pass.

        L is this solution's interior operator: the Laplacian, or
        sum_kl A_kl d_k d_l when ``aniso`` is set. Single-point input gives
        (float, (3,), float); batches give ((m,), (m, 3), (m,)).
        """
        p, single = as_points(pts)
        value, grad, op, hess = self._sums(p, hessian=self.aniso is not None)
        if hess is not None:
            op = np.einsum("kl,mkl->m", self.aniso, hess)
        if single:
            return float(value[0]), grad[0], float(op[0])
        return value, grad, op

    def value(self, pts):
        return self.jet(pts)[0]

    def gradient(self, pts):
        return self.jet(pts)[1]

    def laplacian(self, pts):
        p, single = as_points(pts)
        lap = self._sums(p, hessian=False)[2]
        return float(lap[0]) if single else lap

    # No caller in the package; the benchmark's tracer wraps this name.
    def hessian(self, pts):
        p, single = as_points(pts)
        hess = self._sums(p, hessian=True)[3]
        return hess[0] if single else hess

    def operator_laplacian(self, pts):
        """Apply this solution's interior operator: lap, or sum_kl A_kl d_k d_l."""
        return self.jet(pts)[2]


def factorize_and_solve(system: GramSystem, trunc_tol: float = 1e-12) -> MultiplierSolution:
    """Solve G beta = b for the truncated-SVD minimum-norm solution by LAPACK dgelsd.

    It keeps sigma > trunc_tol * sigma_max (LAPACK's strict rule) and stores the
    full descending spectrum on ``system``; values below about eps * sigma_max
    are roundoff. The normalized residual |G beta - b| / max(|b|, 1) and the
    raw 2-norm go on the returned solution.
    """
    coeffs, _, rank, sigma = np.linalg.lstsq(system.matrix, system.rhs, rcond=trunc_tol)
    system.singular_values = sigma
    if sigma[0] == 0.0:
        raise SingularSystemError("all singular values are zero")

    resid = system.matrix @ coeffs - system.rhs
    residual_norm = float(np.linalg.norm(resid))
    residual = residual_norm / max(float(np.linalg.norm(system.rhs)), 1.0)
    if residual > 1e-6:
        log.warning("collocation solve residual %.3e (rank %d of %d)", residual, rank, len(coeffs))
    return MultiplierSolution(
        coeffs=coeffs,
        nodes=system.nodes,
        kernel=system.kernel,
        aniso=system.aniso,
        residual=residual,
        residual_norm=residual_norm,
        rank=int(rank),
        trunc_tol=float(trunc_tol),
    )


def condition_number(system: GramSystem) -> float:
    """2-norm condition number from the full singular spectrum; inf if sigma_min is 0."""
    if system.singular_values is None:
        raise ContractError("condition_number requires a factorized system")
    sigma = system.singular_values
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])


def _sci(v: float) -> str:
    return np.format_float_scientific(v, unique=True)


def dump_gram(system: GramSystem, path) -> None:
    """Write G, b, singular values, and the node set as delimited text."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# gram matrix {system.matrix.shape[0]}x{system.matrix.shape[1]}\n")
        for row in system.matrix:
            fh.write(",".join(_sci(v) for v in row) + "\n")
        fh.write("# rhs\n")
        fh.write(",".join(_sci(v) for v in system.rhs) + "\n")
        fh.write("# singular values\n")
        if system.singular_values is None:
            fh.write("\n")
        else:
            fh.write(",".join(_sci(v) for v in system.singular_values) + "\n")
        fh.write("# row kinds\n")
        fh.write(",".join(system.row_kinds) + "\n")
        fh.write("# nodes x,y,z,label\n")
        for pt, label in zip(system.nodes.points, system.nodes.labels):
            fh.write(",".join(_sci(v) for v in pt) + f",{FaceLabel(label).name.lower()}\n")
