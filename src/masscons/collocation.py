"""Asymmetric (Kansa) collocation for the multiplier Poisson problem.

One global inverse multiquadric ansatz lambda(x) = sum_j beta_j phi(|x - c_j|)
is collocated against the interior operator at interior nodes and against the
boundary operator at boundary nodes. With s = 1 + c^2 |x_i - c_j|^2,

    row i = lap phi_j(x_i) = -3 c^2 s^(-5/2)           interior, isotropic
    row i = A : hess phi_j(x_i)                         interior, operator div(A grad .)
    row i = phi_j(x_i) = s^(-1/2)                       Dirichlet node
    row i = grad phi_j(x_i) . nu_i                      Neumann node (nu may be a conormal A nu)
          = -c^2 (x_i . nu_i - nu_i . c_j) s^(-3/2)

The boundary rows come as arrays aligned with ``nodes.boundary``: a Neumann
mask, the prescribed values, and the normals or conormals the Neumann rows use.
Every row is formed from s expanded about the centroid into a GEMM over the
three coordinates (:func:`_rows`), as :meth:`MultiplierSolution.jet` forms it,
in blocks of at most _BLOCK_ELEMENTS // N rows: at most 512 KiB whatever N
is, and the block split does not change a bit of the matrix.

The dense square system G beta = b gets its truncated-SVD minimum-norm
solution, keeping the directions with sigma > trunc_tol * sigma_max. That keeps
the solve meaningful in the ill-conditioned flat-kernel regime and on
rank-deficient (pure-Neumann) systems. The flat kernel keeps a few percent of
the directions, so the solve pays for those only: a randomized range finder
(Halko, Martinsson & Tropp, SIAM Review 53, 2011, Alg. 4.4 with one power
step) gives an orthonormal basis Q of k columns, LAPACK dgelsd
(``np.linalg.lstsq``) solves the k x N projection Q^T G beta = Q^T b, and the
a-posteriori bound of their section 4.3 certifies that G has nothing above
the cut outside Q. Without the certificate k doubles from 32, one block at a
time (their section 4.4): the new directions are deflated against Q,
power-stepped and appended, and only their rows join the projection. So no
direction meets G twice: a level that adds j directions multiplies G by its
j new hash columns and applies G^T, G and the projection to its directions
once each, about 4 j columns through G or G^T, and the three levels to
k = 128 take 522 columns where redoing each level took 810. Between levels
the solve keeps only the _CERT_PROBES probe columns, which head the next
level's block, so besides G it holds about 3 k N values: Q, the projection
and dgelsd's copy of it. Once 4 k
exceeds N, or once the k-th singular value of the projection is still above
sqrt(trunc_tol) * sigma_max, dgelsd solves G itself. The sketch comes from a
counter-based hash, so the solve is deterministic. After the residual, the
solve estimates the condition number from LAPACK dgeqrf's Householder QR
of G^T, as LAPACK reads the C-ordered G, done in place, so
:func:`factorize_and_solve` consumes the matrix.

The solved multiplier is evaluated by :meth:`MultiplierSolution.jet`, which
returns lambda, grad lambda and the interior operator applied to lambda from
one pass over byte-bounded blocks of target points; the per-quantity
evaluators select from it. The pass takes one of two paths: direct sums over
(rows, N) kernel blocks, O(m N) for m points, or in the flat regime a
truncated binomial series of the kernel factors, O((m + N) P) over its P
monomials, taken only where it forms fewer numbers (:func:`_series_order`).
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ContractError, SingularSystemError
from .geometry import FaceLabel, NodeSet, as_points
from .kernel import KernelParams, hess_phi
from .kernel import grad_phi, lap_phi, phi_sq  # noqa: F401  # unused; the benchmark's tracer patches these names

__all__ = [
    "GramSystem",
    "MultiplierSolution",
    "assemble",
    "factorize_and_solve",
    "dump_gram",
]

log = logging.getLogger(__name__)

# The solve keeps the directions with sigma > DEFAULT_TRUNC_TOL * sigma_max when given no tolerance.
DEFAULT_TRUNC_TOL = 1e-12
# Float64 elements per (rows, N) block (512 KiB), in assembly and in MultiplierSolution.jet.
_BLOCK_ELEMENTS = 1 << 16

# The flat-regime series of MultiplierSolution.jet stops at K terms once the
# first omitted q = 5 term, |binom(-5/2, K)| u_max^K, is at most _SERIES_TOL.
_SERIES_TOL = 2.0**-55

# The sketched solve starts at _SKETCH_START directions. _CERT_PROBES more
# probes check it, and the kept rank must stay that many below k.
_SKETCH_START = 32
_CERT_PROBES = 10
# Probes of the condition number's power step, their hash counters (far past
# any sketch's), and the row block of its triangular solves.
_KAPPA_PROBES = 8
_KAPPA_STREAM = 1 << 48
_TRI_BLOCK = 64

ROW_INTERIOR = "interior-laplacian"
ROW_ANISO = "anisotropic-laplacian"
ROW_DIRICHLET = "dirichlet"
ROW_NEUMANN = "neumann"


@dataclass
class GramSystem:
    """Dense collocation system with its build context.

    :func:`factorize_and_solve` overwrites ``matrix``; it becomes None.
    """

    matrix: np.ndarray | None
    rhs: np.ndarray
    row_kinds: tuple[str, ...]
    nodes: NodeSet
    kernel: KernelParams
    aniso: np.ndarray | None = None


def _row_blocks(m: int, n: int):
    """Slices of at most ``_BLOCK_ELEMENTS // n`` (at least one) of m rows of n values each."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    return (slice(start, start + rows) for start in range(0, m, rows))


def _binomial(q: int, k: int) -> float:
    """binom(-q/2, k), the k-th coefficient of the series of (1 + u)^(-q/2)."""
    return math.prod((-q / 2 - i) / (i + 1) for i in range(k))


def _series_order(u_max: float, m: int, n: int) -> int:
    """K of the flat-regime series for m points against n centers, or 0 for the direct sums.

    K is the least count from 2 whose first omitted q = 5 term, |binom(-5/2, K)|
    u_max^K, is at most _SERIES_TOL; for u_max < 0.4 the terms of every
    q <= 5 alternate in sign and decrease, so that term bounds the remainder
    over 0 <= u <= u_max. The series forms P = C(K + 4, 5) monomials per point
    and per center, the direct sums one kernel entry per pair, so it is taken
    only when (m + n) P < m n.
    """
    k = 2
    while u_max < 0.4 and (m + n) * math.comb(k + 4, 5) < m * n:
        if abs(_binomial(5, k)) * u_max**k <= _SERIES_TOL:
            return k
        k += 1
    return 0


def _s_block(x, centers, cc, c2):
    """(rows, N) s = 1 + c^2 (|x|^2 - 2 x . c_j + |c_j|^2), by GEMM expansion; cc holds |c_j|^2."""
    s = x @ centers.T
    s *= -2.0
    s += np.einsum("ij,ij->i", x, x)[:, None]
    s += cc
    s *= c2
    s += 1.0
    return s


def _lap_factor(s, root, c2):
    """-3 c^2 s^(-5/2) from an s block and its square root: the Laplacian rows, and the jet's factor."""
    w = s * s
    w *= root
    np.divide(1.0, w, out=w)
    w *= -3.0 * c2
    return w


def _aniso_rows(x, centers, cc, c2, a, cac):
    """(rows, N) A : hess phi = c^2 (3 c^2 d^T A d - tr(A) s) s^(-5/2), expanded like :func:`_s_block`.

    d^T A d = x^T A x - x^T (A + A^T) c_j + c_j^T A c_j, with cac holding c_j^T A c_j.
    """
    s = _s_block(x, centers, cc, c2)
    row = (x @ (a + a.T)) @ centers.T
    np.subtract(np.einsum("ij,jk,ik->i", x, a, x)[:, None], row, out=row)
    row += cac
    row *= 3.0 * c2
    row -= np.trace(a) * s
    root = np.sqrt(s)
    s *= s
    s *= root
    row /= s
    row *= c2
    return row


def _rows(kind, x, nu, centers, cc, c2, a, cac):
    """(rows, N) collocation rows of one kind at the points x, with normals or conormals nu, from :func:`_s_block`."""
    if kind == ROW_ANISO:
        return _aniso_rows(x, centers, cc, c2, a, cac)
    s = _s_block(x, centers, cc, c2)
    root = np.sqrt(s)
    if kind == ROW_INTERIOR:
        return _lap_factor(s, root, c2)
    if kind == ROW_DIRICHLET:
        return 1.0 / root
    # grad phi_j . nu = -c^2 (x . nu - nu . c_j) s^(-3/2)
    row = nu @ centers.T
    np.subtract(np.einsum("ij,ij->i", x, nu)[:, None], row, out=row)
    row *= -c2
    s *= root
    return np.divide(row, s, out=row)


def assemble(
    nodes: NodeSet,
    kernel: KernelParams,
    neumann: np.ndarray,
    values: np.ndarray,
    conormals: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    aniso: np.ndarray | None = None,
) -> GramSystem:
    """Build the N x N collocation matrix and right-hand side.

    ``neumann`` (bool), ``values`` and ``conormals`` (m, 3) hold one row per
    node of ``nodes.boundary``: a Dirichlet row pins lambda to its value and a
    Neumann row prescribes grad lambda . conormal = value. ``f`` is the
    interior source evaluated at the interior nodes. ``aniso`` switches the
    interior operator to A : hess (:func:`_aniso_rows`). Rows are formed
    from :func:`_s_block` in blocks of at most _BLOCK_ELEMENTS // N; a shape
    whose s^(5/2) overflows over the nodes' extent raises DomainError.
    """
    pts = nodes.points
    n = len(pts)
    boundary = nodes.boundary
    m = len(boundary)
    if np.shape(neumann) != (m,) or np.shape(values) != (m,) or np.shape(conormals) != (m, 3):
        raise ContractError(
            f"boundary data must hold one row per boundary node ({m}): neumann "
            f"{np.shape(neumann)}, values {np.shape(values)}, conormals {np.shape(conormals)}"
        )
    kernel.require_finite_over(float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))))

    # about the centroid, as MultiplierSolution.jet expands the same forms
    x = pts - pts.mean(axis=0)
    cc = np.einsum("ij,ij->i", x, x)
    cac = None if aniso is None else np.einsum("ij,jk,ik->i", x, aniso, x)
    nu = np.zeros((n, 3))
    nu[boundary] = conormals
    kinds = np.full(n, ROW_INTERIOR if aniso is None else ROW_ANISO, dtype=object)
    kinds[boundary] = np.where(neumann, ROW_NEUMANN, ROW_DIRICHLET)
    matrix = np.empty((n, n))
    for kind in (ROW_INTERIOR, ROW_ANISO, ROW_DIRICHLET, ROW_NEUMANN):
        rows = np.flatnonzero(kinds == kind)
        for block in _row_blocks(len(rows), n):
            idx = rows[block]
            matrix[idx] = _rows(kind, x[idx], nu[idx], x, cc, kernel.shape**2, aniso, cac)
    rhs = np.empty(n)
    rhs[nodes.interior] = np.asarray(f(pts[nodes.interior]), dtype=float)
    rhs[boundary] = values
    return GramSystem(
        matrix=matrix, rhs=rhs, row_kinds=tuple(kinds), nodes=nodes, kernel=kernel, aniso=aniso
    )


def _direct_sums(x_all, centers, cc, c2, beta, rhs3, rhs5):
    """(W_1 beta, W_3 rhs3, -3 c^2 W_5 rhs5) from (rows, N) kernel blocks of W_q = s^(-q/2)."""
    m = len(x_all)
    value = np.empty(m)
    sum3 = np.empty((m, 4))
    lap5 = np.empty((m, rhs5.shape[1]))
    for block in _row_blocks(m, len(centers)):
        s = _s_block(x_all[block], centers, cc, c2)
        root = np.sqrt(s)
        value[block] = (1.0 / root) @ beta
        sum3[block] = (1.0 / (s * root)) @ rhs3
        lap5[block] = _lap_factor(s, root, c2) @ rhs5
    return value, sum3, lap5


def _monomials(feats: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(P, m) products of the (6, m) feature rows that each row of ``terms`` indexes."""
    out = feats[terms[:, 0]]
    for col in terms.T[1:]:
        out *= feats[col]
    return out


def _series_sums(x_all, xx, centers, cc, c, order, rhs):
    """[W_1, W_3, W_3, W_3, W_3, -3 c^2 W_5, ...] applied column by column to ``rhs``, by the series.

    u_ij = c^2 |x_i - c_j|^2 = f(x_i) . g(c_j) with f = (1, c x, c^2 |x|^2) and
    g = (c^2 |c_j|^2, -2 c c_j, 1), so sum_{k < order} binom(-q/2, k) u^k is
    F diag(coef_q) G^T over the monomials of f and g, with coef_q of a
    multi-index alpha of size k binom(-q/2, k) k! / alpha!. The two sides
    share the scale c: no feature exceeds 2 sqrt(u_max) in size, so no
    monomial overflows, and none underflows unless its term does. A sixth
    feature 1 on both sides pads every multi-index to size order - 1.
    """
    terms = list(itertools.combinations_with_replacement(range(6), order - 1))
    powers = [1, 3, 3, 3, 3] + [5] * (rhs.shape[1] - 5)
    coef = np.empty((len(terms), len(powers)))
    for i, t in enumerate(terms):
        alpha = Counter(a for a in t if a < 5)
        size = sum(alpha.values())
        weight = math.factorial(size) / math.prod(map(math.factorial, alpha.values()))
        coef[i] = [_binomial(q, size) * weight for q in powers]
    coef[:, 5:] *= -3.0 * c**2
    terms = np.array(terms)
    ones = np.ones(len(centers))
    moments = coef * (_monomials(np.vstack([c**2 * cc, -2.0 * c * centers.T, ones, ones]), terms) @ rhs)
    sums = np.empty((len(x_all), rhs.shape[1]))
    for block in _row_blocks(len(x_all), len(terms)):
        ones = np.ones(len(xx[block]))
        f = np.vstack([ones, c * x_all[block].T, c**2 * xx[block], ones])
        sums[block] = _monomials(f, terms).T @ moments
    return sums


@dataclass(frozen=True, eq=False)
class MultiplierSolution:
    """RBF coefficients over the centers, with its kernel and interior operator.

    The solve's numbers live here only: ``rank``, the directions it kept;
    ``residual_norm`` |G beta - b| and ``residual`` that over max(|b|, 1); and
    ``kappa``, the condition number estimate of the matrix it was solved from.

    Every evaluator is a selection from one chunked kernel pass (:meth:`jet`).
    With d = x - c_j and s_j = 1 + c^2 |d|^2 formed by GEMM expansion, each
    derivative is a few mat-vecs against the (rows, N) blocks W_q = s^(-q/2):

        lambda          = W_1 beta
        grad lambda     = -c^2 (x (W_3 beta) - W_3 (beta o C))
        lap lambda      = -3 c^2 W_5 beta
        A : hess lambda = -c^2 tr(A) (W_3 beta) + 3 c^4 sum_j beta_j s_j^(-5/2) d^T A d,
        d^T A d         = x^T A x - x^T (A + A^T) c_j + c_j^T A c_j

    with C the centers as rows, so the operator takes W_5 [beta, beta o C,
    beta o (c_j^T A c_j)]. No (m, N, 3) or (m, N, 3, 3) block is ever formed.

    The direct path forms the assembly's s blocks and -3 c^2 W_5
    (:func:`_lap_factor`), so at the nodes the Laplacian is the assembled
    interior rows applied to beta. A : hess lambda sums their terms in another
    order, and the series (:func:`_series_sums`) meets them only to about
    eps sum_j |beta_j| 3 c^2; both meet the pairwise sums to that roundoff.
    """

    coeffs: np.ndarray
    nodes: NodeSet
    kernel: KernelParams
    aniso: np.ndarray | None
    residual: float
    residual_norm: float
    rank: int
    kappa: float

    def jet(self, pts):
        """(lambda, grad lambda, L lambda), (m,), (m, 3) and (m,), at (m, 3) points from one kernel pass.

        L is this solution's interior operator: the Laplacian, or A : hess
        lambda when ``aniso`` is A.
        """
        p = as_points(pts)
        m = len(p)
        beta = self.coeffs
        # An identically zero coefficient vector (e.g. zero data with zero
        # boundary values) short-circuits the kernel sums.
        if not beta.any():
            return np.zeros(m), np.zeros((m, 3)), np.zeros(m)

        # Shifting to the centers' centroid keeps the expanded |x - c_j|^2 and
        # the gradient's x (W_3 beta) - W_3 (beta o C) accurate when the
        # domain lies far from the origin.
        origin = self.nodes.points.mean(axis=0)
        centers = self.nodes.points - origin
        x_all = p - origin
        n = len(centers)
        c2 = self.kernel.shape**2
        a = self.aniso
        cc = np.einsum("ij,ij->i", centers, centers)
        bc = beta[:, None] * centers
        rhs3 = np.column_stack([beta, bc])
        rhs5 = beta[:, None]
        if a is not None:
            rhs5 = np.column_stack([beta, bc, beta * np.einsum("ij,jk,ik->i", centers, a, centers)])

        xx = np.einsum("ij,ij->i", x_all, x_all)
        order = _series_order(c2 * (np.sqrt(np.max(xx, initial=0.0)) + np.sqrt(cc.max())) ** 2, m, n)
        if order:
            rhs = np.column_stack([beta, rhs3, rhs5])
            sums = _series_sums(x_all, xx, centers, cc, self.kernel.shape, order, rhs)
            value, sum3, lap5 = sums[:, 0], sums[:, 1:5], sums[:, 5:]
        else:
            value, sum3, lap5 = _direct_sums(x_all, centers, cc, c2, beta, rhs3, rhs5)

        grad = -c2 * (x_all * sum3[:, :1] - sum3[:, 1:])
        op = lap5[:, 0]
        if a is not None:
            # 3 c^4 W_5 = -c^2 (-3 c^2 W_5), and d^T A d expands over the lap5 columns.
            quad = (
                np.einsum("ij,jk,ik->i", x_all, a, x_all) * op
                - np.einsum("ij,ij->i", x_all @ (a + a.T), lap5[:, 1:4])
                + lap5[:, 4]
            )
            op = -c2 * (np.trace(a) * sum3[:, 0] + quad)
        return value, grad, op

    def value(self, pts):
        return self.jet(pts)[0]

    def gradient(self, pts):
        return self.jet(pts)[1]

    def laplacian(self, pts):
        return replace(self, aniso=None).jet(pts)[2]

    # No caller in the package; the benchmark's tracer wraps this name.
    def hessian(self, pts):
        """Hessian of lambda, (m, 3, 3) at (m, 3) points, summed from hess_phi over row blocks."""
        p = as_points(pts)
        centers = self.nodes.points[None, :, :]
        hess = np.empty((len(p), 3, 3))
        for block in _row_blocks(len(p), 9 * len(self.coeffs)):  # 9 values per center
            h = hess_phi(p[block][:, None, :], centers, self.kernel)
            hess[block] = np.einsum("mnkl,n->mkl", h, self.coeffs)
        return hess

    def operator_laplacian(self, pts):
        """Apply this solution's interior operator: lap, or A : hess."""
        return self.jet(pts)[2]


def _hash_uniform(n: int, cols: int, offset: int = 0) -> np.ndarray:
    """(n, cols) numbers in [-1, 1): SplitMix64's finalizer over the counters after ``offset``.

    Column j holds the j-th run of n counters, so the first columns do not
    depend on ``cols``. Uses no random state: importing ``numpy.random``
    would add megabytes of resident memory.
    """
    z = np.arange(offset + 1, offset + 1 + n * cols, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(cols, n).T


def _deflate(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x orthogonalized twice against the orthonormal columns of q, orthonormalized in between.

    One pass leaves rounding of order eps |q^T x| along q, which the next
    normalization and the power step's G would blow up; the second pass
    takes it to eps of the normalized columns.
    """
    along = q @ (q.T @ x)
    x = np.linalg.qr(np.subtract(x, along, out=along))[0]
    x -= q @ (q.T @ x)
    return x


# Bytes per N^2 of one row's dense solve: 3 N^2 float64. A sketched solve holds
# the matrix and about 3 k N values more (Q, the k x N projection and dgelsd's
# copy of it), but a high-rank row falls back to dgelsd on G, which holds the
# matrix and numpy's copy of it; one N^2 more is headroom for dgelsd's
# O(N log N) workspace and the 512 KiB assembly blocks. The solve's condition
# estimate then factors the matrix in place and frees it.
_SOLVE_BYTES_PER_PAIR = 3 * 8


def _truncated_solve(g: np.ndarray, b: np.ndarray, trunc_tol: float) -> tuple[np.ndarray, int, float]:
    """(beta, rank, sigma_max) of the truncated-SVD minimum-norm solution of g beta = b.

    Sketches the range of g with the first k hash columns and one power step,
    and solves the k x N projection by dgelsd. It accepts when the kept rank
    is _CERT_PROBES below k and 10 sqrt(2/pi) max_i |(I - QQ^T) g w_i| over
    the next _CERT_PROBES columns w_i, scaled to unit variance, is below the
    cut (Halko, Martinsson & Tropp 2011, section 4.3; the bound's probability
    is proved for Gaussian w_i, so for these it is a heuristic). Otherwise k
    doubles by one block (section 4.4): g multiplies only the new hash
    columns, whose k / 2 sketch columns are deflated against Q, power-stepped
    (g^T, then g) and deflated again (:func:`_deflate`); they join Q, and only
    their rows join the projection. Of the sketch columns g w only the
    probes outlive a level: they head the next level's block. The first
    level, which has no Q, is the plain one-power-step range finder. Once
    4 k exceeds N, or when the projection's last singular value is still
    above sqrt(trunc_tol) sigma_max, so the spectrum has not fallen halfway
    to the cut in k directions, dgelsd solves g itself.
    """
    n = len(b)
    k = _SKETCH_START
    # The sketch columns past the basis: the last level's probes, which head the next block.
    y = np.empty((n, 0))
    q, proj, qb = np.empty((n, 0)), np.empty((0, n)), np.empty(0)
    while 4 * k <= n:
        kept = q.shape[1]
        done = kept + y.shape[1]
        y = np.hstack([y, g @ _hash_uniform(n, k + _CERT_PROBES - done, done * n)])
        block, y = y[:, : k - kept], y[:, k - kept :].copy()
        if kept:
            block = _deflate(q, block)
        new = g @ np.linalg.qr(g.T @ np.linalg.qr(block)[0])[0]
        del block  # and with it the level's sketch columns, freed before the projection grows
        if kept:
            new = _deflate(q, new)
        new = np.linalg.qr(new)[0]
        proj, qb = np.vstack([proj, new.T @ g]), np.concatenate([qb, new.T @ b])
        q = np.hstack([q, new])
        del new
        beta, _, rank, sigma = np.linalg.lstsq(proj, qb, rcond=trunc_tol)
        miss = np.sqrt(3.0) * np.linalg.norm(y - q @ (q.T @ y), axis=0).max()
        if rank + _CERT_PROBES <= k and 10 * np.sqrt(2 / np.pi) * miss <= trunc_tol * sigma[0]:
            return beta, int(rank), float(sigma[0])
        if sigma[-1] > np.sqrt(trunc_tol) * sigma[0]:
            break
        k *= 2
    del q, proj, y  # freed before dgelsd copies g
    beta, _, rank, sigma = np.linalg.lstsq(g, b, rcond=trunc_tol)
    return beta, int(rank), float(sigma[0])


def _qr_in_place(g: np.ndarray) -> None:
    """Householder QR G^T = QR that overwrites ``g``; R^T lands in g's lower triangle.

    LAPACK dgeqrf reads the C-ordered g as G^T and factors it there, after a
    workspace query, with no N x N copy. kappa(G^T) = kappa(G).
    """
    n = len(g)
    tau, work = np.empty(n), np.empty(1)
    lapack_lite.dgeqrf(n, n, g, n, tau, work, -1, 0)
    work = np.empty(int(work[0]))
    lapack_lite.dgeqrf(n, n, g, n, tau, work, len(work), 0)


def _lower_solve(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^-1 x for L the lower triangle of ``a``, in blocks of _TRI_BLOCK rows."""
    z = np.empty_like(x)
    for s in range(0, len(a), _TRI_BLOCK):
        e = s + _TRI_BLOCK
        # Reversed, the diagonal block is upper triangular, so its LU pivots
        # nowhere and the solve is plain substitution.
        block = np.tril(a[s:e, s:e])[::-1, ::-1]
        z[s:e] = np.linalg.solve(block, (x[s:e] - a[s:e, :s] @ z[:s])[::-1])[::-1]
    return z


def _condition_estimate(g: np.ndarray, sigma_max: float) -> float:
    """sigma_max |G^-1|_2, |G^-1|_2 from one power step on a QR that overwrites ``g``.

    With G^T = QR (:func:`_qr_in_place`), |G^-1|_2 = |G^-T|_2 = |R^-1|_2. The estimate is
    max_i |R^-1 y_i| over y_i = R^-T x_i / |R^-T x_i| for _KAPPA_PROBES hash
    probes x_i. A zero on R's diagonal gives inf. Both triangles go through
    :func:`_lower_solve`: L = R^T is g's lower triangle, and the lower
    triangle of g^T with rows and columns reversed is L^T reversed, so
    L^-T y is that solve of the reversed y, reversed.
    """
    n = len(g)
    _qr_in_place(g)
    if not np.diagonal(g).all():
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        z = _lower_solve(g, _hash_uniform(n, _KAPPA_PROBES, _KAPPA_STREAM))
        w = _lower_solve(g.T[::-1, ::-1], (z / np.linalg.norm(z, axis=0))[::-1])[::-1]
        kappa = sigma_max * float(np.linalg.norm(w, axis=0).max())
    # overflow past the float range gives inf or, as inf / inf, NaN
    return kappa if np.isfinite(kappa) else float("inf")


def factorize_and_solve(system: GramSystem, trunc_tol: float = DEFAULT_TRUNC_TOL) -> MultiplierSolution:
    """Solve G beta = b for the truncated-SVD minimum-norm solution, and estimate kappa of G.

    It keeps sigma > trunc_tol * sigma_max (LAPACK's strict rule); see
    :func:`_truncated_solve`. The normalized residual |G beta - b| / max(|b|, 1),
    the raw 2-norm and the condition number estimate (:func:`_condition_estimate`)
    go on the returned solution. The estimate factors G in place, so the solve
    consumes ``system.matrix``: it becomes None.
    """
    if not 0 < trunc_tol < 1:  # dgelsd would replace an rcond >= 1 by machine epsilon
        raise ContractError(f"trunc_tol must lie in (0, 1), got {trunc_tol}")
    g = system.matrix
    if g is None:
        raise ContractError("the system's matrix was consumed by its solve")
    if g.shape != (len(system.rhs),) * 2:
        raise ContractError(f"the matrix must be {len(system.rhs)} x {len(system.rhs)}, got {g.shape}")
    coeffs, rank, sigma_max = _truncated_solve(g, system.rhs, trunc_tol)
    if sigma_max == 0.0:
        raise SingularSystemError("all singular values are zero")

    resid = g @ coeffs - system.rhs
    residual_norm = float(np.linalg.norm(resid))
    residual = residual_norm / max(float(np.linalg.norm(system.rhs)), 1.0)
    if residual > 1e-6:
        log.warning("collocation solve residual %.3e (rank %d of %d)", residual, rank, len(coeffs))
    system.matrix = None
    return MultiplierSolution(
        coeffs=coeffs, nodes=system.nodes, kernel=system.kernel, aniso=system.aniso, residual=residual,
        residual_norm=residual_norm, rank=rank,
        kappa=_condition_estimate(g, sigma_max),
    )


def _sci(v: float) -> str:
    return np.format_float_scientific(v, unique=True)


def dump_gram(system: GramSystem, path) -> None:
    """Write G, b, the singular values of G, and the node set as delimited text.

    Needs the assembled matrix, so it runs before :func:`factorize_and_solve`.
    """
    if system.matrix is None:
        raise ContractError("dump_gram requires the matrix, which factorize_and_solve consumes")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# gram matrix {system.matrix.shape[0]}x{system.matrix.shape[1]}\n")
        for row in system.matrix:
            fh.write(",".join(_sci(v) for v in row) + "\n")
        fh.write("# rhs\n")
        fh.write(",".join(_sci(v) for v in system.rhs) + "\n")
        fh.write("# singular values\n")
        fh.write(",".join(_sci(v) for v in np.linalg.svd(system.matrix, compute_uv=False)) + "\n")
        fh.write("# row kinds\n")
        fh.write(",".join(system.row_kinds) + "\n")
        fh.write("# nodes x,y,z,label\n")
        for pt, label in zip(system.nodes.points, system.nodes.labels):
            fh.write(",".join(_sci(v) for v in pt) + f",{FaceLabel(label).name.lower()}\n")
