import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from masscons import collocation
from masscons.adjust import Problem, build_system
from masscons.collocation import (
    _BLOCK_ELEMENTS,
    _SERIES_TOL,
    MultiplierSolution,
    _binomial,
    _direct_sums,
    _series_order,
    assemble,
    factorize_and_solve,
)
from masscons.config import ExperimentConfig, parse_config
from masscons.errors import ConfigurationError, ContractError, DomainError, SingularSystemError
from masscons.fields import example_field, midpoint_rule, updraft
from masscons.geometry import BoxDomain, FaceLabel, NodeSet, grid_centers
from masscons.kernel import KernelParams, grad_phi, hess_phi, lap_phi, phi_sq
from masscons.runner import _face_policy, dump_gram

CUBE = BoxDomain(-2, 2, -2, 2, -2, 2)
SLAB = BoxDomain(-2, 2, -2, 2, 0, 2)

ZERO_F = lambda pts: np.zeros(len(pts))


def dirichlet_all(nodes, values=None):
    """Boundary rows pinning lambda to ``values`` (zero when None) on every boundary node."""
    boundary = nodes.boundary
    pinned = np.zeros(len(boundary)) if values is None else np.asarray(values, dtype=float)[boundary]
    return np.zeros(len(boundary), dtype=bool), pinned, nodes.normals[boundary]


def ex51_system(n, c):
    """Sealed-bottom system of the flat-shape study: Neumann on the ground, zero
    Dirichlet elsewhere, constant source -2."""
    nodes = grid_centers(SLAB, n)
    boundary = nodes.boundary
    normals = nodes.normals[boundary]
    neumann = nodes.labels[boundary] == FaceLabel.BOTTOM
    misfit = -nodes.points[boundary] * [1.0, 1.0, 0.0]
    values = np.where(neumann, np.sum(misfit * normals, axis=1), 0.0)
    return assemble(nodes, KernelParams(c), neumann, values, normals, lambda pts: np.full(len(pts), -2.0))


def test_shape_that_overflows_the_kernels_over_the_nodes_raises_domain_error():
    # SLAB's 3^3 nodes span a diameter of 6: s = 1 + c^2 36 = 3.6e201 at c = 1e100, and s^(5/2) overflows
    nodes = grid_centers(SLAB, 3)
    with pytest.raises(DomainError, match="overflow"):
        assemble(nodes, KernelParams(1e100), *dirichlet_all(nodes), ZERO_F)


def test_dirichlet_rows_have_unit_diagonal():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(0.001), *dirichlet_all(nodes), ZERO_F)
    for i in nodes.boundary:
        assert system.matrix[i, i] == 1.0
        assert system.row_kinds[i] == "dirichlet"


def test_interior_diagonal_is_lap_at_zero():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), *dirichlet_all(nodes), ZERO_F)
    (i,) = nodes.interior
    assert system.matrix[i, i] == -3.0
    assert system.row_kinds[i] == "interior-laplacian"


def test_identity_anisotropy_reproduces_isotropic_rows():
    # Identity weights never reach the anisotropic operator: Problem.aniso is
    # None for them. Passed explicitly, the identity's closed-form rows are
    # the Laplacian rows up to roundoff.
    assert Problem.full(updraft(), CUBE, np.eye(3)).aniso is None
    nodes = grid_centers(CUBE, 4)
    iso = assemble(nodes, KernelParams(0.7), *dirichlet_all(nodes), ZERO_F)
    aniso = assemble(nodes, KernelParams(0.7), *dirichlet_all(nodes), ZERO_F, aniso=np.eye(3))
    interior = nodes.interior
    rows = aniso.matrix[interior]
    scale = np.abs(rows).max(axis=1, keepdims=True)
    assert np.all(np.abs(rows - iso.matrix[interior]) <= 1e-13 * scale)
    boundary = nodes.boundary
    assert np.array_equal(iso.matrix[boundary], aniso.matrix[boundary])


SPD = np.array([[1.0, 0.2, 0.1], [0.2, 0.5, -0.1], [0.1, -0.1, 0.25]])


def mixed_bcs(nodes, a):
    """Neumann rows along the conormal A nu on bottom, top and xmin; Dirichlet elsewhere."""
    boundary = nodes.boundary
    neumann = np.isin(nodes.labels[boundary], (FaceLabel.BOTTOM, FaceLabel.TOP, FaceLabel.XMIN))
    return neumann, np.where(neumann, 0.5, 0.25), nodes.normals[boundary] @ a.T


def test_anisotropic_rows_contract_hessian():
    # 1000 centers: the 512 interior rows span several row blocks
    nodes = grid_centers(CUBE, 10)
    kernel = KernelParams(0.7)
    interior = nodes.interior
    x = nodes.points[interior][:, None, :]
    centers = nodes.points[None, :, :]
    # Diagonal, SPD, the inverse of an SPD matrix (not bitwise symmetric, as
    # Problem.aniso is) and SPD plus a skew part, which A : hess phi ignores.
    inverse = np.linalg.inv(SPD)
    assert not np.array_equal(inverse, inverse.T)
    skew = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.1], [0.2, -0.1, 0.0]])
    for a in (None, np.diag([1.0, 0.5, 0.25]), SPD, inverse, SPD + skew):
        bcs = mixed_bcs(nodes, SPD if a is None else a)
        system = assemble(nodes, kernel, *bcs, ZERO_F, aniso=a)
        kinds = np.array(system.row_kinds)
        # every row kind spans several blocks of 65 rows
        for kind in ("interior-laplacian" if a is None else "anisotropic-laplacian", "dirichlet", "neumann"):
            assert np.count_nonzero(kinds == kind) > _BLOCK_ELEMENTS // len(nodes.points)
        # the block split does not change a bit of any row kind:
        # 2^12 elements is 4 rows a block, 2^20 every row of a kind in one
        for elements in (1 << 12, 1 << 16, 1 << 20):
            with mock.patch.object(collocation, "_BLOCK_ELEMENTS", elements):
                again = assemble(nodes, kernel, *bcs, ZERO_F, aniso=a)
            assert np.array_equal(again.matrix, system.matrix)
        if a is None:
            continue
        rows = system.matrix[interior]
        # it meets the pointwise closed form to roundoff of the row's scale
        scale = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - lap_phi(x, centers, kernel, a)) <= 1e-14 * scale)
        # and the closed form is A : hess phi up to roundoff
        contracted = np.einsum("kl,mnkl->mn", a, hess_phi(x, centers, kernel))
        assert np.all(np.abs(rows - contracted) <= 1e-13 * scale)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    shape=st.floats(1e-3, 0.5),
    per_axis=st.integers(4, 7),
    half=st.floats(0.5, 7.0),
    offset=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
    anisotropic=st.booleans(),
)
@example(shape=0.5, per_axis=6, half=7.0, offset=(1e4, -1e4, 1e4), anisotropic=False)
@example(shape=0.5, per_axis=6, half=7.0, offset=(1e4, -1e4, 1e4), anisotropic=True)
def test_every_row_kind_meets_the_kernel_oracle(shape, per_axis, half, offset, anisotropic):
    # The s-block rows against the pointwise kernels on unshifted points,
    # Neumann rows along the conormal A nu: each row's worst entry is within
    # 1e-13 of its largest, on boxes up to 14 across and 1e4 from the origin.
    lo = np.asarray(offset) - half
    box = BoxDomain(lo[0], lo[0] + 2 * half, lo[1], lo[1] + 2 * half, lo[2], lo[2] + half)
    nodes = grid_centers(box, per_axis)
    kernel = KernelParams(shape)
    a = SPD if anisotropic else None
    neumann, values, conormals = mixed_bcs(nodes, SPD)
    matrix = assemble(nodes, kernel, neumann, values, conormals, ZERO_F, aniso=a).matrix
    pts = nodes.points
    x, centers = pts[:, None, :], pts[None, :, :]
    oracle = lap_phi(x, centers, kernel, a)
    boundary = nodes.boundary
    oracle[boundary] = phi_sq(np.sum((x[boundary] - centers) ** 2, axis=-1), kernel)
    grads = grad_phi(x[boundary[neumann]], centers, kernel)
    oracle[boundary[neumann]] = np.einsum("mnk,mk->mn", grads, conormals[neumann])
    worst = np.abs(matrix - oracle).max(axis=1)
    assert np.all(worst <= 1e-13 * np.abs(oracle).max(axis=1))


def test_isotropic_rows_are_the_jets_laplacian_factor():
    # The jet's direct sums against the identity give the -3 c^2 W_5 factor
    # at the interior nodes exactly: it is the assembled Laplacian rows, bit
    # for bit, because both form it by _lap_factor from the same s block.
    nodes = grid_centers(SLAB, 6)
    kernel = KernelParams(0.3)
    system = assemble(nodes, kernel, *dirichlet_all(nodes), ZERO_F)
    n = len(nodes.points)
    centers = nodes.points - nodes.points.mean(axis=0)
    x = centers[nodes.interior]
    _, _, factor = _direct_sums(
        x, centers, np.einsum("ij,ij->i", centers, centers), kernel.shape**2, np.zeros(n), np.zeros((n, 4)), np.eye(n)
    )
    assert np.array_equal(factor, system.matrix[nodes.interior])


def test_assembly_memory_is_bounded_by_bytes():
    # Blocked, this assembly peaks under 2 MiB above the matrix (5.6 MiB when
    # the gradient blocks took 1.5 MiB); unblocked, its gradient and
    # difference arrays over all 1000 centers take 27 MiB.
    nodes = grid_centers(CUBE, 10)
    bcs = mixed_bcs(nodes, SPD)
    tracemalloc.start()
    try:
        system = assemble(nodes, KernelParams(0.7), *bcs, ZERO_F, aniso=SPD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - system.matrix.nbytes <= 4 * 2**20


def test_every_s_block_of_assembly_fits_one_block(monkeypatch):
    # At N = 1000 a block is 65 rows of (rows, N) values, at most
    # _BLOCK_ELEMENTS float64 (512 KiB) for every row kind; the Neumann
    # rows' (rows, N, 3) gradient blocks of 65 rows took 1.5 MiB. Every row
    # is formed from _s_block, and no kernel is called.
    nodes = grid_centers(CUBE, 10)
    nbytes = []
    s_block = collocation._s_block

    def recording(*args):
        out = s_block(*args)
        nbytes.append(out.nbytes)
        return out

    def forbidden(*args, **kwargs):
        raise AssertionError("assembly called a kernel")

    monkeypatch.setattr(collocation, "_s_block", recording)
    for name in ("phi_sq", "grad_phi", "lap_phi", "hess_phi"):
        monkeypatch.setattr(collocation, name, forbidden)
    for a in (None, SPD):
        assemble(nodes, KernelParams(0.7), *mixed_bcs(nodes, SPD), ZERO_F, aniso=a)
    # 1000 rows of each of the two systems, in blocks of at most 65
    assert len(nbytes) >= 2 * 1000 // 65 and max(nbytes) <= _BLOCK_ELEMENTS * 8


def test_anisotropic_assembly_holds_no_hessian_block():
    # N = 729: a (89, 729, 3, 3) Hessian block and its products held 16.8 MB
    # above the matrix; the closed-form operator holds a few (rows, N) arrays.
    nodes = grid_centers(CUBE, 9)
    peak = traced_peak(lambda: assemble(nodes, KernelParams(0.7), *dirichlet_all(nodes), ZERO_F, aniso=SPD))
    assert peak < len(nodes.points) ** 2 * 8 + 6 * 2**20


def test_boundary_shape_mismatch_errors():
    # one row per boundary node, in each of the three arrays
    nodes = grid_centers(SLAB, 3)
    neumann, values, conormals = dirichlet_all(nodes)
    for bad in (
        (neumann[1:], values, conormals),
        (neumann, np.append(values, 0.0), conormals),
        (neumann, values, conormals[:, :2]),
        (neumann, values, conormals.ravel()),
        (np.zeros(len(nodes.points), dtype=bool), values, conormals),
    ):
        with pytest.raises(ContractError, match="one row per boundary node"):
            assemble(nodes, KernelParams(1.0), *bad, ZERO_F)


def test_zero_data_gives_zero_coefficients():
    nodes = grid_centers(SLAB, 4)
    system = assemble(nodes, KernelParams(0.3), *dirichlet_all(nodes), ZERO_F)
    solution = factorize_and_solve(system)
    assert np.all(solution.coeffs == 0.0)
    assert solution.residual == 0.0


def test_manufactured_linear_solution():
    # Harmonic target lambda(x) = x with its own trace as Dirichlet data. At
    # the stated shape 0.5 the inter-node collocation error is a few percent;
    # in the flat regime (0.01) the ansatz reproduces the linear target to 1e-6.
    nodes = grid_centers(CUBE, 5)
    rng = np.random.default_rng(0)
    probes = rng.uniform(-1.5, 1.5, (200, 3))
    for shape, tol in ((0.5, 5e-2), (0.01, 1e-6)):
        values = nodes.points[:, 0]
        system = assemble(nodes, KernelParams(shape), *dirichlet_all(nodes, values), ZERO_F)
        solution = factorize_and_solve(system)
        recovered = solution.value(probes)
        rel = np.linalg.norm(recovered - probes[:, 0]) / np.linalg.norm(probes[:, 0])
        assert rel <= tol


def test_flat_regime_solve_succeeds_with_truncation():
    # kappa here sits at the double-precision noise floor (>= 1e12); the
    # truncated pseudo-inverse keeps the solve finite and minimal-norm. The
    # interior rows are numerically invisible above the truncation threshold,
    # so a small linear-system residual is NOT attainable in this regime; the
    # residual is recorded and reported instead.
    system = ex51_system(3, 0.001)
    solution = factorize_and_solve(system)
    assert solution.rank < len(system.rhs)
    assert np.all(np.isfinite(solution.coeffs))
    assert np.isfinite(solution.residual)
    assert solution.kappa >= 1e12


def test_condition_number():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), *dirichlet_all(nodes), ZERO_F)
    with pytest.raises(ContractError, match="must be 27 x 27"):
        factorize_and_solve(replace(system, matrix=system.matrix[:, :20]))
    matrix = system.matrix.copy()
    kappa = factorize_and_solve(system).kappa
    assert system.matrix is None  # the estimate factors G in place
    with pytest.raises(ContractError, match="consumed"):
        factorize_and_solve(system)

    assert factorize_and_solve(replace(system, matrix=5.0 * matrix)).kappa == pytest.approx(kappa, rel=1e-12)
    assert factorize_and_solve(replace(system, matrix=np.eye(27))).kappa == pytest.approx(1.0, rel=1e-14)

    # Two equal rows of the identity: the QR meets an exact zero pivot. (A
    # singular matrix whose factorization rounds instead reads a large,
    # finite estimate.)
    equal_rows = np.eye(27)
    equal_rows[1] = equal_rows[0]
    assert factorize_and_solve(replace(system, matrix=equal_rows)).kappa == float("inf")


# mpmath svd_r at 60 digits of the ex51_system matrices, kappa = sigma_max / sigma_min
# of the float64 matrix. At N = 64 and c = 0.01 it is 5.6e21, where the estimate
# reads 6.6e21, a float64 SVD 1.1e21 and an LU inverse 3.6e21. That case is left
# out: far past 1/eps the QR's rounding sets the estimate.
@pytest.mark.parametrize("n, c", [(3, 1e-3), (3, 0.01), (3, 0.1), (3, 1.0), (4, 1e-3), (4, 0.1)])
def test_kappa_estimate_within_10x_of_exact(n, c):
    import mpmath

    system = ex51_system(n, c)
    with mpmath.workdps(60):
        sigma = mpmath.svd_r(mpmath.matrix(system.matrix.tolist()), compute_uv=False)
        exact = float(max(sigma) / min(sigma))
    assert exact / 10 <= factorize_and_solve(system).kappa <= 10 * exact


def ex53_system(n, c):
    """The multiplier system of configs/ex53.cfg (sealed bottom, open elsewhere) at n^3 nodes and shape c."""
    cfg = parse_config(str(Path(__file__).resolve().parents[1] / "configs" / "ex53.cfg"))
    case = example_field(cfg.example, eps=cfg.eps)
    problem = Problem.horizontal(
        case.data, cfg.box(), cfg.weight_matrix(), w_b=cfg.base_updraft, policy=_face_policy(cfg), exact=case.exact
    )
    return build_system(problem, KernelParams(c), n)


# The same check on ex53, whose sheared vortex gives a multiplier that is not
# a quadratic. Each N = 64 case is about 1.2 s of mpmath.
@pytest.mark.parametrize("n, c", [(3, 0.01), (3, 0.5), (4, 0.01), (4, 0.1)])
def test_kappa_estimate_within_10x_of_exact_on_ex53(n, c):
    import mpmath

    system = ex53_system(n, c)
    with mpmath.workdps(60):
        sigma = mpmath.svd_r(mpmath.matrix(system.matrix.tolist()), compute_uv=False)
        exact = float(max(sigma) / min(sigma))
    assert exact / 10 <= factorize_and_solve(system).kappa <= 10 * exact


def test_qr_in_place_matches_lapack():
    # LAPACK dgeqrf reads the C-ordered matrix as G^T and leaves R^T of
    # G^T = QR in the lower triangle; 150 rows are two blocks of 64 and a
    # short one of the triangular solves that read it.
    a = np.arange(150.0 * 150).reshape(150, 150) % 17 + np.eye(150)
    g = a.copy()
    collocation._qr_in_place(g)
    r = np.linalg.qr(a.T, mode="r")
    np.testing.assert_allclose(np.tril(g).T, r, rtol=0, atol=1e-12 * np.abs(r).max())


@pytest.mark.parametrize("n", [27, 64, 150])
def test_power_step_solves_match_dense_solves(n):
    # The condition estimate solves with the lower triangle of the in-place QR,
    # whose upper part holds LAPACK's Householder data, so junk sits above the
    # diagonal here. 150 rows are two blocks of 64 and a short one; the
    # transposed solve runs on the reversed transpose, as the estimate does.
    rng = np.random.default_rng(n)
    a = 2.0 * np.eye(n) + np.tril(rng.standard_normal((n, n)), -1) / n + np.triu(1e3 * rng.standard_normal((n, n)), 1)
    x = rng.standard_normal((n, 8))
    for got, lower in (
        (collocation._lower_solve(a, x), np.tril(a)),
        (collocation._lower_solve(a.T[::-1, ::-1], x[::-1])[::-1], np.tril(a).T),
    ):
        want = np.linalg.solve(lower, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_kappa_nondecreasing_in_n_at_flat_shape():
    kappas = []
    for n in (3, 5, 8):
        kappas.append(factorize_and_solve(ex51_system(n, 0.001)).kappa)
    assert kappas[0] >= 1e12
    assert kappas[0] <= kappas[1] <= kappas[2]


@pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
def test_kappa_reads_past_the_probe_norm_overflow(s):
    # R^-T x reaches about 1/s on the small pivot: past 1e154 its 2-norm overflows
    # while its entries are finite. The estimate still reads 1/s (it read 0.0).
    g = np.eye(27)
    g[5, 5] = s
    assert 0.1 / s <= collocation._condition_estimate(g, 1.0) <= 10.0 / s


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), decades=st.integers(0, 300))
def test_kappa_is_at_least_one(n, seed, decades):
    # sigma_max |R^-1 y| >= sigma_max / sigma_max for a unit y, on any G, here
    # with one row scaled down by 10^-decades, past the probes' norm overflow.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    g[rng.integers(n)] *= 10.0**-decades
    assert collocation._condition_estimate(g.copy(), np.linalg.norm(g, 2)) >= 1.0


def test_singular_system_error():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), *dirichlet_all(nodes), ZERO_F)
    system.matrix = np.zeros_like(system.matrix)
    with pytest.raises(SingularSystemError):
        factorize_and_solve(system)


def _synthetic_system(sigma, seed):
    """A system on len(sigma), a cube, nodes whose matrix is U diag(sigma) V^T for random orthogonal U, V.

    At N = 343 the solve sketches with k = 32 and 64 directions; 4 k = 512
    exceeds N, so a third attempt is dgelsd on the whole matrix.
    """
    rng = np.random.default_rng(seed)
    n = len(sigma)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nodes = grid_centers(CUBE, round(n ** (1 / 3)))
    system = assemble(nodes, KernelParams(1.0), *dirichlet_all(nodes), ZERO_F)
    system.matrix = (u * sigma) @ v.T
    system.rhs = rng.standard_normal(n)
    return system, u, v


def _gapped_spectrum(kept, tol, n=343):
    """``kept`` singular values from 1 down to 3 tol, then from tol / 3 halving down to 1e-16."""
    tail = np.maximum(tol / 3 * 0.5 ** np.arange(n - kept), 1e-16)
    return np.concatenate([np.logspace(0, np.log10(3 * tol), kept), tail])


def _solve_recording(system, tol, monkeypatch):
    """Solve a copy of ``system``, which the solve consumes; return the solution,
    the shapes dgelsd was given and the (columns, offset) of each hash block drawn."""
    shapes, lstsq = [], np.linalg.lstsq
    draws, draw = [], collocation._hash_uniform
    copy = replace(system, matrix=system.matrix.copy())
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", lambda a, *args, **kw: shapes.append(a.shape) or lstsq(a, *args, **kw))
        m.setattr(collocation, "_hash_uniform", lambda n, cols, offset=0: draws.append((cols, offset)) or draw(n, cols, offset))
        solution = factorize_and_solve(copy, trunc_tol=tol)
    assert copy.matrix is None
    return solution, shapes, draws


def test_truncated_solve_matches_explicit_svd(monkeypatch):
    # A threshold 10 times higher or lower than tol changes the rank of each
    # spectrum. The kept rank must stay 10 below the sketch's k, so 20 kept
    # directions take one k = 32 sketch and 24 or 40 take a second at k = 64,
    # which multiplies G by the 32 new hash columns only.
    # The coefficients are compared with the explicit pseudo-inverse at
    # tol = 1e-4 only: at the default 1e-12 the kept subspace itself has a
    # condition number of 3e11, so two float64 solves differ far above 1e-10.
    for kept, seed, tol, ks in ((20, 2, 1e-4, [32]), (24, 3, 1e-4, [32, 64]), (24, 5, 1e-12, [32, 64]),
                                (40, 6, 1e-4, [32, 64])):
        sigma = _gapped_spectrum(kept, tol)
        system, u, v = _synthetic_system(sigma, seed)
        solution, shapes, draws = _solve_recording(system, tol, monkeypatch)
        assert shapes == [(k, 343) for k in ks]
        # the sketch's blocks, then the condition estimate's probes
        assert draws == [(42, 0), (32, 42 * 343)][: len(ks)] + [(8, 1 << 48)]
        keep = sigma > tol * sigma[0]
        assert solution.rank == keep.sum() == kept
        assert solution.kappa > 1e12
        if tol == 1e-4:
            explicit = v[:, keep] @ ((u[:, keep].T @ system.rhs) / sigma[keep])
            assert np.linalg.norm(solution.coeffs - explicit) <= 1e-10 * np.linalg.norm(explicit)
        # deterministic: a second solve gives the same bits
        again, _, _ = _solve_recording(system, tol, monkeypatch)
        assert np.array_equal(again.coeffs, solution.coeffs) and again.kappa == solution.kappa

    # Full rank: the k = 32 projection's last singular value, 0.8, is above
    # sqrt(tol), so dgelsd solves the whole matrix without a k = 64 sketch.
    system, _, _ = _synthetic_system(np.logspace(0, -1, 343), seed=8)
    expected = np.linalg.lstsq(system.matrix, system.rhs, rcond=1e-12)[0]
    solution, shapes, _ = _solve_recording(system, 1e-12, monkeypatch)
    assert shapes == [(32, 343), (343, 343)]
    assert solution.rank == 343 and np.array_equal(solution.coeffs, expected)
    assert 5.0 <= solution.kappa <= 10.0 * (1 + 1e-12)  # one power step bounds kappa = 10 from below

    # Rank deficient: the last singular values are exactly zero, so the
    # solution must be the minimum-norm one, orthogonal to the null space.
    sigma = _gapped_spectrum(20, 1e-4)
    sigma[20:] = 0.0
    system, u, v = _synthetic_system(sigma, seed=4)
    solution, shapes, _ = _solve_recording(system, 1e-4, monkeypatch)
    assert shapes == [(32, 343)] and solution.rank == 20
    assert np.linalg.norm(v[:, 20:].T @ solution.coeffs) <= 1e-12 * np.linalg.norm(solution.coeffs)
    assert solution.kappa > 1e12 and not np.isnan(solution.kappa)

    system.matrix = np.zeros_like(system.matrix)
    with pytest.raises(SingularSystemError):
        factorize_and_solve(system)


class _CountingMatrix(np.ndarray):
    """A matrix that counts the vectors it is multiplied with, from either side."""

    columns = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc is np.matmul and method == "__call__"
        left, right = inputs
        other = right if isinstance(left, _CountingMatrix) else left.T
        _CountingMatrix.columns += 1 if other.ndim == 1 else other.shape[1]
        return ufunc(*(np.asarray(x) for x in inputs), **kwargs)


def test_sketch_levels_multiply_each_direction_once(monkeypatch):
    # 55 kept directions at N = 512: the kept rank is not 10 below k = 32 or
    # 64, and each projection's last singular value is below sqrt(tol), so
    # the solve takes three levels and certifies at k = 128. G sees each of
    # the 138 hash columns once, and G^T, G and the projection Q^T G each see
    # each of the 128 directions once: 138 + 3 * 128 = 522 columns. Redoing
    # every level from its first column took 138 + 224 + 448 = 810.
    tol = 1e-4
    sigma = _gapped_spectrum(55, tol, n=512)
    system, u, v = _synthetic_system(sigma, seed=9)
    shapes, lstsq = [], np.linalg.lstsq
    record = lambda a, *args, **kw: shapes.append(a.shape) or lstsq(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "lstsq", record)
    solves = []
    for _ in range(2):
        _CountingMatrix.columns = 0
        solves.append(collocation._truncated_solve(system.matrix.view(_CountingMatrix), system.rhs, tol))
        assert _CountingMatrix.columns == (128 + 10) + 3 * 128
    assert shapes == [(32, 512), (64, 512), (128, 512)] * 2
    (beta, rank, sigma_max), again = solves
    keep = sigma > tol * sigma[0]
    assert rank == keep.sum() == 55 and sigma_max == pytest.approx(1.0, rel=1e-12)
    explicit = v[:, keep] @ ((u[:, keep].T @ system.rhs) / sigma[keep])
    assert np.linalg.norm(beta - explicit) <= 1e-10 * np.linalg.norm(explicit)
    # deterministic: a second solve gives the same bits
    assert np.array_equal(again[0], beta) and again[1:] == (rank, sigma_max)


def test_sketch_holds_a_few_columns_per_direction(monkeypatch):
    # 40 kept directions at N = 1000 take two levels and certify at k = 64.
    # The solve holds Q, the projection Q^T G and dgelsd's copy of it, 3 k
    # columns of N float64, and the 10 probes; the bound is 4 k. Holding
    # every sketch column drawn, with the power step's and the deflation's
    # temporaries, peaked at about 405 columns.
    tol = 1e-4
    n = 1000
    system, _, _ = _synthetic_system(_gapped_spectrum(40, tol, n=n), seed=9)
    shapes, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, *args, **kw: shapes.append(a.shape) or lstsq(a, *args, **kw))
    ranks = []
    peak = traced_peak(lambda: ranks.append(collocation._truncated_solve(system.matrix, system.rhs, tol)[1]))
    assert shapes == [(32, n), (64, n)] and ranks == [40]
    assert peak <= 4 * 64 * n * 8


def test_trunc_tol_must_lie_below_one():
    # LAPACK's dgelsd replaces an rcond >= 1 by machine epsilon, so trunc_tol = 1
    # or 2 kept all 64 directions, where sigma > trunc_tol * sigma_max keeps none.
    system = ex51_system(4, 0.001)
    assert factorize_and_solve(system, trunc_tol=0.999).rank == 1
    for tol in (1.0, 2.0, 0.0, float("nan")):
        with pytest.raises(ContractError, match="trunc_tol must lie in"):
            factorize_and_solve(system, trunc_tol=tol)
    for tol in (1.0, 2.0):
        with pytest.raises(ConfigurationError, match=rf"trunc_tol: must be in \(0.0, 1.0\), got {tol}"):
            ExperimentConfig("ex51", (4,), 0.001, trunc_tol=tol)


def test_eval_jet():
    nodes = grid_centers(SLAB, 3)
    kp = KernelParams(0.8)

    zeroed = MultiplierSolution(
        coeffs=np.zeros(len(nodes)), nodes=nodes, kernel=kp,
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, kappa=float("nan"),
    )
    val, grad, lap = zeroed.jet(np.array([[0.1, 0.2, 0.3]]))
    assert val.tolist() == [0.0] and lap.tolist() == [0.0]
    assert grad.shape == (1, 3) and np.all(grad == 0.0)

    lone_center = NodeSet(
        points=np.array([[0.0, 0.0, 1.0]]),
        labels=np.array([0]),
        normals=np.full((1, 3), np.nan),
    )
    lone = MultiplierSolution(
        coeffs=np.array([1.0]), nodes=lone_center, kernel=kp,
        aniso=None, residual=0.0, residual_norm=0.0, rank=1, kappa=float("nan"),
    )
    val, grad, lap = lone.jet(np.array([[0.0, 0.0, 1.0]]))
    assert val.tolist() == [1.0]
    assert grad.shape == (1, 3) and np.all(grad == 0.0)
    assert lap[0] == pytest.approx(-3.0 * 0.8**2, rel=1e-14)


SPD = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])


SKEW = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.1], [0.2, -0.1, 0.0]])


@contextmanager
def series_orders():
    """The K of each jet called inside the block, 0 where it took the direct sums."""
    orders = []
    choose = collocation._series_order

    def spy(*args):
        orders.append(choose(*args))
        return orders[-1]

    with mock.patch.object(collocation, "_series_order", spy):
        yield orders


def jet_references(solution, pts):
    """(value, grad, operator, hessian) summed pair by pair from the kernel's closed forms."""
    x, c = pts[:, None, :], solution.nodes.points[None, :, :]
    kp, beta = solution.kernel, solution.coeffs
    hess = np.einsum("mnkl,n->mkl", hess_phi(x, c, kp), beta)
    # A : hess sums all nine entries; inv(SPD) is not bitwise symmetric, and A : hess ignores a skew part
    op = lap_phi(x, c, kp) @ beta if solution.aniso is None else np.einsum("kl,mkl->m", solution.aniso, hess)
    return phi_sq(np.sum((x - c) ** 2, axis=-1), kp) @ beta, np.einsum("mnk,n->mk", grad_phi(x, c, kp), beta), op, hess


def assert_jet_matches(solution, value, grad, op, refs):
    """Roundoff of sum_j |beta_j| times each quantity's kernel scale: |phi| <= 1,
    |grad phi| <= c, |lap phi| <= 3 c^2 and |hess phi|_kl <= 4 c^2. 1e-12 of that
    leaves room for the cancellation of float64 sums with signed coefficients."""
    shape, aniso = solution.kernel.shape, solution.aniso
    op_scale = 3.0 * shape**2 if aniso is None else 4.0 * shape**2 * np.abs(aniso).sum()
    tol = 1e-12 * np.abs(solution.coeffs).sum()
    np.testing.assert_allclose(value, refs[0], rtol=0, atol=tol)
    np.testing.assert_allclose(grad, refs[1], rtol=0, atol=tol * shape)
    np.testing.assert_allclose(op, refs[2], rtol=0, atol=tol * op_scale)


@pytest.mark.parametrize("order", range(2, 9))
def test_series_order_bounds_the_remainder(order):
    # At the largest u the rule still answers K = order for (found by
    # bisection; the rule is monotone in u), the K-term series of (1 + u)^(-q/2)
    # with the package's coefficients is within 2^-53 of the function for
    # every q the jet sums, in 50-digit arithmetic.
    import mpmath

    big = 10**9  # so many points and centers that the monomial count never decides
    lo, hi = 0.0, 0.4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _series_order(mid, big, big) <= order else (lo, mid)
    assert _series_order(lo, big, big) == order
    assert abs(_binomial(5, order)) * lo**order <= _SERIES_TOL
    with mpmath.workdps(50):
        u = mpmath.mpf(lo)
        for q in (1, 3, 5):
            series = mpmath.fsum(mpmath.mpf(_binomial(q, k)) * u**k for k in range(order))
            assert abs(series - (1 + u) ** (-mpmath.mpf(q) / 2)) <= mpmath.mpf(2) ** -53


@pytest.mark.parametrize(
    "aniso", [None, SPD, np.linalg.inv(SPD), SPD + SKEW], ids=["isotropic", "spd", "inv-spd", "spd-skew"]
)
@pytest.mark.parametrize("shape", [5e-4, 1e-3, 0.05, 0.7])
def test_jet_matches_direct_kernel_sums(shape, aniso):
    # Reference: the kernel's closed-form derivatives contracted with beta
    # pair by pair. The jet reorders the sums (GEMM-expanded radii, mat-vecs
    # per block, or at c = 5e-4 the flat-regime series), so the two agree to
    # roundoff (assert_jet_matches).
    nodes = grid_centers(CUBE, 4)
    centers = nodes.points
    rng = np.random.default_rng(11)
    beta = rng.normal(size=len(nodes)) * 1e6
    kp = KernelParams(shape)
    solution = MultiplierSolution(
        coeffs=beta, nodes=nodes, kernel=kp, aniso=aniso,
        residual=0.0, residual_norm=0.0, rank=len(nodes), kappa=float("nan"),
    )
    rows = _BLOCK_ELEMENTS // len(nodes)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (rows + 37, 3)), centers[:5]])
    assert len(pts) % rows != 0
    refs = jet_references(solution, pts)
    hess_ref = refs[3]
    lap_ref = lap_phi(pts[:, None, :], centers[None, :, :], kp) @ beta
    tol = 1e-12 * np.abs(beta).sum()
    lap_scale = 3.0 * shape**2

    with series_orders() as orders:
        value, grad, op = solution.jet(pts)
    # The points reach |x - c_j| = sqrt(75): u_max = 1.9e-5 at c = 5e-4 needs
    # K = 4, 56 monomials, and (m + 64) 56 < 64 m; at c = 1e-3, u_max = 7.5e-5
    # needs K = 5, 126 monomials, more than the 64 kernel entries per point.
    assert orders == [4 if shape == 5e-4 else 0]
    assert value.shape == (len(pts),) and grad.shape == (len(pts), 3) and op.shape == (len(pts),)
    assert_jet_matches(solution, value, grad, op, refs)

    # hessian sums hess_phi over row blocks; its trace is the Laplacian and
    # its contraction with A the jet's operator
    hess = solution.hessian(pts)
    assert hess.shape == (len(pts), 3, 3)
    np.testing.assert_allclose(hess, hess_ref, rtol=0, atol=tol * 4.0 * shape**2)
    lap = solution.laplacian(pts)
    np.testing.assert_allclose(np.trace(hess, axis1=1, axis2=2), lap, rtol=0, atol=tol * lap_scale)
    np.testing.assert_allclose(lap, lap_ref, rtol=0, atol=tol * lap_scale)
    if aniso is not None:
        op_scale = 4.0 * shape**2 * np.abs(aniso).sum()
        np.testing.assert_allclose(np.einsum("kl,mkl->m", aniso, hess), op, rtol=0, atol=tol * op_scale)

    # one-point batches, at the first and the last point
    for i in (0, len(pts) - 1):
        one = slice(i, i + 1)
        v1, g1, op1 = solution.jet(pts[one])
        assert v1.shape == (1,) and g1.shape == (1, 3) and op1.shape == (1,)
        assert_jet_matches(solution, v1, g1, op1, [r[one] for r in refs[:3]])
        np.testing.assert_allclose(solution.hessian(pts[one]), hess_ref[one], rtol=0, atol=tol * 4.0 * shape**2)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    shape=st.floats(1e-5, 1e-3),
    per_axis=st.integers(4, 6),
    half=st.floats(0.5, 2.0),
    offset=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
    anisotropic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_series_jet_matches_direct_kernel_sums(shape, per_axis, half, offset, anisotropic, seed):
    # Flat shapes on centre grids of any size and place: where the series
    # runs, it meets the pairwise sums to the same roundoff bound as the
    # direct blocks, for beta of order 1e6 with either interior operator.
    lo = np.asarray(offset) - half
    box = BoxDomain(lo[0], lo[0] + 2 * half, lo[1], lo[1] + 2 * half, lo[2], lo[2] + half)
    nodes = grid_centers(box, per_axis)
    rng = np.random.default_rng(seed)
    solution = MultiplierSolution(
        coeffs=rng.normal(size=len(nodes)) * 1e6, nodes=nodes, kernel=KernelParams(shape),
        aniso=SPD if anisotropic else None, residual=0.0, residual_norm=0.0, rank=len(nodes), kappa=float("nan"),
    )
    pts = rng.uniform(box.lo - 0.25 * half, box.hi + 0.25 * half, (700, 3))
    with series_orders() as orders:
        value, grad, op = solution.jet(pts)
    assume(orders[0] > 0)
    assert_jet_matches(solution, value, grad, op, jet_references(solution, pts))


@pytest.mark.parametrize("aniso", [None, SPD], ids=["isotropic", "spd"])
def test_flat_series_on_a_far_out_box_at_tiny_shape(aniso):
    # A box 1e60 across at c = 1e-63 keeps u_max near 1e-5, so the series
    # runs. Its features share the scale c, so no monomial overflows to inf or
    # underflows to 0 (|x|^6 = 1e360 and c^6 = 1e-378 alone would): the sums
    # stay finite and meet the pairwise ones to roundoff.
    box = BoxDomain(-1e60, 1e60, -1e60, 1e60, -1e60, 1e60)
    nodes = grid_centers(box, 4)
    solution = MultiplierSolution(
        coeffs=np.random.default_rng(3).normal(size=len(nodes)), nodes=nodes, kernel=KernelParams(1e-63),
        aniso=aniso, residual=0.0, residual_norm=0.0, rank=len(nodes), kappa=float("nan"),
    )
    pts = midpoint_rule(box, 8).nodes
    with series_orders() as orders:
        value, grad, op = solution.jet(pts)
    assert orders == [4]
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad)) and np.all(np.isfinite(op))
    assert_jet_matches(solution, value, grad, op, jet_references(solution, pts))


def test_flat_series_at_its_lowest_order():
    # At c = 1e-12, u_max = 7.5e-23: one omitted q = 5 term already meets the
    # tolerance, but the series keeps K = 2, the constant and linear terms.
    nodes = grid_centers(CUBE, 4)
    solution = MultiplierSolution(
        coeffs=np.random.default_rng(4).normal(size=len(nodes)), nodes=nodes, kernel=KernelParams(1e-12),
        aniso=SPD, residual=0.0, residual_norm=0.0, rank=len(nodes), kappa=float("nan"),
    )
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, (200, 3))
    with series_orders() as orders:
        value, grad, op = solution.jet(pts)
    assert orders == [2]
    assert_jet_matches(solution, value, grad, op, jet_references(solution, pts))


def test_jet_with_no_fewer_monomials_than_pairs_is_the_direct_sums():
    # 27 centers at c = 1e-3 need K = 4, P = 56 monomials, more than the 27
    # kernel entries per point: the jet keeps the (rows, N) kernel blocks and
    # their bits, s formed by GEMM expansion about the centroid.
    nodes = grid_centers(SLAB, 3)
    beta = np.random.default_rng(5).normal(size=len(nodes)) * 1e6
    kp = KernelParams(1e-3)
    solution = MultiplierSolution(
        coeffs=beta, nodes=nodes, kernel=kp, aniso=None,
        residual=0.0, residual_norm=0.0, rank=len(nodes), kappa=float("nan"),
    )
    pts = midpoint_rule(SLAB, 8).nodes
    with series_orders() as orders:
        value, grad, lap = solution.jet(pts)
    assert orders == [0]
    origin = nodes.points.mean(axis=0)
    x, c = pts - origin, nodes.points - origin
    c2 = kp.shape**2
    s = x @ c.T
    s *= -2.0
    s += np.einsum("ij,ij->i", x, x)[:, None]
    s += np.einsum("ij,ij->i", c, c)
    s *= c2
    s += 1.0
    root = np.sqrt(s)
    sum3 = (1.0 / (s * root)) @ np.column_stack([beta, beta[:, None] * c])
    w5 = s * s
    w5 *= root
    assert np.array_equal(value, (1.0 / root) @ beta)
    assert np.array_equal(grad, -c2 * (x * sum3[:, :1] - sum3[:, 1:]))
    assert np.array_equal(lap, ((1.0 / w5) * (-3.0 * c2)) @ beta)


def test_eval_jet_gradient_matches_fd():
    nodes = grid_centers(CUBE, 4)
    values = nodes.points[:, 0] ** 2 - nodes.points[:, 1]
    system = assemble(nodes, KernelParams(0.6), *dirichlet_all(nodes, values), ZERO_F)
    solution = factorize_and_solve(system)
    rng = np.random.default_rng(1)
    probes = rng.uniform(-1.5, 1.5, (50, 3))
    grad = solution.gradient(probes)
    h = 1e-5
    fd = np.empty_like(grad)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        fd[:, k] = (solution.value(probes + step) - solution.value(probes - step)) / (2 * h)
    rel = np.linalg.norm(grad - fd, axis=1) / np.linalg.norm(grad, axis=1)
    assert rel.max() <= 1e-6


def test_interior_residual_consistency():
    # |lap lambda(x_i) - f(x_i)| at collocation nodes equals the corresponding
    # linear-solve residual component row by row, and is bounded by its 2-norm.
    nodes = grid_centers(SLAB, 5)
    f = lambda pts: np.full(len(pts), -2.0)
    system = assemble(nodes, KernelParams(0.05), *dirichlet_all(nodes), f)
    matrix = system.matrix.copy()  # the solve consumes the system's
    solution = factorize_and_solve(system)
    interior = nodes.interior
    pde_residual = solution.laplacian(nodes.points[interior]) - f(nodes.points[interior])
    row_residual = matrix[interior] @ solution.coeffs - system.rhs[interior]
    np.testing.assert_allclose(pde_residual, row_residual, rtol=0, atol=1e-10)
    assert np.abs(pde_residual).max() <= solution.residual_norm + 1e-10


def test_pure_neumann_gradient_stable_across_truncation():
    # All-Neumann data for the linear target lambda = x. At this shape the
    # spectrum has no singular values between the two thresholds, so both
    # solves keep the same modes and the gradients agree exactly.
    nodes = grid_centers(CUBE, 5)
    kp = KernelParams(0.5)
    normals = nodes.normals[nodes.boundary]
    system = assemble(nodes, kp, np.ones(len(normals), dtype=bool), normals[:, 0], normals, ZERO_F)
    tight = factorize_and_solve(replace(system, matrix=system.matrix.copy()), trunc_tol=1e-12)
    loose = factorize_and_solve(system, trunc_tol=1e-10)
    rng = np.random.default_rng(2)
    probes = rng.uniform(-1.5, 1.5, (100, 3))
    assert np.abs(tight.gradient(probes) - loose.gradient(probes)).max() <= 1e-8


def star_gradient(p):
    """grad of lambda* = exp(-(x^2 + y^2) / 16) cos(z / 2)."""
    x, y, z = p.T
    e = np.exp(-(x * x + y * y) / 16)
    return np.column_stack([-x / 8 * e * np.cos(z / 2), -y / 8 * e * np.cos(z / 2), -e / 2 * np.sin(z / 2)])


def star_laplacian(p):
    x, y, z = p.T
    return np.exp(-(x * x + y * y) / 16) * np.cos(z / 2) * ((x * x + y * y) / 64 - 0.5)


# Bounds about 1.3 times the relative grad lambda error the solve gives, at
# ranks 125 / 125 / 96 / 65 (N = 125) and 508 / 329 / 123 / 69 (N = 512):
# 0.202 / 0.392 / 0.960 / 0.551 and 6.60e-3 / 6.27e-2 / 0.507 / 0.742.
@pytest.mark.parametrize(
    "n, c, bound",
    [(5, 0.1, 0.27), (5, 0.05, 0.52), (5, 0.02, 1.25), (5, 0.01, 0.72),
     (8, 0.1, 8.6e-3), (8, 0.05, 8.2e-2), (8, 0.02, 0.66), (8, 0.01, 0.97)],
)
def test_solve_recovers_a_multiplier_that_is_not_a_polynomial(n, c, bound):
    # Manufactured lambda* on the ex53 box, every face Neumann, square Kansa.
    # No polynomial reproduces it, so the error measures the solve. Below 4 x 32
    # nodes dgelsd solves G itself; at N = 512 rank 508 and 329 fall back to
    # it after one level, 123 after the third, and 69 certifies at k = 128.
    box = BoxDomain(-7, 7, -7, 7, 0, 7)
    nodes = grid_centers(box, n)
    normals = nodes.normals[nodes.boundary]
    flux = np.sum(star_gradient(nodes.points[nodes.boundary]) * normals, axis=1)
    neumann = np.ones(len(normals), dtype=bool)
    system = assemble(nodes, KernelParams(c), neumann, flux, normals, star_laplacian)
    solution = factorize_and_solve(system, trunc_tol=1e-12)
    probes = midpoint_rule(box, 8).nodes
    exact = star_gradient(probes)
    assert np.linalg.norm(solution.gradient(probes) - exact) <= bound * np.linalg.norm(exact)


def test_dump_gram(tmp_path):
    # dump_gram writes the matrix and its own spectrum
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), *dirichlet_all(nodes), ZERO_F)
    path = tmp_path / "gram.txt"
    dump_gram(system, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gram matrix 27x27")
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:28]])
    np.testing.assert_array_equal(parsed, system.matrix)
    assert lines[30] == "# singular values"
    sigma = np.array([float(v) for v in lines[31].split(",")])
    np.testing.assert_array_equal(sigma, np.linalg.svd(system.matrix, compute_uv=False))
    factorize_and_solve(system)
    with pytest.raises(ContractError, match="factorize_and_solve consumes"):
        dump_gram(system, path)
