import tracemalloc

import numpy as np
import pytest

from conftest import traced_peak
from masscons.collocation import (
    _BLOCK_ELEMENTS,
    DirichletLambda,
    MultiplierSolution,
    NeumannLambda,
    assemble,
    condition_number,
    dump_gram,
    factorize_and_solve,
)
from masscons.errors import ContractError, SingularSystemError
from masscons.fields import example_field
from masscons.geometry import BoxDomain, FaceLabel, NodeSet, grid_centers
from masscons.kernel import KernelParams, grad_phi, hess_phi, lap_phi, phi, phi_sq

CUBE = BoxDomain(-2, 2, -2, 2, -2, 2)
SLAB = BoxDomain(-2, 2, -2, 2, 0, 2)

ZERO_F = lambda pts: np.zeros(len(pts))


def dirichlet_all(nodes, values=None):
    if values is None:
        return {int(i): DirichletLambda(0.0) for i in nodes.boundary}
    return {int(i): DirichletLambda(float(values[i])) for i in nodes.boundary}


def ex51_system(n, c):
    """Sealed-bottom system of the flat-shape study: Neumann on the ground, zero
    Dirichlet elsewhere, constant source -2."""
    nodes = grid_centers(SLAB, n)
    bcs = {}
    for i in nodes.boundary:
        if nodes.labels[i] == FaceLabel.BOTTOM:
            x, y, _ = nodes.points[i]
            misfit = np.array([-x, -y, 0.0])
            bcs[int(i)] = NeumannLambda(float(misfit @ nodes.normals[i]), nodes.normals[i])
        else:
            bcs[int(i)] = DirichletLambda(0.0)
    return assemble(nodes, KernelParams(c), bcs, lambda pts: np.full(len(pts), -2.0))


def test_dirichlet_rows_have_unit_diagonal():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(0.001), dirichlet_all(nodes), ZERO_F)
    for i in nodes.boundary:
        assert system.matrix[i, i] == 1.0
        assert system.row_kinds[i] == "dirichlet"


def test_interior_diagonal_is_lap_at_zero():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    (i,) = nodes.interior
    assert system.matrix[i, i] == -3.0
    assert system.row_kinds[i] == "interior-laplacian"


def test_identity_anisotropy_reproduces_isotropic_rows():
    nodes = grid_centers(CUBE, 4)
    iso = assemble(nodes, KernelParams(0.7), dirichlet_all(nodes), ZERO_F)
    aniso = assemble(nodes, KernelParams(0.7), dirichlet_all(nodes), ZERO_F, aniso=np.eye(3))
    assert np.array_equal(iso.matrix, aniso.matrix)
    assert iso.row_kinds == aniso.row_kinds


SPD = np.array([[1.0, 0.2, 0.1], [0.2, 0.5, -0.1], [0.1, -0.1, 0.25]])


def mixed_bcs(nodes, a):
    """Neumann rows along the conormal A nu on bottom, top and xmin; Dirichlet elsewhere."""
    neumann_faces = (FaceLabel.BOTTOM, FaceLabel.TOP, FaceLabel.XMIN)
    return {
        int(i): NeumannLambda(0.5, a @ nodes.normals[i])
        if nodes.labels[i] in neumann_faces
        else DirichletLambda(0.25)
        for i in nodes.boundary
    }


def test_anisotropic_rows_contract_hessian():
    # 1000 centers: the 512 interior rows span several row blocks
    nodes = grid_centers(CUBE, 10)
    kernel = KernelParams(0.7)
    interior = nodes.interior
    assert len(interior) > _BLOCK_ELEMENTS // len(nodes.points)
    x = nodes.points[interior][:, None, :]
    centers = nodes.points[None, :, :]
    # Diagonal, SPD, the inverse of an SPD matrix (not bitwise symmetric, as
    # Problem.aniso is) and SPD plus a skew part, which A : hess phi ignores.
    inverse = np.linalg.inv(SPD)
    assert not np.array_equal(inverse, inverse.T)
    skew = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.1], [0.2, -0.1, 0.0]])
    for a in (np.diag([1.0, 0.5, 0.25]), SPD, inverse, SPD + skew):
        system = assemble(nodes, kernel, dirichlet_all(nodes), ZERO_F, aniso=a)
        rows = system.matrix[interior]
        assert {system.row_kinds[i] for i in interior} == {"anisotropic-laplacian"}
        # the block split does not change a bit of the closed-form operator
        np.testing.assert_allclose(rows, lap_phi(x, centers, kernel, a), rtol=0, atol=0)
        # and the closed form is A : hess phi up to roundoff
        contracted = np.einsum("kl,mnkl->mn", a, hess_phi(x, centers, kernel))
        scale = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - contracted) <= 1e-13 * scale)


def test_boundary_rows_match_unblocked_kernels():
    nodes = grid_centers(CUBE, 10)
    kernel = KernelParams(0.7)
    bcs = mixed_bcs(nodes, SPD)
    system = assemble(nodes, kernel, bcs, ZERO_F, aniso=SPD)
    pts = nodes.points
    dirichlet = [i for i in sorted(bcs) if isinstance(bcs[i], DirichletLambda)]
    neumann = [i for i in sorted(bcs) if isinstance(bcs[i], NeumannLambda)]
    rows = _BLOCK_ELEMENTS // len(pts)
    assert len(dirichlet) > rows and len(neumann) > rows

    d = pts[dirichlet][:, None, :] - pts[None, :, :]
    expected = phi_sq(np.sum(d * d, axis=-1), kernel)
    np.testing.assert_allclose(system.matrix[dirichlet], expected, rtol=0, atol=0)
    assert np.all(system.rhs[dirichlet] == 0.25)
    assert {system.row_kinds[i] for i in dirichlet} == {"dirichlet"}

    grads = grad_phi(pts[neumann][:, None, :], pts[None, :, :], kernel)
    dirs = np.array([bcs[i].direction for i in neumann])
    expected = np.einsum("mnk,mk->mn", grads, dirs)
    np.testing.assert_allclose(system.matrix[neumann], expected, rtol=0, atol=0)
    assert np.all(system.rhs[neumann] == 0.5)
    assert {system.row_kinds[i] for i in neumann} == {"neumann"}


def test_assembly_memory_is_bounded_by_bytes():
    # Blocked, this assembly peaks under 6 MiB above the matrix; unblocked,
    # its gradient and difference arrays over all 1000 centers take 27 MiB.
    nodes = grid_centers(CUBE, 10)
    bcs = mixed_bcs(nodes, SPD)
    tracemalloc.start()
    try:
        system = assemble(nodes, KernelParams(0.7), bcs, ZERO_F, aniso=SPD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - system.matrix.nbytes <= 12 * 2**20


def test_anisotropic_assembly_holds_no_hessian_block():
    # N = 729: a (89, 729, 3, 3) Hessian block and its products held 16.8 MB
    # above the matrix; the closed-form operator holds a few (rows, N) arrays.
    nodes = grid_centers(CUBE, 9)
    peak = traced_peak(lambda: assemble(nodes, KernelParams(0.7), dirichlet_all(nodes), ZERO_F, aniso=SPD))
    assert peak < len(nodes.points) ** 2 * 8 + 6 * 2**20


def test_bc_coverage_errors():
    nodes = grid_centers(SLAB, 3)
    bcs = dirichlet_all(nodes)
    missing = dict(bcs)
    missing.pop(int(nodes.boundary[0]))
    with pytest.raises(ContractError):
        assemble(nodes, KernelParams(1.0), missing, ZERO_F)
    extra = dict(bcs)
    extra[int(nodes.interior[0])] = DirichletLambda(0.0)
    with pytest.raises(ContractError):
        assemble(nodes, KernelParams(1.0), extra, ZERO_F)


def test_zero_data_gives_zero_coefficients():
    nodes = grid_centers(SLAB, 4)
    system = assemble(nodes, KernelParams(0.3), dirichlet_all(nodes), ZERO_F)
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
        system = assemble(nodes, KernelParams(shape), dirichlet_all(nodes, values), ZERO_F)
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
    assert condition_number(system) >= 1e12


def test_condition_number():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    with pytest.raises(ContractError):
        condition_number(system)  # not factorized yet
    factorize_and_solve(system)
    kappa = condition_number(system)

    system.matrix = 5.0 * system.matrix
    factorize_and_solve(system)
    assert condition_number(system) == pytest.approx(kappa, rel=1e-12)

    identity = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    identity.matrix = np.eye(27)
    factorize_and_solve(identity)
    assert condition_number(identity) == pytest.approx(1.0, rel=1e-14)


def test_kappa_nondecreasing_in_n_at_flat_shape():
    kappas = []
    for n in (3, 5, 8):
        system = ex51_system(n, 0.001)
        factorize_and_solve(system)
        kappas.append(condition_number(system))
    assert kappas[0] >= 1e12
    assert kappas[0] <= kappas[1] <= kappas[2]


def test_singular_system_error():
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    system.matrix = np.zeros_like(system.matrix)
    with pytest.raises(SingularSystemError):
        factorize_and_solve(system)


def _synthetic_system(sigma, seed):
    """A 64-node system whose matrix is U diag(sigma) V^T for random orthogonal U, V."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nodes = grid_centers(CUBE, 4)
    system = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    system.matrix = (u * sigma) @ v.T
    system.rhs = rng.standard_normal(n)
    return system, u, v


def _gapped_spectrum(tol):
    """24 singular values from 1 down to 3 tol, then 40 from tol / 3 down to 1e-16."""
    return np.concatenate([np.logspace(0, np.log10(3 * tol), 24), np.logspace(np.log10(tol / 3), -16, 40)])


def test_truncated_solve_matches_explicit_svd():
    # A threshold 10 times higher or lower than tol changes the rank of either
    # spectrum. The coefficients are compared with the explicit pseudo-inverse
    # at tol = 1e-4 only: at the default 1e-12 the kept subspace itself has a
    # condition number of 3e11, so two float64 solves differ far above 1e-10.
    for seed, tol in ((3, 1e-4), (5, 1e-12)):
        sigma = _gapped_spectrum(tol)
        system, u, v = _synthetic_system(sigma, seed)
        solution = factorize_and_solve(system, trunc_tol=tol)
        keep = sigma > tol * sigma[0]
        assert solution.rank == keep.sum() == 24
        sv = system.singular_values
        assert sv.shape == (64,)
        assert np.all(np.diff(sv) <= 0)
        direct = np.linalg.svd(system.matrix, compute_uv=False)
        top = direct >= 1e-8 * direct[0]
        np.testing.assert_allclose(sv[top], direct[top], rtol=1e-12, atol=0)
        if tol == 1e-4:
            explicit = v[:, keep] @ ((u[:, keep].T @ system.rhs) / sigma[keep])
            assert np.linalg.norm(solution.coeffs - explicit) <= 1e-10 * np.linalg.norm(explicit)

    # Rank deficient: the last 40 singular values are exactly zero, so the
    # solution must be the minimum-norm one, orthogonal to the null space.
    sigma = _gapped_spectrum(1e-4)
    sigma[24:] = 0.0
    system, u, v = _synthetic_system(sigma, seed=4)
    solution = factorize_and_solve(system, trunc_tol=1e-4)
    assert solution.rank == 24
    assert np.linalg.norm(v[:, 24:].T @ solution.coeffs) <= 1e-12 * np.linalg.norm(solution.coeffs)

    system.matrix = np.zeros_like(system.matrix)
    with pytest.raises(SingularSystemError):
        factorize_and_solve(system)


def test_eval_jet():
    nodes = grid_centers(SLAB, 3)
    kp = KernelParams(0.8)

    zeroed = MultiplierSolution(
        coeffs=np.zeros(len(nodes)), nodes=nodes, kernel=kp,
        aniso=None, residual=0.0, residual_norm=0.0, rank=0, trunc_tol=1e-12,
    )
    val, grad, lap = zeroed.jet(np.array([0.1, 0.2, 0.3]))
    assert val == 0.0 and lap == 0.0
    assert np.all(grad == 0.0)

    lone_center = NodeSet(
        points=np.array([[0.0, 0.0, 1.0]]),
        labels=np.array([0]),
        normals=np.full((1, 3), np.nan),
    )
    single = MultiplierSolution(
        coeffs=np.array([1.0]), nodes=lone_center, kernel=kp,
        aniso=None, residual=0.0, residual_norm=0.0, rank=1, trunc_tol=1e-12,
    )
    val, grad, lap = single.jet(np.array([0.0, 0.0, 1.0]))
    assert val == 1.0
    assert np.all(grad == 0.0)
    assert lap == pytest.approx(-3.0 * 0.8**2, rel=1e-14)


SPD = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])


@pytest.mark.parametrize("aniso", [None, SPD], ids=["isotropic", "spd"])
@pytest.mark.parametrize("shape", [1e-3, 0.05, 0.7])
def test_jet_matches_direct_kernel_sums(shape, aniso):
    # Reference: the kernel's closed-form derivatives contracted with beta
    # pair by pair. The jet reorders the sums (GEMM-expanded radii, mat-vecs
    # per block), so the two agree to roundoff on sum_j |beta_j| times each
    # quantity's kernel scale: |phi| <= 1, |grad phi| <= c, |lap phi| <= 3 c^2
    # and |hess phi|_kl <= 4 c^2. 1e-12 of that leaves room for the
    # cancellation of float64 sums with signed coefficients.
    nodes = grid_centers(CUBE, 4)
    centers = nodes.points
    rng = np.random.default_rng(11)
    beta = rng.normal(size=len(nodes)) * 1e6
    kp = KernelParams(shape)
    solution = MultiplierSolution(
        coeffs=beta, nodes=nodes, kernel=kp, aniso=aniso,
        residual=0.0, residual_norm=0.0, rank=len(nodes), trunc_tol=1e-12,
    )
    rows = _BLOCK_ELEMENTS // len(nodes)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (rows + 37, 3)), centers[:5]])
    assert len(pts) % rows != 0

    x, c = pts[:, None, :], centers[None, :, :]
    value_ref = phi(np.linalg.norm(x - c, axis=-1), kp) @ beta
    grad_ref = np.einsum("mnk,n->mk", grad_phi(x, c, kp), beta)
    if aniso is None:
        op_ref = lap_phi(x, c, kp) @ beta
        op_scale = 3.0 * shape**2
    else:
        op_ref = np.einsum("kl,mnkl,n->m", aniso, hess_phi(x, c, kp), beta)
        op_scale = 4.0 * shape**2 * np.abs(aniso).sum()
    tol = 1e-12 * np.abs(beta).sum()

    value, grad, op = solution.jet(pts)
    assert value.shape == (len(pts),) and grad.shape == (len(pts), 3) and op.shape == (len(pts),)
    np.testing.assert_allclose(value, value_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=tol * shape)
    np.testing.assert_allclose(op, op_ref, rtol=0, atol=tol * op_scale)

    for i in (0, len(pts) - 1):
        v1, g1, op1 = solution.jet(pts[i])
        assert isinstance(v1, float) and isinstance(op1, float) and g1.shape == (3,)
        assert abs(v1 - value_ref[i]) <= tol
        np.testing.assert_allclose(g1, grad_ref[i], rtol=0, atol=tol * shape)
        assert abs(op1 - op_ref[i]) <= tol * op_scale


def test_eval_jet_gradient_matches_fd():
    nodes = grid_centers(CUBE, 4)
    values = nodes.points[:, 0] ** 2 - nodes.points[:, 1]
    system = assemble(nodes, KernelParams(0.6), dirichlet_all(nodes, values), ZERO_F)
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
    system = assemble(nodes, KernelParams(0.05), dirichlet_all(nodes), f)
    solution = factorize_and_solve(system)
    interior = nodes.interior
    pde_residual = solution.laplacian(nodes.points[interior]) - f(nodes.points[interior])
    row_residual = system.matrix[interior] @ solution.coeffs - system.rhs[interior]
    np.testing.assert_allclose(pde_residual, row_residual, rtol=0, atol=1e-10)
    assert np.abs(pde_residual).max() <= solution.residual_norm + 1e-10


def test_pure_neumann_gradient_stable_across_truncation():
    # All-Neumann data for the linear target lambda = x. At this shape the
    # spectrum has no singular values between the two thresholds, so both
    # solves keep the same modes and the gradients agree exactly.
    nodes = grid_centers(CUBE, 5)
    kp = KernelParams(0.5)
    bcs = {
        int(i): NeumannLambda(float(nodes.normals[i][0]), nodes.normals[i])
        for i in nodes.boundary
    }
    system = assemble(nodes, kp, bcs, ZERO_F)
    tight = factorize_and_solve(system, trunc_tol=1e-12)
    loose = factorize_and_solve(system, trunc_tol=1e-10)
    rng = np.random.default_rng(2)
    probes = rng.uniform(-1.5, 1.5, (100, 3))
    assert np.abs(tight.gradient(probes) - loose.gradient(probes)).max() <= 1e-8


def test_dump_gram(tmp_path):
    nodes = grid_centers(SLAB, 3)
    system = assemble(nodes, KernelParams(1.0), dirichlet_all(nodes), ZERO_F)
    factorize_and_solve(system)
    path = tmp_path / "gram.txt"
    dump_gram(system, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# gram matrix 27x27")
    matrix_lines = lines[1:28]
    parsed = np.array([[float(v) for v in line.split(",")] for line in matrix_lines])
    np.testing.assert_array_equal(parsed, system.matrix)
    assert "# singular values" in text
