import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fd_grad_phi, fd_hess_phi, fd_lap_phi, fd_step_grad, fd_step_lap
from masscons.errors import DomainError
from masscons.kernel import KernelParams, grad_phi, hess_phi, lap_phi, phi


def random_triples(rng, count):
    """(x, center, c) samples with radii in [0.2, 2.5] and c log-uniform in [1e-3, 10]."""
    cs = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), count))
    centers = rng.uniform(-2.0, 2.0, (count, 3))
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.2, 2.5, count)
    xs = centers + radii[:, None] * dirs
    return xs, centers, cs


def test_phi_values():
    for c in (0.001, 0.5, 1.0, 7.0):
        assert phi(0.0, KernelParams(c)) == 1.0
    assert phi(1.0, KernelParams(1.0)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    # closed-form evaluation at a flat-regime shape value
    assert phi(2.0, KernelParams(0.001)) == pytest.approx(0.999998000006, abs=1e-12)


def test_phi_rejects_negative_radius():
    with pytest.raises(DomainError):
        phi(-0.5, KernelParams(1.0))
    with pytest.raises(DomainError):
        phi(np.array([0.1, -0.1]), KernelParams(1.0))


def test_shape_must_be_positive():
    with pytest.raises(DomainError):
        KernelParams(0.0)
    with pytest.raises(DomainError):
        KernelParams(-1.0)


@pytest.mark.parametrize("shape", [float("inf"), float("-inf"), float("nan")])
def test_shape_must_be_finite(shape):
    with pytest.raises(DomainError, match="finite"):
        KernelParams(shape)


def test_phi_strictly_decreasing():
    rng = np.random.default_rng(0)
    for c in (0.001, 0.1, 1.0, 10.0):
        radii = np.sort(rng.uniform(0.0, 50.0, 200))
        vals = phi(radii, KernelParams(c))
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1))


def test_grad_at_center_is_zero():
    center = np.array([0.3, -1.0, 2.0])
    g = grad_phi(center, center, KernelParams(3.0))
    assert np.all(g == 0.0)


def test_grad_unit_offset():
    g = grad_phi(np.array([1.0, 0.0, 0.0]), np.zeros(3), KernelParams(1.0))
    assert g == pytest.approx([-(2.0 ** -1.5), 0.0, 0.0], abs=1e-15)


def test_grad_antisymmetry():
    rng = np.random.default_rng(1)
    kp = KernelParams(0.7)
    for _ in range(50):
        center = rng.uniform(-1, 1, 3)
        x = rng.uniform(-2, 2, 3)
        mirrored = 2 * center - x
        np.testing.assert_allclose(
            grad_phi(x, center, kp), -grad_phi(mirrored, center, kp), rtol=0, atol=1e-15
        )


def test_hess_at_center():
    for c in (0.01, 1.0, 5.0):
        h = hess_phi(np.ones(3), np.ones(3), KernelParams(c))
        np.testing.assert_allclose(h, -c * c * np.eye(3), rtol=1e-14)


def test_hess_symmetric_and_trace_equals_lap():
    rng = np.random.default_rng(2)
    xs, centers, cs = random_triples(rng, 100)
    for x, ctr, c in zip(xs, centers, cs):
        kp = KernelParams(c)
        h = hess_phi(x, ctr, kp)
        np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-18)
        lap = lap_phi(x, ctr, kp)
        assert np.trace(h) == pytest.approx(lap, rel=1e-12)


def test_lap_values():
    for c in (0.001, 0.5, 2.0):
        assert lap_phi(np.zeros(3), np.zeros(3), KernelParams(c)) == pytest.approx(
            -3.0 * c * c, rel=1e-10
        )
    assert lap_phi(np.array([1.0, 0.0, 0.0]), np.zeros(3), KernelParams(1.0)) == pytest.approx(
        -3.0 * 2.0 ** -2.5, rel=1e-12
    )


def test_lap_strictly_negative_and_radial():
    rng = np.random.default_rng(3)
    kp = KernelParams(0.8)
    for _ in range(100):
        r = rng.uniform(0, 5)
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        x1 = r * d1 / np.linalg.norm(d1)
        x2 = r * d2 / np.linalg.norm(d2)
        l1 = lap_phi(x1, np.zeros(3), kp)
        l2 = lap_phi(x2, np.zeros(3), kp)
        assert l1 < 0
        assert l1 == pytest.approx(l2, rel=1e-14)


def test_derivatives_match_finite_differences():
    # Batched per shape value so the oracle stays vectorized.
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        kp = KernelParams(c)
        xs, centers, _ = random_triples(rng, 50)
        g = grad_phi(xs, centers, kp)
        g_fd = fd_grad_phi(xs, centers, kp, fd_step_grad(c))
        rel_g = np.linalg.norm(g - g_fd, axis=1) / np.linalg.norm(g, axis=1)
        assert rel_g.max() <= 1e-6
        h = hess_phi(xs, centers, kp)
        h_fd = fd_hess_phi(xs, centers, kp, fd_step_grad(c))
        rel_h = np.linalg.norm((h - h_fd).reshape(len(xs), -1), axis=1) / np.linalg.norm(
            h.reshape(len(xs), -1), axis=1
        )
        assert rel_h.max() <= 1e-6
        lap = lap_phi(xs, centers, kp)
        lap_fd = fd_lap_phi(xs, centers, kp, fd_step_lap(c))
        assert (np.abs(lap - lap_fd) / np.abs(lap)).max() <= 1e-6


def test_kernel_purity_bit_identical():
    rng = np.random.default_rng(5)
    xs, centers, _ = random_triples(rng, 20)
    kp = KernelParams(0.37)
    assert np.array_equal(grad_phi(xs, centers, kp), grad_phi(xs, centers, kp))
    assert np.array_equal(hess_phi(xs, centers, kp), hess_phi(xs, centers, kp))
    assert np.array_equal(lap_phi(xs, centers, kp), lap_phi(xs, centers, kp))
    radii = np.linalg.norm(xs - centers, axis=1)
    assert np.array_equal(phi(radii, kp), phi(radii, kp))


def test_pairwise_broadcasting():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, (4, 3))
    centers = rng.uniform(-1, 1, (5, 3))
    kp = KernelParams(1.3)
    block = lap_phi(pts[:, None, :], centers[None, :, :], kp)
    assert block.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert block[i, j] == lap_phi(pts[i], centers[j], kp)
    gblock = grad_phi(pts[:, None, :], centers[None, :, :], kp)
    assert gblock.shape == (4, 5, 3)
    np.testing.assert_array_equal(gblock[2, 3], grad_phi(pts[2], centers[3], kp))


EPS = np.finfo(float).eps


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    b=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
    c=st.floats(1e-3, 2.0),
    xs=arrays(float, (6, 3), elements=st.floats(-2.0, 2.0)),
    centers=arrays(float, (6, 3), elements=st.floats(-2.0, 2.0)),
)
def test_anisotropic_operator_is_the_contracted_hessian(b, c, xs, centers):
    # Random SPD A = B B^T + I/2 and point/center pairs in a box.
    a = b @ b.T + 0.5 * np.eye(3)
    kp = KernelParams(c)
    op = lap_phi(xs, centers, kp, aniso=a)
    # |hess phi| <= 4 c^2 s^(-3/2) entrywise, and the two terms of the operator
    # cancel, so errors are measured against that size, not the result's.
    s = 1.0 + c * c * np.sum((xs - centers) ** 2, axis=1)
    scale = c * c * s**-1.5
    contracted = np.einsum("kl,mkl->m", a, hess_phi(xs, centers, kp))
    assert np.all(np.abs(op - contracted) <= 1e-12 * scale * np.abs(a).sum())
    # The identity tensor is the Laplacian up to a few ulps of the cancelling terms.
    iso = lap_phi(xs, centers, kp, aniso=np.eye(3))
    assert np.all(np.abs(iso - lap_phi(xs, centers, kp)) <= 8 * EPS * 3 * scale)
    assert np.all(lap_phi(centers, centers, kp, aniso=a) == -c * c * np.trace(a))
