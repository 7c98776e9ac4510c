"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Criterion 4 is implemented exactly as stated and is expected
to fail at the stated shape value: at c = 0.5 the collocation system is
well conditioned and full rank, yet the relative error is ~2.5e-1, far above
the 1e-2 bound. The ansatz is not what limits it: the best L2 fit of the
exact correction by span{grad phi_j} has error 1.7e-2 at N = 512. The
pipeline's error is 15 times that, mostly from square collocation, which
tests the operator at exactly as many points as it has centres. The
companion test at a flat shape in test_adjust.py recovers the field to
~2e-4. The same defect propagates into the criterion-4 half of criterion 5.
"""

import time

import numpy as np
import pytest

from conftest import fd_grad_phi, fd_hess_phi, fd_lap_phi, fd_step_grad, fd_step_lap
from masscons.adjust import (
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
    FaceBcPolicy,
    Problem,
    adjust,
    adjust_full,
    build_system,
)
from masscons.collocation import factorize_and_solve
from masscons.config import parse_config
from masscons.fields import divergence_fd, example_field, face_rule, inject, midpoint_rule
from masscons.kernel import KernelParams, grad_phi, hess_phi, lap_phi
from masscons.runner import run_experiment, write_reference_comparison

CONFIG_DIR = "configs"


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Run the three shipped example configurations once; reused by 5-8 and 10."""
    base = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for name in ("ex51", "ex52", "ex53"):
        cfg = parse_config(f"{CONFIG_DIR}/{name}.cfg")
        out = base / name
        rows = run_experiment(cfg, out_override=str(out))
        runs[name] = (cfg, rows, out)
    return base, runs


def test_criterion_1_kernel_derivatives():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = {"grad": 0.0, "hess": 0.0, "lap": 0.0}
    for _ in range(20):  # 20 shape values x 50 points = 1000 random points
        c = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        kp = KernelParams(c)
        centers = rng.uniform(-2.0, 2.0, (50, 3))
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xs = centers + rng.uniform(0.2, 2.5, 50)[:, None] * dirs

        g = grad_phi(xs, centers, kp)
        rel = np.linalg.norm(g - fd_grad_phi(xs, centers, kp, fd_step_grad(c)), axis=1)
        worst["grad"] = max(worst["grad"], float((rel / np.linalg.norm(g, axis=1)).max()))

        h = hess_phi(xs, centers, kp)
        dh = np.linalg.norm((h - fd_hess_phi(xs, centers, kp, fd_step_grad(c))).reshape(50, -1), axis=1)
        worst["hess"] = max(worst["hess"], float((dh / np.linalg.norm(h.reshape(50, -1), axis=1)).max()))

        lap = lap_phi(xs, centers, kp)
        dl = np.abs(lap - fd_lap_phi(xs, centers, kp, fd_step_lap(c)))
        worst["lap"] = max(worst["lap"], float((dl / np.abs(lap)).max()))

    center_dev = 0.0
    for c in (1e-3, 0.03, 1.0, 10.0):
        x = np.array([0.4, -0.6, 1.2])
        center_dev = max(center_dev, abs(lap_phi(x, x, KernelParams(c)) + 3 * c * c) / (3 * c * c))
    elapsed = time.perf_counter() - started

    ok = (
        max(worst.values()) <= 1e-6
        and center_dev <= 1e-10
        and elapsed < 1.0
    )
    assert report(
        "1",
        ok,
        f"worst fd rel: grad {worst['grad']:.2e}, hess {worst['hess']:.2e}, "
        f"lap {worst['lap']:.2e}; lap(center) rel {center_dev:.2e}; {elapsed:.2f}s",
    )


def test_criterion_2_full_observation_step():
    case = example_field("ex51")
    weights = np.diag([1.0, 2.0, 4.0])
    started = time.perf_counter()
    result = adjust_full(
        inject(case.data), weights, case.domain, KernelParams(0.5), 5,
        policy=FaceBcPolicy.uniform(FLOW_THROUGH), formula=CLOSED_FORM, exact=case.exact,
    )
    elapsed = time.perf_counter() - started
    ok = abs(result.t_c - 1.0) <= 1e-12 and elapsed < 5.0
    assert report("2", ok, f"t_c = {result.t_c!r}, |t-1| = {abs(result.t_c - 1):.2e}, {elapsed:.1f}s")


def crit3_result(n=5):
    case = example_field("ex52")
    return adjust(
        case.data, case.domain, KernelParams(0.01), n,
        w_b=1.0,
        policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH, top=NO_FLOW_THROUGH),
        formula=MINIMIZER, exact=case.exact,
    )


def test_criterion_3_exact_recovery_vortex():
    started = time.perf_counter()
    result = crit3_result()
    elapsed = time.perf_counter() - started
    ok = (
        result.metrics.rel_error <= 1e-10
        and abs(result.t_c - 1.0) <= 1e-10
        and elapsed < 10.0
    )
    assert report(
        "3", ok,
        f"rel error {result.metrics.rel_error:.2e}, |t-1| {abs(result.t_c - 1):.2e}, {elapsed:.1f}s",
    )


def crit4_result():
    case = example_field("ex53", eps=0.1)
    return adjust(
        case.data, case.domain, KernelParams(0.5), 8,
        policy=FaceBcPolicy.uniform(ORACLE_NEUMANN),
        formula=MINIMIZER, exact=case.exact,
    )


def test_criterion_4_oracle_recovery_at_stated_shape():
    # Known unattainable parameter choice: at c = 0.5 the stated 1e-2 bound
    # cannot be met (see module docstring); kept as stated and reported honestly.
    started = time.perf_counter()
    result = crit4_result()
    elapsed = time.perf_counter() - started
    actual = result.metrics.rel_error
    ok = actual <= 1e-2 and elapsed < 60.0
    report("4", ok, f"actual rel error {actual:.3e} at N=512, c=0.5; {elapsed:.1f}s")
    assert elapsed < 60.0
    assert actual <= 1e-2, f"relative error {actual:.3e} exceeds 1e-2 at the stated shape c=0.5"


def _interior_pde_residual(cfg, n):
    case = example_field(cfg.example, eps=cfg.eps)
    policy = FaceBcPolicy(
        bottom=cfg.bc_bottom, top=cfg.bc_top, xmin=cfg.bc_xmin,
        xmax=cfg.bc_xmax, ymin=cfg.bc_ymin, ymax=cfg.bc_ymax,
    )
    problem = Problem.horizontal(case.data, cfg.box(), cfg.weight_matrix(), w_b=cfg.base_updraft, policy=policy)
    system = build_system(problem, KernelParams(cfg.shape), n, exact=case.exact)
    nodes = system.nodes
    solution = factorize_and_solve(system, trunc_tol=cfg.trunc_tol)
    interior = nodes.interior
    dev = solution.laplacian(nodes.points[interior]) - system.rhs[interior]
    return float(np.abs(dev).max()), solution.residual_norm


def test_criterion_5_divergence_residuals(shipped):
    _, runs = shipped
    checks: list[tuple[bool, str]] = []
    for name, (cfg, _, _) in runs.items():
        worst, bound = _interior_pde_residual(cfg, 5)
        checks.append((worst <= bound + 1e-10, f"{name} pde-residual {worst:.2e} <= {bound:.2e}+1e-10"))

    res3 = crit3_result()
    case3 = example_field("ex52")
    quad3 = midpoint_rule(case3.domain, 32)
    mean3 = float(np.abs(divergence_fd(res3.u_plus, quad3.nodes, 1e-5 * case3.domain.diameter())).mean())
    checks.append((mean3 <= 1e-3, f"crit-3 config mean|div| {mean3:.2e}"))

    res4 = crit4_result()
    case4 = example_field("ex53", eps=0.1)
    quad4 = midpoint_rule(case4.domain, 32)
    mean4 = float(np.abs(divergence_fd(res4.u_plus, quad4.nodes, 1e-5 * case4.domain.diameter())).mean())
    checks.append((mean4 <= 1e-3, f"crit-4 config mean|div| {mean4:.2e} (same defect as criterion 4)"))

    report("5", all(ok for ok, _ in checks), "; ".join(f"{d}: {ok}" for ok, d in checks))
    for ok, detail in checks:
        assert ok, detail


def test_criterion_6_objective_descent(shipped):
    _, runs = shipped
    details = []
    ok = True
    for name, (_, rows, _) in runs.items():
        for row in rows:
            good = row.error == "" and row.j_after <= row.j_before + 1e-12
            if row.j_before > 1e-10:
                good &= row.j_after < row.j_before
            ok &= good
            details.append(f"{name} N={row.n_nodes}: J {row.j_before:.3e} -> {row.j_after:.3e}")
    assert report("6", ok, "; ".join(details))


def test_criterion_7_conditioning_regime(shipped):
    _, runs = shipped
    rows = runs["ex51"][1]
    kappas = [row.kappa for row in rows]
    ok = all(k >= 1e12 for k in kappas) and kappas == sorted(kappas)
    assert report(
        "7", ok,
        "kappa(N=27,125,512) = " + ", ".join(f"{k:.3e}" for k in kappas) + " (>=1e12, nondecreasing)",
    )


def test_criterion_8_reference_comparison(shipped):
    base, runs = shipped
    rows_by_example = {name: rows for name, (_, rows, _) in runs.items()}
    path = base / "reference_comparison.csv"
    write_reference_comparison(rows_by_example, path)
    lines = path.read_text().splitlines()
    ok = len(lines) == 10  # header + 9 comparison rows
    for line in lines:
        print(f"[acceptance]   {line}")
    assert report("8", ok, f"side-by-side comparison written to {path} (soft target, reported)")


def test_criterion_9_integration_by_parts_identity():
    from masscons.geometry import BoxDomain

    started = time.perf_counter()
    # Off centre: on a box symmetric about the origin both terms vanish by symmetry.
    box = BoxDomain(0, 2, -1, 2, 0.5, 2)
    quad = midpoint_rule(box, 64)
    pts = quad.nodes
    grad_lam = np.column_stack([pts[:, 1] * pts[:, 2], pts[:, 0] * pts[:, 2], pts[:, 0] * pts[:, 1]])
    h_field = np.column_stack([pts[:, 1], pts[:, 2], pts[:, 0]])
    integrand = np.sum(grad_lam * h_field, axis=1)
    volume_term = float(np.sum(quad.weights * integrand))
    scale = float(np.sum(quad.weights * np.abs(integrand)))

    fnodes, fweights, fnormals = face_rule(box, 256)
    lam_surface = fnodes[:, 0] * fnodes[:, 1] * fnodes[:, 2]
    h_surface = np.column_stack([fnodes[:, 1], fnodes[:, 2], fnodes[:, 0]])
    surface_term = float(np.sum(fweights * lam_surface * np.sum(h_surface * fnormals, axis=1)))
    elapsed = time.perf_counter() - started

    rel = abs(volume_term - surface_term) / scale
    ok = rel <= 1e-3 and elapsed < 5.0
    assert report(
        "9", ok,
        f"volume {volume_term:.3e} vs surface {surface_term:.3e}, rel {rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_reproducible_table(shipped, tmp_path):
    base, runs = shipped
    cfg, _, out = runs["ex51"]
    rerun_out = tmp_path / "rerun"
    run_experiment(cfg, out_override=str(rerun_out))
    first = (out / "table.csv").read_bytes()
    second = (rerun_out / "table.csv").read_bytes()
    ok = first == second
    assert report("10", ok, f"table.csv bytes identical across runs: {ok}")
