"""Experiment execution: table rows, sweeps, and every text output but ``config.echo``.

One row is produced per grid size. ``table.csv`` leads with the columns of
the published result tables (N, c, kappa, divergence, relative error) and
appends the extra diagnostics; failed rows keep their error message in the
last column instead of aborting the run. Wall times go to ``timings.csv``
so ``table.csv`` stays byte-identical across reruns of the same
configuration. ``field_N{n}.csv`` samples the adjusted and exact fields and
the adjusted field's divergence at the run's quadrature nodes
(``quad``^3 two-point Gauss nodes, 4,096 by default), from the node values
the adjustment already computed, as fixed-width ``%-25.17e`` cells (18
significant digits, one more than round trip needs, space-padded to 25 bytes;
``nan`` and ``inf`` spelled as Python spells them), so every data record is
260 bytes; a failed row writes none. Each command first removes the outputs
an earlier one left in its directory, then writes ``config.echo``, which
re-parses to an equal configuration.

Rows run one at a time, in configuration order, the tables and field files
written after the last. A run and a sweep share that row loop, so a sweep over
``n`` writes the rows of a run over the same grid sizes. The loop hands out
one row at a time and keeps none of its results: a run keeps each row's node
arrays for its field file, a sweep only the table rows. The field files of a
run are written together, block by block over the nodes. Every column's cells
are keyed by its bytes and carried from block to block, so a column repeated
in a block or by the block before is formatted once.
The ``%.17e`` text is made with NumPy, not printf: the 18 digits are |x| times
a power of ten, formed as a double-double (Dekker's product against a
double-double table of 10^k), rounded to an integer and spelled through a
3-digit table. Zero, NaN, inf, magnitudes outside [1e-280, 1e280] and values
whose rounding is too close to a tie to decide are formatted by Python's
``%``, so the bytes are exactly those ``%`` writes. A result holds no N x N
collocation system: each row's solve consumes its matrix, so a run holds one
system at a time.
"""

from __future__ import annotations

import csv
import functools
import os
import re
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .adjust import AdjustmentResult, FaceBcPolicy, Problem, adjust, build_system, sasaki
from .collocation import GramSystem
from .config import KEY_FIELDS, ExperimentConfig, write_echo
from .errors import ConfigurationError, ContractError, MassconsError
from .fields import ExampleCase, Quadrature, example_field, gauss2_rule, inject
# unused; the benchmark's tracer patches these names
from .fields import divergence_fd, midpoint_rule  # noqa: F401
from .geometry import FaceLabel
from .kernel import KernelParams

__all__ = [
    "TableRow",
    "TABLE_COLUMNS",
    "run_experiment",
    "sweep",
    "SWEEP_PARAMS",
    "dump_gram",
    "dump_gram_for_config",
    "REFERENCE_RESULTS",
    "write_reference_comparison",
]


@dataclass(frozen=True)
class TableRow:
    """One experiment row; ``error`` is nonempty when the row failed.

    The fields before ``wall_time`` are the ``table.csv`` columns, in order.
    ``rank`` is the number of singular directions the truncated solve kept;
    None (written ``nan``) on a failed row.
    """

    n_nodes: int
    shape: float
    kappa: float = float("nan")
    div_mean: float = float("nan")
    rel_error: float = float("nan")
    div_max: float = float("nan")
    t_c: float = float("nan")
    j_before: float = float("nan")
    j_after: float = float("nan")
    residual: float = float("nan")
    residual_norm: float = float("nan")
    trunc_tol: float = float("nan")
    oracle_bc: bool = False
    rank: int | None = None
    error: str = ""
    wall_time: float = float("nan")

    def csv_values(self) -> list[str]:
        return [_cell(getattr(self, f.name)) for f in fields(self)[:-1]]


TABLE_COLUMNS = tuple(
    {"n_nodes": "N", "shape": "c"}.get(f.name, f.name) for f in fields(TableRow)[:-1]
)


def _sci(v: float) -> str:
    return np.format_float_scientific(v, unique=True)


def _cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return str(int(v))
    return _sci(v) if isinstance(v, float) else str(v)


# The config keys a sweep varies.
SWEEP_PARAMS = ("c", "n", "trunc_tol")


def _quadrature(cfg: ExperimentConfig) -> Quadrature:
    """The rule every row of a run or sweep integrates over: ``quad`` Gauss points per axis."""
    return gauss2_rule(cfg.box(), cfg.quad)


def _face_policy(cfg: ExperimentConfig) -> FaceBcPolicy:
    return FaceBcPolicy(**{f.name: getattr(cfg, f"bc_{f.name}") for f in fields(FaceBcPolicy)})


def _problem(cfg: ExperimentConfig, case: ExampleCase) -> Problem:
    """The problem every row of ``cfg`` solves; c, n and trunc_tol only discretise it."""
    box, w, policy = cfg.box(), cfg.weight_matrix(), _face_policy(cfg)
    if cfg.sasaki_mode:
        return Problem.full(inject(case.data), box, w, policy=policy, exact=case.exact)
    return Problem.horizontal(case.data, box, w, w_b=cfg.base_updraft, policy=policy, exact=case.exact)


def _run_one(cfg: ExperimentConfig, problem: Problem, n: int, quad) -> tuple[TableRow, AdjustmentResult | None]:
    kernel = KernelParams(cfg.shape)
    started = time.perf_counter()
    try:
        if cfg.sasaki_mode:
            result = sasaki(problem, kernel, n, quad=quad, trunc_tol=cfg.trunc_tol)
        else:
            result = adjust(problem, kernel, n, formula=cfg.formula, quad=quad, trunc_tol=cfg.trunc_tol)
    except (MassconsError, np.linalg.LinAlgError) as exc:
        result, outcome = None, dict(error=f"{type(exc).__name__}: {exc}")
    else:
        solution = result.multiplier
        outcome = dict(
            t_c=result.t_c, oracle_bc=result.oracle_bc, kappa=solution.kappa, residual=solution.residual,
            residual_norm=solution.residual_norm, rank=solution.rank, **asdict(result.metrics),
        )
    wall = time.perf_counter() - started
    return TableRow(n_nodes=n**3, shape=cfg.shape, trunc_tol=cfg.trunc_tol, wall_time=wall, **outcome), result


def _write_csv(path, header, records) -> None:
    """An ASCII CSV file of the header line, then one line per record."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


# A value's cell is "%.17e" space-padded to 25 bytes, the longest such text
# (-1.79769313486231571e+308), and a comma. The writer keys each column of a
# block by its bytes: a column bit-identical to one in the same block or the
# block before, so never 0.0 against -0.0, reuses its cells, and a constant
# column is formatted as one value. On a grid whose blocks are whole z-layers,
# x, y and exact fields such as x repeat in every block. Only the values
# _format_cells cannot decide are formatted by "%". The lines are written
# padding kept: np.savetxt's "%-25.17e" rows exactly, 260 bytes each, record i
# at len(_FIELD_HEADER) + 260 i.
_FIELD_HEADER = b"x,y,z,u1,u2,u3,u1_exact,u2_exact,u3_exact,div\n"
_FIELD_CELL = "%-25.17e,"
# Rows per block: the text of a block, not of a whole file, is held in memory.
_FIELD_BLOCK_ROWS = 1024

# The magnitudes _format_cells formats itself; the products it forms stay
# normal numbers there. The e10 of such a value, guessed or put right, lies in
# [-282, 281], which its tables cover.
_FAST_RANGE = (1e-280, 1e280)
_TABLE_E10 = 282
# Exact y = |x| 10^(17 - e10) is known to about 1e-13 (a double-double product
# against a double-double power of ten), so a fraction of y this close to 1/2
# may be a tie, which "%" rounds half to even: such values take the fallback.
_TIE_TOL = 1e-6
_DEKKER = 134217729.0  # 2**27 + 1
# Values per formatting pass, so its temporaries (about 200 bytes a value) stay
# in cache: on a block's 12,288 own values (2 vCPU Xeon, 4 MiB L2), 2048 / 4096 /
# 8192 values a pass cost 104 / 89 / 111 ns a value (median, 200 calls each).
_FORMAT_CHUNK = 4096


def _split(a):
    """Dekker's split: a = hi + lo, each half of the significand, so partial products are exact."""
    t = _DEKKER * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """The constants of _format_cells, built on the first field file written, not at import.

    Indexed by e10 + _TABLE_E10 for e10 in [-_TABLE_E10, _TABLE_E10]: 10^(17 - e10)
    as hi (correctly rounded), hi's Dekker halves and lo (the rest, rounded), both
    from exact integer ratios; and the exponent text, "e+XX " or "e-XXX". Then the
    digits '000' to '999'.
    """
    hi, lo = [], []
    for e10 in range(-_TABLE_E10, _TABLE_E10 + 1):
        k = 17 - e10
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    exponents = "".join(f"e{e10:+03d}".ljust(5) for e10 in range(-_TABLE_E10, _TABLE_E10 + 1))
    digits = "".join(f"{i:03d}" for i in range(1000))
    tables = (
        hi, *_split(hi), np.array(lo),
        np.frombuffer(exponents.encode("ascii"), np.uint8).reshape(-1, 5),
        np.frombuffer(digits.encode("ascii"), np.uint8).reshape(1000, 3),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a, e10, tables):
    """|x| 10^(17 - e10) as a normalised double-double (yh, yl): Dekker's product plus |x| lo."""
    hi, hi_h, hi_l, lo = (t[e10 + _TABLE_E10] for t in tables[:4])
    p = a * hi
    ah, al = _split(a)
    yl = (((ah * hi_h - p) + ah * hi_l + al * hi_h) + al * hi_l) + a * lo
    yh = p + yl
    return yh, yl - (yh - p)


def _decade_step(yh, yl):
    """+1 where y >= 1e18, -1 where y < 1e17, else 0: on the pair, as yh alone can round onto a bound."""
    step = ((yh > 1e18) | ((yh == 1e18) & (yl >= 0))).astype(np.int64)
    return step - ((yh < 1e17) | ((yh == 1e17) & (yl < 0)))


def _printf_cells(values):
    """The _FIELD_CELL text of each value, by Python's "%": the fallback of _format_cells."""
    text = ((_FIELD_CELL * len(values)) % tuple(values.tolist())).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(len(values), -1)


def _format_cells(values):
    """The _FIELD_CELL text of each float64 value as a (len(values), 26) uint8 array.

    The 18 significant digits are y = |x| 10^(17 - e10) rounded to an integer,
    with e10 = floor(log10 |x|) put right where y falls outside [1e17, 1e18).
    Zero, NaN, inf, magnitudes outside _FAST_RANGE and near-ties go to "%".
    """
    cells = np.empty((len(values), 26), np.uint8)
    for start in range(0, len(values), _FORMAT_CHUNK):
        chunk = slice(start, start + _FORMAT_CHUNK)
        cells[chunk] = _format_chunk(values[chunk])
    return cells


def _format_chunk(values):
    """_format_cells for at most _FORMAT_CHUNK values."""
    tables = _format_tables()
    exponents, digits = tables[4:]
    m = len(values)
    a = np.abs(values)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)  # a stand-in; "%" writes these cells
    e10 = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scaled(a, e10, tables)
    step = _decade_step(yh, yl)
    moved = np.flatnonzero(step)
    if len(moved):
        e10[moved] += step[moved]
        yh[moved], yl[moved] = _scaled(a[moved], e10[moved], tables)
    whole = np.floor(yl)
    frac = yl - whole
    decided = fast & (np.abs(frac - 0.5) >= _TIE_TOL) & (_decade_step(yh, yl) == 0)
    mant = np.where(decided, yh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), 10**17)
    carry = mant == 10**18
    mant[carry] = 10**17
    e10 += carry

    # six groups of three digits: mant's 9-digit halves fit int32, whose division is fast
    half = mant // 10**9
    x = np.stack([half, mant - half * 10**9], axis=1).astype(np.int32)
    x6, x3 = x // 10**6, x // 1000
    g = digits.take(np.stack([x6, x3 - x6 * 1000, x - x3 * 1000], axis=2), axis=0).reshape(m, 18)
    neg = np.signbit(values)
    signed = np.empty((m, 26), np.uint8)
    signed[:, 0] = ord("-")
    signed[:, 1] = g[:, 0]
    signed[:, 2] = ord(".")
    signed[:, 3:20] = g[:, 1:]
    signed[:, 20:25] = exponents.take(e10 + _TABLE_E10, axis=0)
    signed[:, 25] = np.where(neg, ord(","), ord(" "))
    # a value without a sign: the signed text one byte to the left, then ','
    flat = np.empty(26 * m + 1, np.uint8)
    flat[:-1] = signed.ravel()
    cells = flat[1:].reshape(m, 26)
    cells[:, 25] = ord(",")
    cells.view("V26")[neg] = signed.view("V26")[neg]
    rest = np.flatnonzero(~decided)
    if len(rest):
        cells[rest] = _printf_cells(values[rest])
    return cells


def _write_fields(done: list[tuple[str, np.ndarray, np.ndarray]], case: ExampleCase, quad) -> None:
    """u_plus, the exact field and div u_plus at the nodes, one file per (path, u_plus, div).

    u_plus and div are a row's ``node_values`` and ``node_div``, the values
    the adjustment cached. The exact field is evaluated once for all files,
    which are written together, block by block.
    """
    if not done:
        return
    nodes = quad.nodes
    exact = case.exact(nodes)
    cells = {}  # a column's cells by its bytes, kept for the next block
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in done]
        for fh in files:
            fh.write(_FIELD_HEADER)
        for start in range(0, len(nodes), _FIELD_BLOCK_ROWS):
            block = slice(start, start + _FIELD_BLOCK_ROWS)
            shared = [col.tobytes() for col in np.vstack([nodes[block].T, exact[block].T])]
            own = [[c.tobytes() for c in np.vstack([u[block].T, div[block]])] for _, u, div in done]
            keys = [shared[:3] + k[:3] + shared[3:] + k[3:] for k in own]  # x, y, z, u_plus, the exact field, div
            used = dict.fromkeys(key for file_keys in keys for key in file_keys)
            cells = {key: cells[key] for key in used if key in cells}
            # a new column is formatted, a constant one as one value (the assignment below broadcasts it)
            fresh = {key: np.frombuffer(key, np.int64) for key in used if key not in cells}
            values = [col[:1] if col[0] == col[-1] and (col == col[0]).all() else col for col in fresh.values()]
            if values:
                formatted = _format_cells(np.concatenate(values).view(np.float64)).view("V26")[:, 0]
                cells.update(zip(fresh, np.split(formatted, np.cumsum([len(v) for v in values[:-1]]))))
            lines = np.empty((len(nodes[block]), 10), "V26")
            text = lines.view(np.uint8).reshape(-1, 260)
            for fh, file_keys in zip(files, keys):
                for slot, key in enumerate(file_keys):
                    lines[:, slot] = cells[key]
                text[:, -1] = ord("\n")
                fh.write(text)


# The files a command writes; _claim_out removes these, and no other file.
_OUTPUT_NAMES = r"config\.echo|table\.csv|timings\.csv|sweep\.csv|field_N[0-9]+\.csv|gram_N[0-9]+\.txt"


def _claim_out(cfg: ExperimentConfig, out_override: str | None) -> tuple[str, ExampleCase, Problem]:
    """Clear ``cfg.out`` or ``out_override`` of outputs and echo ``cfg`` there; returns it, the example, the problem."""
    if out_override is not None:
        cfg = replace(cfg, out=out_override)
    out = cfg.out
    try:
        os.makedirs(out, exist_ok=True)
        for name in os.listdir(out):
            if re.fullmatch(_OUTPUT_NAMES, name):
                os.remove(os.path.join(out, name))
        write_echo(cfg, os.path.join(out, "config.echo"))
    except OSError as exc:
        raise ConfigurationError(f"output directory not writable: {out} ({exc})") from None
    case = example_field(cfg.example, eps=cfg.eps)
    return out, case, _problem(cfg, case)


def _rows(cfg: ExperimentConfig, runs: list[tuple[ExperimentConfig, int]], threads: int, out_override: str | None):
    """Claim the output directory, then run one row per (config, n) pair, in order.

    Every row shares the example, its problem and the quadrature built from
    ``cfg``. Returns the output directory, the example, the quadrature and an
    iterator that runs the rows one at a time, giving each row's (n, row, nodes):
    nodes is the result's (node_values, node_div), None on a failed row. No
    result outlives its row. ``threads`` must be 1: rows run one at a time.
    """
    if threads != 1:
        raise ConfigurationError(f"threads must be 1 (rows run one at a time), got {threads}")
    (out, case, problem), quad = _claim_out(cfg, out_override), _quadrature(cfg)

    def rows():
        for row_cfg, n in runs:
            row, result = _run_one(row_cfg, problem, n, quad)
            nodes = None if result is None else (result.node_values, result.node_div)
            del result  # freed before the next row starts
            yield n, row, nodes

    return out, case, quad, rows()


def run_experiment(
    cfg: ExperimentConfig, threads: int = 1, out_override: str | None = None
) -> list[TableRow]:
    """Run one row per grid size and write all artifacts to the output directory.

    ``threads`` must be 1: rows run one at a time.
    """
    out, case, quad, rows = _rows(cfg, [(cfg, n) for n in cfg.grid_sizes], threads, out_override)
    rows = list(rows)
    table = [row for _, row, _ in rows]
    _write_csv(os.path.join(out, "table.csv"), TABLE_COLUMNS, [row.csv_values() for row in table])
    timings = [(row.n_nodes, _sci(row.wall_time)) for row in table]
    _write_csv(os.path.join(out, "timings.csv"), ("N", "wall_time"), timings)
    done = [(os.path.join(out, f"field_N{n}.csv"), *nodes) for n, _, nodes in rows if nodes is not None]
    _write_fields(done, case, quad)
    return table


def sweep(
    cfg: ExperimentConfig,
    parameter: str,
    values,
    threads: int = 1,
    out_override: str | None = None,
) -> list[TableRow]:
    """One row per swept value with everything else fixed; writes sweep.csv.

    Each variant is ``cfg`` with the parameter's field replaced, so it is
    checked as any config is; a value of ``n`` is the variant's one grid size,
    so a sweep over ``n`` writes the rows of a run over the same sizes.
    ``threads`` must be 1: rows run one at a time.
    """
    if parameter not in SWEEP_PARAMS:
        raise ConfigurationError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    if len(values) == 0:
        raise ConfigurationError("sweep needs at least one value")
    for i, v in enumerate(values):
        if v in values[:i]:  # its rows would be the same row twice
            raise ConfigurationError(f"sweep values of {parameter} must be distinct, {v!r} is repeated")
    f = KEY_FIELDS[parameter]
    variants = [replace(cfg, **{f.name: (v,) if f.metadata["many"] else v}) for v in values]
    if any(len(v.grid_sizes) != 1 for v in variants):
        raise ConfigurationError(f"a sweep over {parameter} needs a single grid size in the config")

    out, _, _, rows = _rows(cfg, [(v, v.grid_sizes[0]) for v in variants], threads, out_override)
    table = [row for _, row, _ in rows]
    _write_csv(os.path.join(out, "sweep.csv"), TABLE_COLUMNS, [row.csv_values() for row in table])
    return table


def dump_gram(system: GramSystem, path) -> None:
    """Write G, b, the singular values of G, and the node set as delimited text.

    Needs the assembled matrix, so it runs before
    :func:`~masscons.collocation.factorize_and_solve`.
    """
    g = system.matrix
    if g is None:
        raise ContractError("dump_gram requires the matrix, which factorize_and_solve consumes")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# gram matrix {g.shape[0]}x{g.shape[1]}\n")
        for row in g:
            fh.write(",".join(_sci(v) for v in row) + "\n")
        fh.write("# rhs\n" + ",".join(_sci(v) for v in system.rhs) + "\n")
        fh.write("# singular values\n" + ",".join(_sci(v) for v in np.linalg.svd(g, compute_uv=False)) + "\n")
        fh.write("# row kinds\n" + ",".join(system.row_kinds) + "\n# nodes x,y,z,label\n")
        for pt, label in zip(system.nodes.points, system.nodes.labels):
            fh.write(",".join(_sci(v) for v in pt) + f",{FaceLabel(label).name.lower()}\n")


def dump_gram_for_config(
    cfg: ExperimentConfig, out_override: str | None = None
) -> list[str]:
    """Assemble the multiplier system per grid size; dump G, b and G's singular values.

    The system is the one the row's line search solves: its problem is the
    row's. A grid whose dense solve would not fit in physical memory raises
    DomainError before its nodes are built.
    """
    out, _, problem = _claim_out(cfg, out_override)
    paths = []
    for n in cfg.grid_sizes:
        system = build_system(problem, KernelParams(cfg.shape), n)
        path = os.path.join(out, f"gram_N{n**3}.txt")
        dump_gram(system, path)
        del system  # freed before the next grid size is assembled
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
    """Side-by-side CSV of published reference values against computed rows.

    A computed row stands beside a published one only at the same N and c;
    the computed cells are empty where no row has both.
    """
    records = []
    for example, refs in REFERENCE_RESULTS.items():
        rows = {(row.n_nodes, row.shape): row for row in rows_by_example.get(example, [])}
        for n_nodes, c, eps, kappa_ref, div_ref, rel_ref in refs:
            row = rows.get((n_nodes, c))
            got = [_sci(v) for v in (row.kappa, row.div_mean, row.rel_error)] if row else ["", "", ""]
            eps = "" if eps is None else _sci(eps)
            records.append((
                example, str(n_nodes), _sci(c), eps,
                _sci(kappa_ref), got[0], _sci(div_ref), got[1], _sci(rel_ref), got[2],
            ))
    header = ("example", "N", "c", "eps", "kappa_ref", "kappa", "div_ref", "div_mean",
              "rel_error_ref", "rel_error")
    _write_csv(path, header, records)
