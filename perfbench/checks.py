"""Output checks run after every repetition of a workload.

A row fails when it carries an ``error``, holds a number that is not finite,
has ``j_after > j_before``, or (for ``run`` workloads) its ``rel_error``
disagrees with the value recomputed from the ``u``/``u_exact`` columns of
its ``field_N*.csv``. A table whose bytes differ from the first repetition's
fails all of its rows. The field files are streamed, so the checks add
almost nothing to the process's peak memory.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# Recomputed and reported rel_error come from different evaluations of the
# same field (u_plus at the nodes vs. the accumulated step), summed in a
# different order; they agree to a few ulps, far inside this tolerance.
REL_ERROR_RTOL = 1e-9


@dataclass
class RepCheck:
    rows: int = 0
    failed: int = 0
    rel_error_max_n: float = float("nan")
    problems: list[str] = field(default_factory=list)


def field_rel_error(path: Path) -> float:
    """||u - u_exact|| / ||u_exact|| over every node and component of a field CSV."""
    num = den = 0.0
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [(header.index(f"u{k}"), header.index(f"u{k}_exact")) for k in (1, 2, 3)]
        for rec in reader:
            for iu, ie in cols:
                e = float(rec[ie])
                d = float(rec[iu]) - e
                num += d * d
                den += e * e
    return math.sqrt(num) / math.sqrt(den)


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= REL_ERROR_RTOL * max(abs(a), abs(b)) or a == b


class OutputChecker:
    """Checks one workload's artefacts, repetition after repetition."""

    def __init__(self, entry: str):
        self.table = "sweep.csv" if entry == "sweep" else "table.csv"
        self.with_fields = entry == "run"
        self.digest: str | None = None

    def check(self, out: Path, rows_expected: int) -> RepCheck:
        result = RepCheck(rows=rows_expected)
        path = out / self.table
        try:
            data = path.read_bytes()
        except OSError as exc:
            result.failed = rows_expected
            result.problems.append(f"{self.table} missing: {exc}")
            return result
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        table_ok = digest == self.digest
        if not table_ok:
            result.problems.append(f"{self.table} bytes differ from the first repetition")

        rows = list(csv.DictReader(data.decode("ascii").splitlines()))
        if len(rows) != rows_expected:
            result.problems.append(f"{self.table} has {len(rows)} rows, expected {rows_expected}")
        largest = -1
        for row in rows:
            bad, rel = self._row_problems(row, out)
            if bad or not table_ok:
                result.failed += 1
            result.problems += bad
            n_nodes = int(row["N"])
            if n_nodes > largest or (n_nodes == largest and rel > result.rel_error_max_n):
                largest, result.rel_error_max_n = n_nodes, rel
        result.failed += max(rows_expected - len(rows), 0)
        return result

    def _row_problems(self, row: dict, out: Path) -> tuple[list[str], float]:
        """Problems of one table row, and its rel_error (recomputed where fields exist)."""
        tag = f"{self.table} N={row['N']} c={row['c']}"
        nan = float("nan")
        if row["error"]:
            return [f"{tag}: error {row['error']!r}"], nan
        try:
            values = {k: float(v) for k, v in row.items() if k != "error"}
        except ValueError as exc:
            return [f"{tag}: unparsable number ({exc})"], nan
        bad = [f"{tag}: {k} = {v} is not finite" for k, v in values.items() if not math.isfinite(v)]
        if values["j_after"] > values["j_before"]:
            bad.append(f"{tag}: j_after {values['j_after']} > j_before {values['j_before']}")
        if self.with_fields:
            n = round(int(row["N"]) ** (1.0 / 3.0))
            path = out / f"field_N{n}.csv"
            try:
                rel = field_rel_error(path)
            except (OSError, ValueError, StopIteration) as exc:
                return bad + [f"{tag}: cannot read {path.name} ({exc!r})"], nan
            if not _agree(rel, values["rel_error"]):
                bad.append(f"{tag}: rel_error {values['rel_error']} != recomputed {rel}")
            return bad, rel
        return bad, values["rel_error"]
