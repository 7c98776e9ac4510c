"""The benchmark's workloads and the generator that writes their configs.

Every workload is a closed loop: one caller, one runner call at a time,
``threads=1``. The two shipped-config workloads read frozen copies kept in
``perfbench/configs`` so that edits to ``configs/`` never change a workload
silently. ``aniso-sweep`` is generated from the seed.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# The c values of the aniso-sweep workload; fixed, so that the seed changes
# the problem data but not the amount of work.
SWEEP_C_VALUES = (0.005, 0.01, 0.02)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its runner entry and why it exists."""

    name: str
    entry: str  # "run" (run_experiment) or "sweep" (sweep --param c)
    why: str  # one line: why it exists and which layer it stresses
    seeded: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ex51-run",
            entry="run",
            why=(
                "shipped ex51 via run_experiment: grad lambda kernel sums at the 32^3 "
                "quadrature nodes are ~90% of the run; stresses collocation.eval, kernel and "
                "fields.divergence_fd"
            ),
            seeded=False,
        ),
        Workload(
            name="ex52-run",
            entry="run",
            why=(
                "shipped ex52 via run_experiment: multiplier coefficients are zero, so kernel "
                "sums short-circuit and ~78% is CSV output; stresses runner, control for kernel "
                "changes"
            ),
            seeded=False,
        ),
        Workload(
            name="aniso-sweep",
            entry="sweep",
            why=(
                "seeded Sasaki ex53 on hill terrain, SPD 3x3 s, N=1728, sweep over 3 c: "
                "hess_phi assembly and dense SVD ~90%; stresses collocation.assemble/solve and "
                "peak memory"
            ),
            seeded=True,
        ),
    )
}


def _spd_matrix(rng: random.Random) -> list[list[float]]:
    """A A^T + I/2 for a random 3x3 A; symmetric bit for bit, eigenvalues >= 1/2."""
    a = [[round(rng.uniform(-1.0, 1.0), 3) for _ in range(3)] for _ in range(3)]
    return [
        [sum(a[i][k] * a[j][k] for k in range(3)) + (0.5 if i == j else 0.0) for j in range(3)]
        for i in range(3)
    ]


def aniso_config_text(seed: int) -> str:
    """The generated full-observation config: weight matrix and hill drawn from ``seed``."""
    rng = random.Random(seed)
    s = _spd_matrix(rng)
    amplitude = round(rng.uniform(0.5, 2.0), 3)
    width = round(rng.uniform(2.0, 4.0), 3)
    entries = ", ".join(repr(v) for row in s for v in row)
    return (
        f"# aniso-sweep workload, generated by perfbench/workloads.py from seed {seed}.\n"
        "# Full observation (9-entry s) on ex53 over hill terrain; swept over c.\n"
        "example = ex53\n"
        "eps = 0.1\n"
        "n = 12\n"
        f"c = {SWEEP_C_VALUES[1]!r}\n"
        "quad = 8\n"
        "topography = hill\n"
        f"hill_amplitude = {amplitude!r}\n"
        f"hill_width = {width!r}\n"
        f"s = {entries}\n"
        "bc_bottom = no-flow-through\n"
        "bc_top = flow-through\n"
        "bc_xmin = flow-through\n"
        "bc_xmax = flow-through\n"
        "bc_ymin = flow-through\n"
        "bc_ymax = flow-through\n"
    )


def write_config(workload: Workload, seed: int, dest: Path) -> Path:
    """Write the workload's config into ``dest`` and return its path."""
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / f"{workload.name}.cfg"
    if workload.name == "aniso-sweep":
        path.write_text(aniso_config_text(seed), encoding="utf-8")
    else:
        shutil.copyfile(CONFIG_DIR / f"{workload.name.split('-')[0]}.cfg", path)
    return path


def warmup_config_text(workload: Workload) -> str:
    """A tiny config on the same example and code path, run once untimed before measuring."""
    if workload.name == "aniso-sweep":
        return (
            "example = ex53\nn = 3\nc = 0.01\nquad = 4\ntopography = hill\n"
            "s = 2.0, 0.5, 0.0, 0.5, 1.5, 0.0, 0.0, 0.0, 1.0\n"
            "bc_bottom = no-flow-through\n"
        )
    example = workload.name.split("-")[0]
    base = "base = vertical\nbc_top = no-flow-through\n" if example == "ex52" else ""
    return f"example = {example}\nn = 3\nc = 0.01\nquad = 4\nbc_bottom = no-flow-through\n{base}"
