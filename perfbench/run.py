#!/usr/bin/env python3
"""masscons benchmark: end-to-end metrics, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload {ex51-run,ex52-run,aniso-sweep,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``. One
single-threaded process runs the workload's runner entry (``run_experiment``
or ``sweep``) again and again for ``--seconds`` (at least once), checks the
artefacts of every repetition and prints human-readable lines followed by
one JSON line: ``correct``, ``attempted`` and ``failed`` rows, and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(``run_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` untraced and
traced repetitions alternate and the metrics are the per-layer ones. Work
files go to ``.perfbench_work/`` under the root. ``--workload all`` runs
every workload in its own child process and prints them together. The exit
code is 0 when every check passed, 1 when a check failed, 2 on bad set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import OutputChecker
from workloads import SWEEP_C_VALUES, WORKLOADS, warmup_config_text, write_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # at most nproc; one thread keeps every workload single-threaded
SETUP_PROBES = 11

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "fields.quadrature_s": "s",
    "geometry.grid_centers_s": "s",
    "collocation.assemble_s": "s",
    "collocation.assemble_pairs": "count",
    "collocation.solve_s": "s",
    "collocation.rank_kept_frac": "ratio",
    "collocation.eval_s": "s",
    "collocation.eval_incl_s": "s",
    "collocation.eval_calls": "count",
    "collocation.eval_pairs": "count",
    "collocation.eval_pairs_per_s": "1/s",
    "kernel.s": "s",
    "kernel.block_bytes_max": "bytes",
    "fields.divergence_fd_calls.adjust": "count",
    "fields.divergence_fd_calls.runner": "count",
    "fields.divergence_fd_s": "s",
    "adjust.self_s": "s",
    "runner.self_s": "s",
    "runner.bytes_written": "bytes",
    "runner.rel_error_max_n": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            if level > best[0] and (index / "type").read_text().strip() != "Instruction":
                best = (level, f"L{level} {(index / 'size').read_text().strip()}")
        except (OSError, ValueError):
            continue
    return best[1]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def measure_setup(config: Path) -> list[float]:
    """Set-up seconds in fresh interpreters: import, parse_config, midpoint_rule."""
    probe = Path(__file__).resolve().parent / "probe_setup.py"
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), str(config)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Bench:
    """One workload's repetitions in this process, checked one by one."""

    def __init__(self, workload, seed: int):
        from masscons import parse_config

        self.workload = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.config = write_config(workload, seed, self.dir / "configs")
        self.out = self.dir / "out"
        self.cfg = parse_config(self.config)
        self.checker = OutputChecker(workload.entry)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rel_error_max_n = float("nan")
        self.bytes_written = 0
        self.crashed = ""
        sweeping = workload.entry == "sweep"
        self.rows_per_call = len(SWEEP_C_VALUES if sweeping else self.cfg.grid_sizes)
        warm = self.dir / "warmup.cfg"
        warm.write_text(warmup_config_text(workload), encoding="utf-8")
        self._call(parse_config(warm), self.dir / "warmup")

    def _call(self, cfg, out: Path):
        from masscons import run_experiment, sweep

        if self.workload.entry == "sweep":
            return sweep(cfg, "c", SWEEP_C_VALUES, threads=1, out_override=str(out))
        return run_experiment(cfg, threads=1, out_override=str(out))

    def rep(self, tracer=None) -> float:
        """One runner call, timed; returns its wall seconds after checking its artefacts."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        name = "runner.sweep" if self.workload.entry == "sweep" else "runner.run_experiment"
        started = time.perf_counter()
        try:
            if tracer is None:
                self._call(self.cfg, self.out)
            else:
                from masscons import parse_config

                with tracer.installed():
                    with tracer.span("config.parse_config"):
                        cfg = parse_config(self.config)
                    started = time.perf_counter()
                    with tracer.span(name):
                        self._call(cfg, self.out)
        except Exception:  # a crashing runner is a failed repetition, reported below
            self.crashed = traceback.format_exc()
        wall = time.perf_counter() - started
        check = self.checker.check(self.out, self.rows_per_call)
        self.attempted += check.rows
        self.failed += check.failed
        self.problems += check.problems
        self.rel_error_max_n = check.rel_error_max_n
        if self.out.is_dir():
            self.bytes_written = sum(
                p.stat().st_size for p in self.out.iterdir() if p.name != "timings.csv"
            )
        return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer, largest_self_layer, layer_metrics

    workload = WORKLOADS[name]
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"why: {workload.why}")
    if not workload.seeded:
        print(f"seed: {name} runs a shipped config and ignores the seed")
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))

    bench = Bench(workload, seed)
    setup = measure_setup(bench.config) if not trace else []
    walls: list[float] = []
    traced: list[float] = []
    per_rep: list[dict] = []
    tracer = Tracer()
    started = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        walls.append(bench.rep())
        if trace and not bench.crashed:
            first = len(tracer.spans)
            traced.append(bench.rep(tracer))
            per_rep.append(layer_metrics(tracer.spans[first:]))
            per_rep[-1]["runner.bytes_written"] = bench.bytes_written
        now = time.perf_counter()
        if bench.crashed or now - started + (now - step_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    rows_failed_frac = bench.failed / bench.attempted
    print(f"rows_failed_frac  {rows_failed_frac} ratio ({bench.failed} of {bench.attempted} rows)")
    print(f"rel_error_max_n   {bench.rel_error_max_n!r} ratio (largest row)")
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if bench.crashed:
        print(f"runner call raised:\n{bench.crashed}", file=sys.stderr)

    if trace and not per_rep:
        result, units = {}, PER_LAYER_UNITS
    elif trace:
        result = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        for key, unit in PER_LAYER_UNITS.items():
            if unit in ("count", "bytes") and key in result:
                result[key] = int(result[key])  # counts repeat in every call
        result["runner.rel_error_max_n"] = bench.rel_error_max_n
        result["trace.run_s"] = statistics.median(traced)
        result["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        units = PER_LAYER_UNITS
        print(f"traced calls: {len(traced)}; untraced calls: {len(walls)}; "
              f"untraced run_s median {statistics.median(walls)!r} s")
        eval_share = result["collocation.eval_incl_s"] / result["trace.run_s"]
        solve_share = (
            result["collocation.assemble_s"] + result["collocation.solve_s"]
        ) / result["trace.run_s"]
        print(f"stress: eval+kernel share of traced run_s {eval_share:.3f}; "
              f"assemble+solve share {solve_share:.3f}; largest self-time layer "
              f"{largest_self_layer(tracer.spans[first:])}")
        tracer.write(bench.dir / "spans.jsonl")
    else:
        result = {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"run_s samples ({len(walls)} calls): {' '.join(f'{w:.4f}' for w in walls)}")
        print(f"setup_s samples ({len(setup)} fresh interpreters): "
              f"{' '.join(f'{x:.4f}' for x in setup)}")
    for key, value in result.items():
        print(f"{key:<36} {value!r} {units[key]}")
    (bench.dir / "env.json").write_text(json.dumps(env, indent=1, sort_keys=True) + "\n")

    correct = bench.failed == 0 and not bench.problems and not bench.crashed
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a child process; prints their lines and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {done.returncode} without a result", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        code = max(code, done.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "masscons" / "__init__.py").is_file():
        print(f"masscons sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
