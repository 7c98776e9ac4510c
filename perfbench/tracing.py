"""Spans around the public masscons functions, installed from the benchmark.

Each span has a name, a start, an end and the span that caused it; spans
stay in memory and are written out when the benchmark ends. A name is
patched where its caller looks it up, e.g. ``masscons.adjust`` the module
(``sys.modules``), not the package attribute of the same name, which is the
``adjust`` function. A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

EVAL_METHODS = ("value", "gradient", "laplacian", "hessian", "operator_laplacian")
KERNELS = ("phi_sq", "grad_phi", "lap_phi", "hess_phi")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None, **attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **attrs) as s:
                if before is not None:
                    before(s, args)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(s, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch the traced names for the duration of the block, then restore them."""
        runner = importlib.import_module("masscons.runner")
        adjust = importlib.import_module("masscons.adjust")
        collocation = importlib.import_module("masscons.collocation")

        def on_assemble(s, args):
            n = len(args[0].points)
            s.attrs["pairs"] = n * n

        def on_solve(s, solution):
            s.attrs["rank"] = solution.rank
            s.attrs["n"] = len(solution.coeffs)

        def on_kernel(s, out):
            s.attrs["nbytes"] = int(np.asarray(out).nbytes)

        patches = [
            (runner, "adjust", "adjust.adjust", {}),
            (runner, "sasaki", "adjust.sasaki", {}),
            (runner, "midpoint_rule", "fields.midpoint_rule", {}),
            (runner, "divergence_fd", "fields.divergence_fd", {"caller": "runner"}),
            (adjust, "adjust_full", "adjust.adjust_full", {}),
            (adjust, "midpoint_rule", "fields.midpoint_rule", {}),
            (adjust, "divergence_fd", "fields.divergence_fd", {"caller": "adjust"}),
            (adjust, "grid_centers", "geometry.grid_centers", {}),
            (adjust, "assemble", "collocation.assemble", {"before": on_assemble}),
            (adjust, "factorize_and_solve", "collocation.solve", {"after": on_solve}),
        ]
        patches += [(collocation, k, f"kernel.{k}", {"after": on_kernel}) for k in KERNELS]

        def on_eval(s, args):
            solution, pts = args[0], np.asarray(args[1])
            points = 1 if pts.ndim == 1 else len(pts)
            s.attrs["pairs"] = points * len(solution.coeffs) if solution.coeffs.any() else 0

        cls = collocation.MultiplierSolution
        patches += [(cls, m, f"collocation.eval.{m}", {"before": on_eval}) for m in EVAL_METHODS]

        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        try:
            for owner, attr, name, opts in patches:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, **opts))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")


def _outermost(spans: list[Span], by_id: dict[int, Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` that have no ancestor of the same prefix."""
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and p in by_id and not by_id[p].name.startswith(prefix):
            p = by_id[p].parent
        if p is None or p not in by_id:
            out.append(s)
    return out


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for the spans of one repetition (one runner call)."""
    by_id = {s.id: s for s in spans}
    own = _self_times(spans)

    def self_time(prefix: str) -> float:
        return sum(own[s.id] for s in spans if s.name.startswith(prefix))

    def total(prefix: str) -> float:
        return sum(s.duration for s in _outermost(spans, by_id, prefix))

    evals = _outermost(spans, by_id, "collocation.eval.")
    eval_incl = sum(s.duration for s in evals)
    eval_pairs = sum(s.attrs["pairs"] for s in evals)
    solves = [s for s in spans if s.name == "collocation.solve"]
    fd = [s for s in spans if s.name == "fields.divergence_fd"]
    kernels = [s for s in spans if s.name.startswith("kernel.")]
    return {
        "config.parse_s": total("config.parse_config"),
        "fields.quadrature_s": total("fields.midpoint_rule"),
        "geometry.grid_centers_s": total("geometry.grid_centers"),
        "collocation.assemble_s": self_time("collocation.assemble"),
        "collocation.assemble_pairs": sum(
            s.attrs["pairs"] for s in spans if s.name == "collocation.assemble"
        ),
        "collocation.solve_s": self_time("collocation.solve"),
        "collocation.rank_kept_frac": (
            sum(s.attrs["rank"] for s in solves) / sum(s.attrs["n"] for s in solves)
            if solves else 0.0
        ),
        "collocation.eval_s": self_time("collocation.eval."),
        "collocation.eval_incl_s": eval_incl,
        "collocation.eval_calls": len(evals),
        "collocation.eval_pairs": eval_pairs,
        "collocation.eval_pairs_per_s": eval_pairs / eval_incl if eval_incl > 0 else 0.0,
        "kernel.s": sum(s.duration for s in kernels),
        "kernel.block_bytes_max": max((s.attrs["nbytes"] for s in kernels), default=0),
        "fields.divergence_fd_calls.adjust": sum(1 for s in fd if s.attrs["caller"] == "adjust"),
        "fields.divergence_fd_calls.runner": sum(1 for s in fd if s.attrs["caller"] == "runner"),
        "fields.divergence_fd_s": total("fields.divergence_fd"),
        "adjust.self_s": self_time("adjust."),
        "runner.self_s": self_time("runner."),
    }


def largest_self_layer(spans: list[Span]) -> str:
    """The layer (name prefix before the first dot) with the most self time."""
    own = _self_times(spans)
    per_layer: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + own[s.id]
    return max(per_layer, key=per_layer.get)
