"""Flat key = value experiment configuration: parsing, validation, echo.

The format is one ``key = value`` per line, ``#`` comments, and arrays as
comma-separated values. Unknown and duplicate keys are hard errors carrying
the offending line number, as are invariant violations. All numeric parsing
goes through ``float``/``int`` and is locale independent.

``echo_config`` renders every resolved setting back into the same format
with full round-trip precision, so re-parsing an echo file reproduces the
configuration exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .adjust import (
    FIELD_DIRICHLET,
    FLOW_THROUGH,
    MINIMIZER,
    NO_FLOW_THROUGH,
    ORACLE_NEUMANN,
    CLOSED_FORM,
)
from .errors import ConfigurationError
from .fields import example_field, validate_weights
from .geometry import BoxDomain

__all__ = ["ExperimentConfig", "parse_config", "echo_config", "write_echo"]

_EXAMPLES = ("ex51", "ex52", "ex53")
_BASES = ("zero", "inject", "inject+vertical", "vertical")
_BC_KINDS = (FLOW_THROUGH, NO_FLOW_THROUGH, FIELD_DIRICHLET, ORACLE_NEUMANN)
_FORMULAS = (MINIMIZER, CLOSED_FORM)
_TOPOGRAPHIES = ("off", "hill")

_FACE_KEYS = ("bc_bottom", "bc_top", "bc_xmin", "bc_xmax", "bc_ymin", "bc_ymax")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings; every field has a concrete value."""

    example: str
    grid_sizes: tuple[int, ...]
    shape: float
    eps: float = 0.1
    domain: tuple[float, float, float, float, float, float] = (-2.0, 2.0, -2.0, 2.0, 0.0, 2.0)
    topography: str = "off"
    hill_amplitude: float = 0.0
    hill_width: float = 1.0
    s_entries: tuple[float, ...] = (1.0, 0.0, 0.0, 1.0)
    base: str = "zero"
    w_b: float = 1.0
    bc_bottom: str = FLOW_THROUGH
    bc_top: str = FLOW_THROUGH
    bc_xmin: str = FLOW_THROUGH
    bc_xmax: str = FLOW_THROUGH
    bc_ymin: str = FLOW_THROUGH
    bc_ymax: str = FLOW_THROUGH
    formula: str = MINIMIZER
    trunc_tol: float = 1e-12
    quad: int = 32
    iterations: int = 1
    out: str = "results"

    @property
    def sasaki_mode(self) -> bool:
        return len(self.s_entries) == 9

    def weight_matrix(self) -> np.ndarray:
        dim = 3 if self.sasaki_mode else 2
        return np.asarray(self.s_entries, dtype=float).reshape(dim, dim)

    def box(self) -> BoxDomain:
        return BoxDomain(*self.domain)


def _split_values(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip() != ""]


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: not a number: {raw!r}", line) from None
    if not np.isfinite(value):
        raise ConfigurationError(f"{key}: not a finite number: {raw!r}", line)
    return value


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: not an integer: {raw!r}", line) from None


def _require_choice(value: str, choices: tuple[str, ...], key: str, line: int) -> str:
    if value not in choices:
        raise ConfigurationError(f"{key}: expected one of {choices}, got {value!r}", line)
    return value


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file into a resolved ExperimentConfig."""
    if not os.path.isfile(path):
        raise ConfigurationError(f"configuration file not found: {path}")
    raw: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(f"expected 'key = value', got {text!r}", lineno)
            key, value = (part.strip() for part in text.split("=", 1))
            if key in raw:
                raise ConfigurationError(f"duplicate key {key!r}", lineno)
            raw[key] = (value, lineno)

    known = {f.name for f in fields(ExperimentConfig)} - {"grid_sizes", "s_entries", "shape"}
    known |= {"n", "c", "s", "bc"}
    for key, (_, lineno) in raw.items():
        if key not in known:
            raise ConfigurationError(f"unknown key {key!r}", lineno)

    def take(key: str) -> tuple[str, int] | None:
        return raw.get(key)

    got = take("example")
    if got is None:
        raise ConfigurationError("missing required key 'example'")
    example = _require_choice(got[0], _EXAMPLES, "example", got[1])

    got = take("eps")
    eps = _parse_float(got[0], "eps", got[1]) if got else 0.1
    if not eps > 0:
        raise ConfigurationError("eps must be positive", got[1])

    got = take("n")
    if got is None:
        raise ConfigurationError("missing required key 'n'")
    grid_sizes = tuple(_parse_int(v, "n", got[1]) for v in _split_values(got[0]))
    if not grid_sizes or any(n < 2 for n in grid_sizes):
        raise ConfigurationError("grid sizes must all be at least 2", got[1])

    got = take("c")
    if got is None:
        raise ConfigurationError("missing required key 'c'")
    shape = _parse_float(got[0], "c", got[1])
    if not shape > 0:
        raise ConfigurationError("c must be positive", got[1])

    case = example_field(example, eps=eps)
    got = take("domain")
    if got is None:
        domain = case.domain.bounds
    else:
        vals = tuple(_parse_float(v, "domain", got[1]) for v in _split_values(got[0]))
        if len(vals) != 6:
            raise ConfigurationError("domain needs 6 values: xmin,xmax,ymin,ymax,zmin,zmax", got[1])
        for k in range(3):
            if not vals[2 * k] < vals[2 * k + 1]:
                raise ConfigurationError("domain bounds must satisfy lower < upper per axis", got[1])
        domain = vals

    got = take("topography")
    topography = _require_choice(got[0], _TOPOGRAPHIES, "topography", got[1]) if got else "off"
    got = take("hill_amplitude")
    hill_amplitude = (
        _parse_float(got[0], "hill_amplitude", got[1]) if got else 0.2 * (domain[5] - domain[4])
    )
    got = take("hill_width")
    hill_width = (
        _parse_float(got[0], "hill_width", got[1])
        if got
        else 0.25 * min(domain[1] - domain[0], domain[3] - domain[2])
    )
    if topography == "hill":
        if not 0 <= hill_amplitude < domain[5] - domain[4]:
            raise ConfigurationError("hill_amplitude must lie in [0, domain height)")
        if not hill_width > 0:
            raise ConfigurationError("hill_width must be positive")

    got = take("s")
    if got is None:
        s_entries = (1.0, 0.0, 0.0, 1.0)
    else:
        s_entries = tuple(_parse_float(v, "s", got[1]) for v in _split_values(got[0]))
        if len(s_entries) not in (4, 9):
            raise ConfigurationError("s needs 4 entries (2x2) or 9 entries (3x3)", got[1])
        dim = 2 if len(s_entries) == 4 else 3
        try:
            validate_weights(np.asarray(s_entries).reshape(dim, dim), dim)
        except Exception as exc:
            raise ConfigurationError(f"s: {exc}", got[1]) from None

    got = take("base")
    base = _require_choice(got[0], _BASES, "base", got[1]) if got else "zero"
    got = take("w_b")
    w_b = _parse_float(got[0], "w_b", got[1]) if got else 1.0

    bc_values = {}
    got = take("bc")
    default_bc = _require_choice(got[0], _BC_KINDS, "bc", got[1]) if got else FLOW_THROUGH
    for key in _FACE_KEYS:
        got = take(key)
        bc_values[key] = _require_choice(got[0], _BC_KINDS, key, got[1]) if got else default_bc

    got = take("formula")
    formula = _require_choice(got[0], _FORMULAS, "formula", got[1]) if got else MINIMIZER

    got = take("trunc_tol")
    trunc_tol = _parse_float(got[0], "trunc_tol", got[1]) if got else 1e-12
    if not trunc_tol > 0:
        raise ConfigurationError("trunc_tol must be positive", got[1])

    got = take("quad")
    quad = _parse_int(got[0], "quad", got[1]) if got else 32
    if quad < 1:
        raise ConfigurationError("quad must be at least 1", got[1])

    got = take("iterations")
    iterations = _parse_int(got[0], "iterations", got[1]) if got else 1
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1", got[1])

    got = take("out")
    out = got[0] if got else "results"

    return ExperimentConfig(
        example=example,
        grid_sizes=grid_sizes,
        shape=shape,
        eps=eps,
        domain=domain,
        topography=topography,
        hill_amplitude=hill_amplitude,
        hill_width=hill_width,
        s_entries=s_entries,
        base=base,
        w_b=w_b,
        formula=formula,
        trunc_tol=trunc_tol,
        quad=quad,
        iterations=iterations,
        out=out,
        **bc_values,
    )


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: ExperimentConfig) -> str:
    """Render every resolved setting in the parseable flat format."""
    lines = []
    order = [
        ("example", cfg.example),
        ("n", cfg.grid_sizes),
        ("c", cfg.shape),
        ("eps", cfg.eps),
        ("domain", cfg.domain),
        ("topography", cfg.topography),
        ("hill_amplitude", cfg.hill_amplitude),
        ("hill_width", cfg.hill_width),
        ("s", cfg.s_entries),
        ("base", cfg.base),
        ("w_b", cfg.w_b),
        ("bc_bottom", cfg.bc_bottom),
        ("bc_top", cfg.bc_top),
        ("bc_xmin", cfg.bc_xmin),
        ("bc_xmax", cfg.bc_xmax),
        ("bc_ymin", cfg.bc_ymin),
        ("bc_ymax", cfg.bc_ymax),
        ("formula", cfg.formula),
        ("trunc_tol", cfg.trunc_tol),
        ("quad", cfg.quad),
        ("iterations", cfg.iterations),
        ("out", cfg.out),
    ]
    for key, value in order:
        lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def write_echo(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(echo_config(cfg))
