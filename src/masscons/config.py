"""Flat key = value experiment configuration: parsing, validation, echo.

The format is one ``key = value`` per line, ``#`` comments, and arrays as
comma-separated values. Every setting's default, value type, bounds and
choices are declared once, on its :class:`ExperimentConfig` field, and the
class checks them on construction. ``parse_config`` only types the stated
values and adds the offending key's line number to an error; unknown and
duplicate keys are hard errors with a line number too. All numeric parsing
goes through ``int``/``float`` and is locale independent.

``echo_config`` renders every resolved setting back into the same format
with full round-trip precision, so re-parsing an echo file reproduces the
configuration exactly.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .adjust import FACE_POLICIES, FLOW_THROUGH, FORMULAS, MINIMIZER, FaceBcPolicy
from .collocation import DEFAULT_TRUNC_TOL
from .errors import ConfigurationError, ContractError, DomainError
from .fields import DEFAULT_QUAD, example_field, validate_weights
from .geometry import BoxDomain, Topography
from .kernel import KernelParams

__all__ = ["ExperimentConfig", "KEY_FIELDS", "parse_config", "parse_values", "echo_config", "write_echo"]

_FACE_KEYS = tuple(f"bc_{f.name}" for f in fields(FaceBcPolicy))
# Config keys whose name differs from their ExperimentConfig field; every other
# field is its own key, and the echo follows the field order.
_KEYS = {"grid_sizes": "n", "shape": "c", "s_entries": "s"}
# Settings of the horizontal line search; full-observation mode (9-entry s)
# starts from zero and takes a unit closed-form step, so it rejects them.
_HORIZONTAL_KEYS = ("base", "w_b", "formula")
_FULL_MODE_UNUSED = "not used in full-observation mode (9-entry s)"


def _setting(default=MISSING, kind=float, many=False, above=None, below=None, choices=None):
    """A config field: its default, the type of one value, whether it holds a
    tuple of values, the open bounds a number must lie in and the choices of a text."""
    return field(
        default=default,
        metadata={"kind": kind, "many": many, "above": above, "below": below, "choices": choices},
    )


def _fail(key: str, message) -> ConfigurationError:
    return ConfigurationError(f"{key}: {message}", key=key)


def _checked(key: str, value, kind, many, above, below, choices):
    """``value`` as its field's type, or ConfigurationError naming ``key``."""
    if many:
        try:
            values = tuple(value)
        except TypeError:
            raise _fail(key, f"expected comma-separated values, got {value!r}") from None
        if not values:
            raise _fail(key, "needs at least one value")
        return tuple(_checked(key, v, kind, False, above, below, choices) for v in values)
    if kind is str:
        if not isinstance(value, str):
            raise _fail(key, f"not text: {value!r}")
        if choices is not None and value not in choices:
            raise _fail(key, f"expected one of {choices}, got {value!r}")
        return value
    if kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise _fail(key, f"not an integer: {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _fail(key, f"not a number: {value!r}")
    value = kind(value)
    if not math.isfinite(value):
        raise _fail(key, f"not a finite number: {value!r}")
    if (above is not None and not value > above) or (below is not None and not value < below):
        bound = f"greater than {above}" if below is None else f"in ({above}, {below})"
        raise _fail(key, f"must be {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings, checked and resolved on construction.

    Each field declares its default and what its values must meet; a value
    that does not raises ConfigurationError naming the config key. Grid
    sizes must be distinct, ``quad`` even, ``out`` text the echo writes back
    (nonempty, no ``#``, CR, LF or edge whitespace), and in full-observation
    mode ``base``, ``w_b`` and ``formula`` at their defaults. Floats must be
    finite, and so must the box diameter D, the kernels' s^(5/2) at
    s = 1 + c^2 D^2 and, on hill terrain, D / hill_width^2. ``domain``,
    ``hill_amplitude`` and ``hill_width`` default to None, resolved to the
    example's box, 20 % of the box height and 25 % of its smaller
    horizontal extent, so a constructed config equals what
    ``parse_config`` returns for a file stating the same keys. The resolved
    values are stored: ``replace`` with another example or domain keeps them.
    """

    example: str = _setting(kind=str)  # an id of fields.example_field
    grid_sizes: tuple[int, ...] = _setting(kind=int, many=True, above=2)
    shape: float = _setting(above=0.0)
    eps: float = _setting(0.1, above=0.0)
    domain: tuple[float, float, float, float, float, float] | None = _setting(None, many=True)
    topography: str = _setting("off", kind=str, choices=("off", "hill"))
    hill_amplitude: float | None = _setting(None)  # in [0, box height)
    hill_width: float | None = _setting(None, above=0.0)
    s_entries: tuple[float, ...] = _setting((1.0, 0.0, 0.0, 1.0), many=True)  # 2x2 or 3x3, SPD
    base: str = _setting("zero", kind=str, choices=("zero", "vertical"))
    w_b: float = _setting(1.0)  # the updraft of base = vertical
    bc_bottom: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    bc_top: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    bc_xmin: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    bc_xmax: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    bc_ymin: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    bc_ymax: str = _setting(FLOW_THROUGH, kind=str, choices=FACE_POLICIES)
    formula: str = _setting(MINIMIZER, kind=str, choices=FORMULAS)
    # The solve's dgelsd, on the sketch's projection or on G, treats trunc_tol >= 1 as
    # machine epsilon and keeps every direction.
    trunc_tol: float = _setting(DEFAULT_TRUNC_TOL, above=0.0, below=1.0)
    quad: int = _setting(DEFAULT_QUAD, kind=int, above=0)  # Gauss points per axis, even
    out: str = _setting("results", kind=str)

    def __post_init__(self):
        def resolve(name, value):
            object.__setattr__(self, name, value)

        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                resolve(f.name, _checked(_KEYS.get(f.name, f.name), value, **f.metadata))
        if not self.out or self.out != self.out.strip() or any(ch in self.out for ch in "#\r\n"):
            # the echo writes out back as one line, stripped, cut at '#'
            raise _fail("out", f"must be nonempty, without '#', CR, LF or edge whitespace, got {self.out!r}")
        if self.quad % 2:
            raise _fail("quad", f"must be even (two Gauss points per cell), got {self.quad!r}")
        if len(set(self.grid_sizes)) != len(self.grid_sizes):
            # a row's output files (field_N*.csv, gram_N*.txt) are named by its grid size
            raise _fail("n", f"grid sizes must be distinct, got {self.grid_sizes!r}")
        try:
            case = example_field(self.example, eps=self.eps)
        except ConfigurationError as exc:
            raise _fail("example", exc) from None

        if self.domain is None:
            resolve("domain", tuple(float(b) for b in case.domain.bounds))
        elif len(self.domain) != 6:
            raise _fail("domain", "needs 6 values: xmin,xmax,ymin,ymax,zmin,zmax")
        try:  # the flat box, as the hill's defaults resolve below
            with np.errstate(over="ignore"):
                diameter = BoxDomain(*self.domain).diameter()
        except ConfigurationError:
            raise _fail("domain", "bounds must satisfy lower < upper per axis") from None
        if not math.isfinite(diameter):
            raise _fail("domain", f"the box diameter overflows: {diameter!r}")
        try:
            KernelParams(self.shape).require_finite_over(diameter)
        except DomainError as exc:
            raise _fail("c", exc) from None
        xmin, xmax, ymin, ymax, zmin, zmax = self.domain
        if self.hill_amplitude is None:
            resolve("hill_amplitude", 0.2 * (zmax - zmin))
        if self.hill_width is None:
            resolve("hill_width", 0.25 * min(xmax - xmin, ymax - ymin))
        if not 0 <= self.hill_amplitude < zmax - zmin:
            raise _fail("hill_amplitude", f"must lie in [0, domain height), got {self.hill_amplitude!r}")
        width2 = self.hill_width * self.hill_width
        if self.topography == "hill" and not (0 < width2 < math.inf and math.isfinite(diameter / width2)):
            raise _fail(
                "hill_width",
                f"hill_width^2 and the box diameter over it must be positive and finite, got {self.hill_width!r}",
            )

        if len(self.s_entries) not in (4, 9):
            raise _fail("s", "needs 4 entries (2x2) or 9 entries (3x3)")
        try:
            validate_weights(self.weight_matrix())
        except ContractError as exc:
            raise _fail("s", exc) from None
        for f in fields(self):
            if self.sasaki_mode and f.name in _HORIZONTAL_KEYS and getattr(self, f.name) != f.default:
                raise _fail(f.name, _FULL_MODE_UNUSED)

    @property
    def sasaki_mode(self) -> bool:
        return len(self.s_entries) == 9

    @property
    def base_updraft(self) -> float:
        """The updraft w_b the line search starts from: ``w_b`` for a vertical base, else 0."""
        return self.w_b if self.base == "vertical" else 0.0

    def weight_matrix(self) -> np.ndarray:
        dim = 3 if self.sasaki_mode else 2
        return np.asarray(self.s_entries, dtype=float).reshape(dim, dim)

    def box(self) -> BoxDomain:
        """The domain box; on ``topography = hill`` its terrain is a Gaussian hill centred on the box."""
        if self.topography != "hill":
            return BoxDomain(*self.domain)
        xmin, xmax, ymin, ymax, zmin, _ = self.domain
        x0, y0 = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        amp, width = self.hill_amplitude, self.hill_width

        def height(x, y):
            return zmin + amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)

        def grad(x, y):
            bump = amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)
            return np.stack([-2.0 * (x - x0) / width**2 * bump, -2.0 * (y - y0) / width**2 * bump], axis=-1)

        return BoxDomain(*self.domain, terrain=Topography(height=height, grad=grad))


# Config key -> ExperimentConfig field.
KEY_FIELDS = {_KEYS.get(f.name, f.name): f for f in fields(ExperimentConfig)}


def _typed(kind, raw: str):
    """``raw`` as one value of ``kind``; text that does not convert is kept, for the config to reject."""
    if kind is str:
        return raw
    for convert in (int, float) if kind is int else (float,):
        try:
            return convert(raw)
        except ValueError:
            pass
    return raw


def parse_values(key: str, raw: str) -> list:
    """The comma-separated values of config key ``key``, each typed as one value of its field."""
    kind = KEY_FIELDS[key].metadata["kind"]
    return [_typed(kind, part.strip()) for part in raw.split(",") if part.strip() != ""]


def parse_config(path) -> ExperimentConfig:
    """Parse a configuration file into a checked ExperimentConfig."""
    if not os.path.isfile(path):
        raise ConfigurationError(f"configuration file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"configuration file not readable: {path} ({exc})") from None
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigurationError(f"expected 'key = value', got {text!r}", lineno)
        key, value = (part.strip() for part in text.split("=", 1))
        if key in raw:
            raise ConfigurationError(f"duplicate key {key!r}", lineno)
        if key not in KEY_FIELDS and key != "bc":
            raise ConfigurationError(f"unknown key {key!r}", lineno)
        raw[key] = (value, lineno)

    for key, f in KEY_FIELDS.items():
        if f.default is MISSING and key not in raw:
            raise ConfigurationError(f"missing required key {key!r}")
    if "bc" in raw:  # shorthand for every face not stated on its own line
        shorthand = raw.pop("bc")
        for key in _FACE_KEYS:
            raw.setdefault(key, shorthand)

    values = {}
    for key, (text, _) in raw.items():
        f = KEY_FIELDS[key]
        many, kind = f.metadata["many"], f.metadata["kind"]
        values[f.name] = tuple(parse_values(key, text)) if many else _typed(kind, text)
    try:
        cfg = ExperimentConfig(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(str(exc), raw[exc.key][1] if exc.key in raw else None) from None
    if cfg.sasaki_mode:
        for key in _HORIZONTAL_KEYS:
            if key in raw:
                raise ConfigurationError(f"{key}: {_FULL_MODE_UNUSED}", raw[key][1])
    return cfg


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: ExperimentConfig) -> str:
    """Render every resolved setting in the parseable flat format.

    Full-observation mode omits the horizontal-only settings it rejects.
    """
    skip = _HORIZONTAL_KEYS if cfg.sasaki_mode else ()
    return "".join(
        f"{_KEYS.get(f.name, f.name)} = {_fmt_value(getattr(cfg, f.name))}\n"
        for f in fields(cfg)
        if f.name not in skip
    )


def write_echo(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(echo_config(cfg))
