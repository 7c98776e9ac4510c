import csv
import gc
import importlib
import math
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict, replace
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from masscons.adjust import _DESCENT_RTOL, Problem
from masscons.cli import main
from masscons.collocation import _sci
from masscons.config import ExperimentConfig, echo_config, parse_config, parse_values
from masscons.errors import ConfigurationError, DomainError, MassconsError
from masscons.fields import Quadrature, example_field, midpoint_rule
from masscons.geometry import BoxDomain, FaceLabel, grid_centers
from masscons.runner import (
    _FIELD_BLOCK_ROWS, TABLE_COLUMNS, TableRow, _format_cells, _problem, _quadrature, _run_one, _write_csv,
    _write_fields, dump_gram_for_config, run_experiment, sweep, write_reference_comparison,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MINIMAL = "example = ex51\nn = 3,5,8\nc = 0.001\n"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def fast_cfg_text(out, extra=""):
    return (
        "example = ex51\n"
        "n = 3,4\n"
        "c = 0.1\n"
        "bc_bottom = no-flow-through\n"
        "quad = 8\n"
        f"out = {out}\n" + extra
    )


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.example == "ex51"
    assert cfg.grid_sizes == (3, 5, 8)
    assert cfg.shape == 0.001
    assert cfg.formula == "minimizer"  # documented default
    assert cfg.domain == (-2.0, 2.0, -2.0, 2.0, 0.0, 2.0)  # resolved from the example
    assert not cfg.sasaki_mode


def test_parse_missing_file():
    with pytest.raises(ConfigurationError):
        parse_config("/nonexistent/experiment.cfg")


def test_parse_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        parse_config(write_cfg(tmp_path, "example = ex51\nn = 3\nc = -1\n"))
    assert "line 3" in str(err.value)

    with pytest.raises(ConfigurationError) as err:
        parse_config(write_cfg(tmp_path, "example = ex51\nn = 3\nc = 1\nshape_c = 2\n"))
    assert "line 4" in str(err.value) and "unknown key" in str(err.value)

    with pytest.raises(ConfigurationError):
        parse_config(write_cfg(tmp_path, "example = ex51\nn = 1,3\nc = 1\n"))

    with pytest.raises(ConfigurationError):
        parse_config(write_cfg(tmp_path, "example = ex51\nn = 3\nc = 1\nc = 2\n"))

    with pytest.raises(ConfigurationError):
        parse_config(write_cfg(tmp_path, "example = ex51\nn = 3\nc = 1\ns = 1,0,0,-1\n"))


def test_odd_quad_is_a_configuration_error(tmp_path):
    # the run's rule takes two Gauss points per cell, so an odd count per axis has none
    path = write_cfg(tmp_path, "example = ex51\nn = 3\nc = 0.1\nquad = 5\n")
    with pytest.raises(ConfigurationError, match=r"line 4: quad: must be even \(two Gauss points per cell\), got 5"):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_repeated_grid_size_is_a_configuration_error(tmp_path):
    # field_N3.csv would be written twice, through two handles open at once
    path = write_cfg(tmp_path, "example = ex51\nn = 3,4,3\nc = 0.1\nquad = 4\n")
    with pytest.raises(ConfigurationError, match=r"line 2: n: grid sizes must be distinct, got \(3, 4, 3\)"):
        parse_config(path)
    with pytest.raises(ConfigurationError, match="^n: grid sizes must be distinct"):
        ExperimentConfig("ex51", (3, 4, 3), 0.1)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("w_b", "nan"), ("eps", "inf"), ("c", "inf"), ("trunc_tol", "nan"), ("domain", "-inf,2,-2,2,0,2")],
)
def test_parse_rejects_non_finite_numbers(tmp_path, key, value):
    text = "example = ex53\nn = 3\n" + ("" if key == "c" else "c = 0.1\n") + f"{key} = {value}\n"
    path = write_cfg(tmp_path, text)
    line = text.count("\n")
    with pytest.raises(ConfigurationError, match=f"line {line}: {key}: not a finite number"):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("example", ["ex51", "ex52", "ex53"])
def test_direct_construction_equals_parsed_minimal_file(tmp_path, example):
    # the example's box and the hill defaults drawn from it are resolved in one place
    cfg = parse_config(write_cfg(tmp_path, f"example = {example}\nn = 4\nc = 0.01\n"))
    assert ExperimentConfig(example, (4,), 0.01) == cfg
    assert echo_config(ExperimentConfig(example, (4,), 0.01)) == echo_config(cfg)


def test_box_carries_the_configured_terrain():
    # On a hill config the box's bottom node under the box centre lies on the
    # hill's top, zmin + hill_amplitude; a flat config's box is the plain box.
    cfg = ExperimentConfig("ex53", (3,), 0.01, topography="hill", hill_amplitude=1.25)
    nodes = grid_centers(cfg.box(), 3)
    centre = (nodes.points[:, 0] == 0.0) & (nodes.points[:, 1] == 0.0) & (nodes.labels == FaceLabel.BOTTOM)
    assert nodes.points[centre, 2].tolist() == [cfg.domain[4] + 1.25]
    # the terrain is the config's, so a variant with another shape has the same one
    pts = np.random.default_rng(3).uniform(-7.0, 7.0, (50, 2))
    terrains = [replace(cfg, shape=c).box().terrain for c in (0.01, 0.5)]
    for name in ("height", "grad"):
        first, second = (getattr(t, name)(pts[:, 0], pts[:, 1]) for t in terrains)
        np.testing.assert_array_equal(first, second)
    assert replace(cfg, topography="off").box() == BoxDomain(*cfg.domain)
    flat = ExperimentConfig("ex51", (3,), 0.01)
    assert flat.box() == BoxDomain(*flat.domain) and flat.box().terrain is None


INF, NAN = float("inf"), float("nan")
OUT_OF_RANGE = [
    (key, text, value)
    for key in ("c", "eps", "trunc_tol", "n", "quad")
    for text, value in (("0", 0), ("-1", -1), ("inf", INF), ("nan", NAN))
] + [("trunc_tol", "1", 1), ("trunc_tol", "2", 2.0), ("quad", "5", 5)] + [
    ("c", text, float(text)) for text in ("1e155", "1e-200")  # c^2 overflows to inf, underflows to 0
] + [
    (key, "bogus", "bogus")
    for key in ("example", "topography", "base", "formula", "bc_bottom", "bc_top", "bc_xmin",
                "bc_xmax", "bc_ymin", "bc_ymax")
]


@pytest.mark.parametrize("key, text, value", OUT_OF_RANGE)
def test_construction_rejects_what_the_parser_rejects(tmp_path, key, text, value):
    stated = {"example": "ex51", "n": "3", "c": "0.1", key: text}
    path = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in stated.items()))
    line = list(stated).index(key) + 1
    with pytest.raises(ConfigurationError) as parsed:
        parse_config(path)
    field = {"n": "grid_sizes", "c": "shape"}.get(key, key)
    stated = {"example": "ex51", "grid_sizes": (3,), "shape": 0.1}
    stated[field] = (value,) if key == "n" else value
    with pytest.raises(ConfigurationError) as built:
        ExperimentConfig(**stated)
    assert str(built.value).startswith(f"{key}: ")
    assert str(parsed.value) == f"line {line}: {built.value}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("example = ex51\nn = 3\n", "^missing required key 'c'$"),
        ("example = ex51\nn 3\nc = 0.1\n", "^line 2: expected 'key = value', got 'n 3'$"),
        ("example = ex51\nn = ,\nc = 0.1\n", "^line 2: n: needs at least one value$"),
        (MINIMAL + "domain = 0,1,0,1,0\n", "^line 4: domain: needs 6 values: xmin,xmax,ymin,ymax,zmin,zmax$"),
        (MINIMAL + "domain = 0,1,1,0,0,1\n", "^line 4: domain: bounds must satisfy lower < upper per axis$"),
        (MINIMAL + "hill_amplitude = 5\n", r"^line 4: hill_amplitude: must lie in \[0, domain height\), got 5\.0$"),
        (MINIMAL + "s = 1,0,0,1,0\n", r"^line 4: s: needs 4 entries \(2x2\) or 9 entries \(3x3\)$"),
    ],
    ids=["missing-key", "no-equals", "empty-n", "5-value-domain", "inverted-domain", "hill-too-high", "5-entry-s"],
)
def test_parse_rejects_malformed_config(tmp_path, text, message):
    # ex51's box is 2 high, so a 5-high hill does not fit under its top
    with pytest.raises(ConfigurationError, match=message):
        parse_config(write_cfg(tmp_path, text))


def test_construction_rejects_an_example_that_is_not_text():
    with pytest.raises(ConfigurationError, match="^example: not text: 3$") as err:
        ExperimentConfig(example=3, grid_sizes=(3,), shape=0.1)
    assert err.value.key == "example"


def test_construction_rejects_grid_sizes_that_are_not_a_sequence():
    with pytest.raises(ConfigurationError, match="^n: expected comma-separated values, got 3$") as err:
        ExperimentConfig(example="ex51", grid_sizes=3, shape=0.1)
    assert err.value.key == "n"


def test_sweep_over_no_values_is_a_configuration_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="^sweep needs at least one value$"):
        sweep(ExperimentConfig("ex51", (3,), 0.1), "c", [], out_override=str(out))
    assert not out.exists()


def test_run_into_a_file_is_a_configuration_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(ConfigurationError) as err:
        run_experiment(ExperimentConfig("ex51", (3,), 0.1), out_override=str(taken))
    assert str(err.value).startswith(f"output directory not writable: {taken} (")
    assert taken.read_text() == ""


def test_bc_shorthand_and_override(tmp_path):
    text = MINIMAL + "bc = no-flow-through\nbc_top = flow-through\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.bc_bottom == "no-flow-through"
    assert cfg.bc_xmin == "no-flow-through"
    assert cfg.bc_top == "flow-through"


def test_echo_round_trips(tmp_path):
    source = write_cfg(
        tmp_path,
        MINIMAL + "s = 2,0.1,0.1,1\nbase = vertical\nw_b = 0.75\ntrunc_tol = 1e-10\n",
    )
    cfg = parse_config(source)
    echoed = write_cfg(tmp_path, echo_config(cfg), name="echo.cfg")
    assert parse_config(echoed) == cfg


def test_sasaki_mode_from_weight_size(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL + "s = 1,0,0,0,1,0,0,0,1\n"))
    assert cfg.sasaki_mode
    assert cfg.weight_matrix().shape == (3, 3)
    echoed = write_cfg(tmp_path, echo_config(cfg), name="echo.cfg")
    assert parse_config(echoed) == cfg


def test_echo_literal_text(tmp_path):
    # The echo order follows the ExperimentConfig fields; the round trips
    # above hold for any order, so the text is pinned here.
    horizontal = MINIMAL + "s = 2,0.1,0.1,1\nbase = vertical\nw_b = 0.75\nbc = no-flow-through\n"
    horizontal += "bc_top = flow-through\ntrunc_tol = 1e-10\n"
    assert echo_config(parse_config(write_cfg(tmp_path, horizontal))) == (
        "example = ex51\nn = 3,5,8\nc = 0.001\neps = 0.1\ndomain = -2.0,2.0,-2.0,2.0,0.0,2.0\ntopography = off\n"
        "hill_amplitude = 0.4\nhill_width = 1.0\ns = 2.0,0.1,0.1,1.0\nbase = vertical\nw_b = 0.75\n"
        "bc_bottom = no-flow-through\nbc_top = flow-through\nbc_xmin = no-flow-through\n"
        "bc_xmax = no-flow-through\nbc_ymin = no-flow-through\nbc_ymax = no-flow-through\n"
        "formula = minimizer\ntrunc_tol = 1e-10\nquad = 16\nout = results\n"
    )
    full = (
        "example = ex53\nn = 4\nc = 0.01\nquad = 8\ntopography = hill\n"
        "s = 2,0.5,0,0.5,1.5,0,0,0,1\nbc_bottom = no-flow-through\nout = res/ex53\n"
    )
    assert echo_config(parse_config(write_cfg(tmp_path, full))) == (
        "example = ex53\nn = 4\nc = 0.01\neps = 0.1\ndomain = -7.0,7.0,-7.0,7.0,0.0,7.0\ntopography = hill\n"
        "hill_amplitude = 1.4000000000000001\nhill_width = 3.5\n"
        "s = 2.0,0.5,0.0,0.5,1.5,0.0,0.0,0.0,1.0\nbc_bottom = no-flow-through\nbc_top = flow-through\n"
        "bc_xmin = flow-through\nbc_xmax = flow-through\nbc_ymin = flow-through\n"
        "bc_ymax = flow-through\ntrunc_tol = 1e-12\nquad = 8\nout = res/ex53\n"
    )


@st.composite
def spd_weights(draw, dim):
    """An ``s`` line: a dim x dim weight matrix, symmetric and diagonally dominant, so SPD."""
    off = draw(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
    s = np.diag(draw(st.lists(st.floats(1.0, 3.0), min_size=dim, max_size=dim)))
    s[np.triu_indices(dim, 1)] = off[: dim * (dim - 1) // 2]
    s = np.triu(s) + np.triu(s, 1).T
    return "s = " + ",".join(repr(float(v)) for v in s.ravel())


@st.composite
def config_texts(draw):
    """Config files over every example, with and without a domain and the hill keys."""
    example = draw(st.sampled_from(["ex51", "ex52", "ex53"]))
    sizes = draw(st.lists(st.integers(3, 9), min_size=1, max_size=3, unique=True))
    positive = st.floats(1e-3, 10.0)
    lines = [f"example = {example}", f"n = {','.join(map(str, sizes))}", f"c = {draw(positive)!r}"]
    bounds = example_field(example, eps=0.1).domain.bounds
    height = bounds[5] - bounds[4]
    if draw(st.booleans()):
        lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
        spans = draw(st.lists(st.floats(0.5, 10.0), min_size=3, max_size=3))
        lines.append("domain = " + ",".join(f"{lo!r},{lo + d!r}" for lo, d in zip(lows, spans)))
        height = (lows[2] + spans[2]) - lows[2]
    if draw(st.booleans()):
        lines.append("topography = hill")
    if draw(st.booleans()):
        lines.append(f"hill_amplitude = {draw(st.floats(0.0, 0.9)) * height!r}")
    if draw(st.booleans()):
        lines.append(f"hill_width = {draw(positive)!r}")
    dim = draw(st.sampled_from([2, 3]))
    lines.append(draw(spd_weights(dim)))
    if dim == 2 and draw(st.booleans()):
        lines += ["base = vertical", f"w_b = {draw(positive)!r}", "formula = closed-form"]
    if draw(st.booleans()):
        lines += ["bc = no-flow-through", "bc_top = oracle-neumann"]
    if draw(st.booleans()):
        lines.append(f"trunc_tol = {draw(st.floats(1e-15, 0.5))!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=config_texts())
def test_echo_is_a_fixed_point(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("echo")
    cfg = parse_config(write_cfg(folder, text))
    echo = echo_config(cfg)
    again = parse_config(write_cfg(folder, echo, name="echo.cfg"))
    assert again == cfg
    assert echo_config(again) == echo


def test_table_literal_columns_and_line(tmp_path):
    # TABLE_COLUMNS and csv_values both follow the TableRow fields; pinned
    # literally so that a reordered field fails here.
    assert TABLE_COLUMNS == (
        "N", "c", "kappa", "div_mean", "rel_error", "div_max", "t_c", "j_before", "j_after",
        "residual", "residual_norm", "trunc_tol", "oracle_bc", "rank", "error",
    )
    row = TableRow(
        n_nodes=27, shape=0.01, kappa=float("inf"), div_mean=-0.0, rel_error=5e-324,
        div_max=float("-inf"), t_c=1.25, j_before=0.1, j_after=float("nan"), residual=3e-17,
        residual_norm=1e300, trunc_tol=1e-12, oracle_bc=True, rank=None, wall_time=2.5,
        error="DomainError: grid of 8, too large",
    )
    path = tmp_path / "table.csv"
    _write_csv(path, TABLE_COLUMNS, [row.csv_values()])
    assert path.read_text().splitlines()[1] == (
        '27,1.e-02,inf,-0.e+00,5.e-324,-inf,1.25e+00,1.e-01,nan,3.e-17,1.e+300,1.e-12,1,nan,'
        '"DomainError: grid of 8, too large"'
    )


@pytest.mark.parametrize(
    "key, value", [("formula", "minimizer"), ("base", "vertical"), ("w_b", "4.0")]
)
def test_full_mode_rejects_horizontal_keys(tmp_path, key, value):
    # full observation has no base policy and a unit step; a key for those
    # would be echoed as applied while changing nothing
    path = write_cfg(tmp_path, MINIMAL + "s = 1,0,0,0,1,0,0,0,1\n" + f"{key} = {value}\n")
    with pytest.raises(ConfigurationError, match=f"line 5: {key}: not used in full-observation mode"):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "results"
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(out)))
    rows = run_experiment(cfg)
    assert [row.n_nodes for row in rows] == [27, 64]
    assert all(row.error == "" for row in rows)

    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == ",".join(TABLE_COLUMNS)
    assert TABLE_COLUMNS[-2:] == ("rank", "error")
    assert len(table) == 3
    for line, row in zip(table[1:], rows):
        assert 1 <= row.rank <= row.n_nodes
        assert line.split(",")[-2] == str(row.rank)
    assert (out / "timings.csv").exists()
    assert (out / "field_N3.csv").exists()
    assert (out / "field_N4.csv").exists()

    echoed = parse_config(out / "config.echo")
    assert echoed == replace(cfg, out=str(out))

    header = (out / "field_N3.csv").read_text().splitlines()[0]
    assert header == "x,y,z,u1,u2,u3,u1_exact,u2_exact,u3_exact,div"


def test_run_experiment_reproducible_bytes(tmp_path):
    cfg_a = parse_config(write_cfg(tmp_path, fast_cfg_text(tmp_path / "a"), name="a.cfg"))
    cfg_b = parse_config(write_cfg(tmp_path, fast_cfg_text(tmp_path / "b"), name="b.cfg"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    assert (tmp_path / "a" / "table.csv").read_bytes() == (tmp_path / "b" / "table.csv").read_bytes()
    assert (tmp_path / "a" / "field_N3.csv").read_bytes() == (tmp_path / "b" / "field_N3.csv").read_bytes()


FACES = ("bottom", "top", "xmin", "xmax", "ymin", "ymax")
# The errors a failed row may name: the package's own, and a LAPACK failure.
TYPED_ERRORS = {cls.__name__ for cls in MassconsError.__subclasses__()} | {"LinAlgError"}


@st.composite
def small_configs(draw):
    """One-row configs: ex51 or ex53, n = 3, quad 4, open or sealed faces, flat or hill terrain.

    ``s`` is an SPD 2x2 (horizontal data) or 3x3 (full observation). A
    horizontal config draws its base (zero, or vertical with a drawn w_b).
    ``oracle-neumann`` faces are left out: with a zero
    base field the starting objective is not that of a feasible field, so
    such a row may fail the descent check by design.
    """
    dim = draw(st.sampled_from([2, 3]))
    lines = [
        f"example = {draw(st.sampled_from(['ex51', 'ex53']))}", "n = 3", "quad = 4",
        f"c = {draw(st.floats(0.01, 1.0))!r}", draw(spd_weights(dim)),
    ]
    lines += [f"bc_{face} = {draw(st.sampled_from(['flow-through', 'no-flow-through']))}" for face in FACES]
    if draw(st.booleans()):
        lines.append("topography = hill")
    if dim == 2 and draw(st.booleans()):
        lines += ["base = vertical", f"w_b = {draw(st.floats(-3.0, 3.0))!r}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=small_configs())
def test_runs_are_deterministic_and_descend(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("run")
    cfg = parse_config(write_cfg(folder, text))
    rows = run_experiment(cfg, out_override=str(folder / "a"))
    run_experiment(cfg, out_override=str(folder / "b"))
    names = sorted(p.name for p in (folder / "a").glob("*.csv") if p.name != "timings.csv")
    assert names == sorted(p.name for p in (folder / "b").glob("*.csv") if p.name != "timings.csv")
    for name in names:
        assert (folder / "a" / name).read_bytes() == (folder / "b" / name).read_bytes()
    for row in rows:
        if row.error:
            assert row.error.split(":")[0] in TYPED_ERRORS
            continue
        assert (folder / "a" / "field_N3.csv").exists()
        values = [v for v in asdict(row).values() if isinstance(v, float)]
        assert np.isfinite(values).all(), row
        assert row.j_after <= row.j_before * (1.0 + _DESCENT_RTOL)


# A constant updraft under a sealed bottom and xmax: the closed-form step
# presumes a vanishing boundary term, which these faces do not give, so it ascends.
ASCENDING = (
    "example = ex51\nc = 0.1\nbase = vertical\nw_b = 2.0\n"
    "bc_bottom = no-flow-through\nbc_xmax = no-flow-through\nquad = 12\n"
)


def test_failed_rows_are_recorded(tmp_path):
    text = ASCENDING + f"n = 3,4\nformula = closed-form\nout = {tmp_path / 'fail'}\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    rows = run_experiment(cfg)
    assert all(row.error.startswith("NonDescentError") for row in rows)
    table = (tmp_path / "fail" / "table.csv").read_text().splitlines()
    assert len(table) == 3
    assert "NonDescentError" in table[1]
    assert all(row.rank is None for row in rows)
    assert table[1].split(",")[TABLE_COLUMNS.index("rank")] == "nan"


def test_ascending_row_fails_with_exit_code_3(tmp_path):
    text = ASCENDING + "n = 3\n"
    closed = write_cfg(tmp_path, text + f"formula = closed-form\nout = {tmp_path / 'cf'}\n", name="cf.cfg")
    assert main(["run", str(closed)]) == 3
    row = (tmp_path / "cf" / "table.csv").read_text().splitlines()[1]
    assert row.split(",")[-1].startswith("NonDescentError: the line search raised the objective")
    minimizer = write_cfg(tmp_path, text + f"formula = minimizer\nout = {tmp_path / 'mn'}\n", name="mn.cfg")
    assert main(["run", str(minimizer)]) == 0


def test_grid_too_large_for_memory_fails_the_row(tmp_path, monkeypatch):
    # 1000 bytes hold the run's 2^3 quadrature nodes (448 bytes), not a grid's dense solve
    monkeypatch.setattr(importlib.import_module("masscons.fields"), "_physical_memory", lambda: 1000)
    path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "big").replace("quad = 8", "quad = 2"))
    assert main(["run", str(path)]) == 3
    table = (tmp_path / "big" / "table.csv").read_text().splitlines()
    assert len(table) == 3
    assert all(',"DomainError: a grid of' in line for line in table[1:])
    assert main(["dump-gram", str(path)]) == 3


def test_grid_too_large_for_memory_fails_before_its_nodes(tmp_path):
    # Unpatched: n = 2000 is 8e9 centers, whose coordinates alone (about 60 GiB)
    # would not fit, so the guard must run before the grid is built.
    path = write_cfg(tmp_path, f"example = ex51\nn = 2000\nc = 0.1\nquad = 4\nout = {tmp_path / 'huge'}\n")
    cfg = parse_config(path)
    rows = []
    assert traced_peak(lambda: rows.extend(run_experiment(cfg))) < 2**20
    assert rows[0].error.startswith("DomainError: a grid of 8000000000 nodes needs about")
    with pytest.raises(DomainError, match="a grid of 8000000000 nodes needs about"):
        dump_gram_for_config(cfg)
    assert main(["run", str(path)]) == 3
    assert main(["dump-gram", str(path)]) == 3
    assert not list((tmp_path / "huge").glob("gram_*"))


def test_quadrature_too_large_for_memory_exits_3(tmp_path, capsys):
    # quad = 100000 is 1e15 nodes: refused by bytes before any node array exists
    path = write_cfg(tmp_path, f"example = ex51\nn = 3\nc = 0.1\nquad = 100000\nout = {tmp_path / 'q'}\n")
    capsys.readouterr()
    assert main(["run", str(path)]) == 3
    assert "DomainError: a quadrature of 100000^3 nodes needs about" in capsys.readouterr().err
    assert main(["sweep", str(path), "--param", "c", "--values", "0.1,0.2"]) == 3
    assert not (tmp_path / "q" / "table.csv").exists()


def test_quadrature_cell_volume_underflow_exits_3(tmp_path, capsys):
    # the box is valid, but its quadrature cells have no representable volume
    path = write_cfg(tmp_path, "example = ex51\nn = 3\nc = 0.1\nquad = 4\ndomain = 0,1e-300,0,1e-300,0,1e-300\n")
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "DomainError: the quadrature cell volume 2.500e-301" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_constant_over_the_box_fails_its_rows(tmp_path, capsys):
    # On a box 1e-13 across, c^2 D^2 is about 3e-28, so every s = 1 + c^2 r^2 is 1:
    # each kernel is the same constant and the system imposes nothing. The parent
    # of this check solved both rows at rank 1 and exited 0. The config is valid.
    text = "example = ex51\nn = 3,4\nc = 0.1\nquad = 4\nbc_bottom = no-flow-through\n"
    path = write_cfg(tmp_path, text + "domain = 0,1e-13,0,1e-13,0,1e-13\n")
    rows = run_experiment(parse_config(path), out_override=str(tmp_path / "out"))
    assert [row.error.split(": s = ")[0] for row in rows] == [
        "DomainError: shape parameter 0.1 over a distance of 1.7320508075688773e-13"
    ] * 2
    assert all("rounds to 1" in row.error for row in rows)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3
    assert main(["dump-gram", str(path), "--out", str(tmp_path / "dg")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert not list((tmp_path / "dg").glob("gram_*"))


# ex51's box has diameter 6: c is in range while s = 1 + 36 c^2 keeps s^(5/2) finite.
EX51_C_BOUND = math.sqrt((sys.float_info.max ** 0.4 - 1.0) / 36.0)


@pytest.mark.parametrize(
    "extra, key",
    [
        ("c = 1e100\n", "c"),
        ("c = 1e61\n", "c"),
        (f"c = {1.01 * EX51_C_BOUND!r}\n", "c"),
        ("c = 0.1\ntopography = hill\nhill_width = 1e-200\n", "hill_width"),  # width^2 underflows
        ("c = 0.1\ntopography = hill\nhill_width = 1e200\n", "hill_width"),  # width^2 overflows
        ("c = 0.1\ndomain = -1e308,1e308,-2,2,0,2\n", "domain"),  # hi - lo overflows
    ],
)
def test_values_that_overflow_the_computation_are_configuration_errors(tmp_path, capsys, extra, key):
    path = write_cfg(tmp_path, "example = ex51\nn = 3\nquad = 4\n" + extra)
    with pytest.raises(ConfigurationError, match=f"line [0-9]: {key}: "):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: " in capsys.readouterr().err


def test_c_just_inside_the_kernel_bound_runs(tmp_path):
    path = write_cfg(tmp_path, f"example = ex51\nn = 3\nquad = 4\nc = {0.99 * EX51_C_BOUND!r}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_metric_fails_the_row(tmp_path):
    # the updraft is finite, but the norm of u_plus - exact in rel_error overflows;
    # the row fails by name, and NumPy's overflow warning (an error here) is not raised
    text = f"example = ex51\nn = 3\nc = 0.1\nquad = 4\nbase = vertical\nw_b = 1e308\nout = {tmp_path / 'o'}\n"
    path = write_cfg(tmp_path, text)
    (row,) = run_experiment(parse_config(path))
    assert row.error == "DomainError: rel_error is not finite (inf)"
    assert main(["run", str(path)]) == 3


def test_iterations_key_is_unknown(tmp_path):
    # the line search is one pass; an echo written before that change no longer parses
    for text in (MINIMAL, MINIMAL + "s = 1,0,0,0,1,0,0,0,1\n"):
        path = write_cfg(tmp_path, text + "iterations = 1\n")
        with pytest.raises(ConfigurationError, match="unknown key 'iterations'"):
            parse_config(path)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_data_fails_the_row(tmp_path):
    # eps = 1e308 parses, but the sheared data overflows to inf at the nodes; the
    # typed error is the whole report, and NumPy's overflow warning (an error here)
    # is not raised
    text = f"example = ex53\neps = 1e308\nn = 3\nc = 0.1\nquad = 4\nout = {tmp_path / 'inf'}\n"
    path = write_cfg(tmp_path, text)
    rows = run_experiment(parse_config(path))
    assert rows[0].error.startswith("DomainError: data values")
    assert not (tmp_path / "inf" / "field_N3.csv").exists()
    assert main(["run", str(path)]) == 3
    # dump-gram has no quadrature nodes: the system's right-hand side holds the inf
    assert main(["dump-gram", str(path), "--out", str(tmp_path / "dg")]) == 3
    assert not (tmp_path / "dg" / "gram_N27.txt").exists()


def test_field_div_column_reproduces_table_stats(tmp_path):
    out = tmp_path / "results"
    rows = run_experiment(parse_config(write_cfg(tmp_path, fast_cfg_text(out))))
    for row, n in zip(rows, (3, 4)):
        div = np.loadtxt(out / f"field_N{n}.csv", delimiter=",", skiprows=1)[:, -1]
        assert float(np.mean(div)) == row.div_mean
        assert float(np.max(np.abs(div))) == row.div_max


FIELD_HEADER = "x,y,z,u1,u2,u3,u1_exact,u2_exact,u3_exact,div\n"
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308])


def savetxt_field(path, nodes, values, exact, div):
    """The field file as np.savetxt writes it: the reference for the block writer."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(FIELD_HEADER)
        np.savetxt(fh, np.column_stack([nodes, values, exact, div]), fmt="%-25.17e", delimiter=",", newline="\n")
    return path.read_bytes()


def with_specials(rng, shape, shift):
    """Values over the whole float64 exponent range, with each special value at the start and end."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    specials = np.roll(SPECIAL, shift)[: min(a.size, len(SPECIAL))]
    a.flat[: len(specials)] = specials
    a.flat[a.size - len(specials):] = specials[::-1]
    return a


def assert_writer_matches_savetxt(folder, nodes, exact, results):
    """Each file _write_fields writes equals np.savetxt's, byte for byte."""
    paths = [folder / f"field_{k}.csv" for k in range(len(results))]
    done = [(path, result.node_values, result.node_div) for path, result in zip(paths, results)]
    _write_fields(done, SimpleNamespace(exact=lambda pts: exact), SimpleNamespace(nodes=nodes))
    for path, result in zip(paths, results):
        expected = savetxt_field(folder / "ref.csv", nodes, result.node_values, exact, result.node_div)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("rows", [1, 2 * _FIELD_BLOCK_ROWS + 3])
def test_field_writer_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    nodes, exact = with_specials(rng, (rows, 3), 0), with_specials(rng, (rows, 3), 3)
    results = [
        SimpleNamespace(node_values=with_specials(rng, (rows, 3), k), node_div=with_specials(rng, rows, k + 3))
        for k in (1, 2)
    ]
    assert_writer_matches_savetxt(tmp_path, nodes, exact, results)


def test_field_writer_keys_values_by_bit_pattern(tmp_path):
    # Duplicates inside one block: values that compare equal as floats but
    # print apart (0.0 and -0.0), NaNs of different payloads and signs, a
    # constant column, and one value in shared and own columns of both files.
    zero, neg_zero = 0.0, -0.0
    nan_bits = [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, -0x0008000000000000]
    nans = np.array(nan_bits, dtype=np.int64).view(np.float64)
    assert np.isnan(nans).all() and np.signbit(nans[3])
    shared = 1.25
    nodes = np.array([[zero, neg_zero, shared], [neg_zero, zero, nans[0]], [nans[1], shared, neg_zero]])
    exact = np.column_stack([np.full(3, 7.5), nans[[2, 3, 0]], [neg_zero, zero, shared]])
    results = [
        SimpleNamespace(node_values=np.array([[shared, neg_zero, nans[3]], [zero, nans[2], 7.5], [shared] * 3]),
                        node_div=np.array([neg_zero, nans[1], zero])),
        SimpleNamespace(node_values=np.array([[neg_zero, shared, zero], [nans[0], zero, neg_zero], [7.5, shared, zero]]),
                        node_div=np.array([shared, neg_zero, nans[3]])),
    ]
    assert_writer_matches_savetxt(tmp_path, nodes, exact, results)


def count_formatted(monkeypatch):
    """The length of each values array _format_cells is called with, in call order."""
    runner = importlib.import_module("masscons.runner")
    format_cells, formatted = runner._format_cells, []

    def counted(values):
        formatted.append(len(values))
        return format_cells(values)

    monkeypatch.setattr(runner, "_format_cells", counted)
    return formatted


def test_field_writer_formats_each_distinct_column_once(tmp_path, monkeypatch):
    # A column bit-equal to another file's column, to another slot's, or to a
    # column of the block before reuses its cells; columns equal as floats but
    # not as bits (0.0 and -0.0, NaNs of different payloads) do not, and a
    # column is constant only when its bits are. The rows cross two block ends.
    formatted = count_formatted(monkeypatch)
    rows = 2 * _FIELD_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    nodes, exact, own = rng.standard_normal((rows, 3)), rng.standard_normal((rows, 3)), rng.standard_normal(rows)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64)
    zero, neg_zero = np.zeros(rows), np.full(rows, -0.0)
    signed_zeros = np.where(np.arange(rows) % 2, 0.0, -0.0)
    results = [
        SimpleNamespace(node_values=exact.copy(), node_div=own),
        SimpleNamespace(node_values=np.column_stack([nodes[:, 2], own, zero]), node_div=neg_zero),
        SimpleNamespace(node_values=np.tile(nans, (rows, 1)), node_div=np.full(rows, 2.5)),
        SimpleNamespace(node_values=np.column_stack([signed_zeros, zero, neg_zero]), node_div=signed_zeros),
    ]
    assert_writer_matches_savetxt(tmp_path, nodes, exact, results)
    # Each row formats its six random values (nodes, exact) and its values of
    # the two other columns that are not constant (``own``, and 0.0 and -0.0
    # alternating); each block formats the six constant columns (0.0, -0.0,
    # three NaN payloads, 2.5) as one value each. The second block, which
    # starts on an even row, takes the alternating and the constant columns
    # from the first.
    blocks = -(-rows // _FIELD_BLOCK_ROWS)
    assert sum(formatted) == (6 + 1 + 1) * rows + 6 * blocks - (_FIELD_BLOCK_ROWS + 6)


def test_field_writer_formats_nothing_for_a_repeated_block(tmp_path, monkeypatch):
    # The second block repeats the first bit for bit, so every one of its
    # columns is carried from the first and _format_cells is not called for it.
    formatted = count_formatted(monkeypatch)
    rng = np.random.default_rng(6)

    def period(shape):
        return np.tile(rng.standard_normal((_FIELD_BLOCK_ROWS, *shape)), (2,) + (1,) * len(shape))

    results = [SimpleNamespace(node_values=period((3,)), node_div=period(())) for _ in range(2)]
    assert_writer_matches_savetxt(tmp_path, period((3,)), period((3,)), results)
    assert formatted == [14 * _FIELD_BLOCK_ROWS]


@st.composite
def field_blocks(draw):
    """Nodes, exact field and 1-3 results whose rows cross the writer's block size.

    Values come from a small pool, which forces duplicates (0.0 and -0.0
    often among them), or are raw float64 bit patterns (NaN payloads and
    subnormals included).
    """
    rows = draw(st.integers(1, 2 * _FIELD_BLOCK_ROWS + 2))
    files = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, 6 + 4 * files)
    if draw(st.booleans()):
        values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0])
        pool = draw(st.lists(values, min_size=1, max_size=6))
        columns = np.array(pool)[rng.integers(0, len(pool), shape)]
    else:
        columns = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, shape, endpoint=True).view(np.float64)
    results = [
        SimpleNamespace(node_values=columns[:, 6 + 4 * k : 9 + 4 * k], node_div=columns[:, 9 + 4 * k])
        for k in range(files)
    ]
    return columns[:, :3], columns[:, 3:6], results


@settings(max_examples=30, derandomize=True, deadline=None)
@given(block=field_blocks())
def test_field_writer_matches_savetxt_on_any_bits(tmp_path_factory, block):
    assert_writer_matches_savetxt(tmp_path_factory.mktemp("fields"), *block)


def test_failed_middle_row_leaves_its_field_file_out(tmp_path, monkeypatch):
    runner = importlib.import_module("masscons.runner")
    adjust = runner.adjust

    def fail_middle(problem, kernel, n, **kwargs):
        if n == 4:
            raise DomainError("injected failure")
        return adjust(problem, kernel, n, **kwargs)

    monkeypatch.setattr(runner, "adjust", fail_middle)
    out = tmp_path / "results"
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(out).replace("n = 3,4", "n = 3,4,5")))
    rows = run_experiment(cfg)
    assert [row.error for row in rows] == ["", "DomainError: injected failure", ""]
    assert not (out / "field_N4.csv").exists()
    case = example_field(cfg.example, eps=cfg.eps)
    quad = _quadrature(cfg)
    for n in (3, 5):
        _, result = _run_one(cfg, _problem(cfg, case), n, quad)
        expected = savetxt_field(
            tmp_path / "ref.csv", quad.nodes, result.node_values, case.exact(quad.nodes), result.node_div
        )
        assert (out / f"field_N{n}.csv").read_bytes() == expected


def gauss_legendre_rule(box, m):
    """The m^3 tensor Gauss-Legendre rule on a box: the reference the run's rule is measured against."""
    x, w = np.polynomial.legendre.leggauss(m)
    half = (box.hi - box.lo) / 2.0
    axes = [box.lo[k] + half[k] * (x + 1.0) for k in range(3)]
    weights = [half[k] * w for k in range(3)]
    nodes = np.stack(np.meshgrid(*axes[::-1], indexing="ij")[::-1], axis=-1).reshape(-1, 3)
    return Quadrature(nodes, np.einsum("i,j,k->ijk", *weights[::-1]).ravel())


def test_default_rule_integrates_ex51_objective_exactly():
    # ex51's J integrand |(x, y)|^2 / 2 is quadratic, so two Gauss points per axis
    # are exact; the 32^3 midpoint rule read 42.625 for 128/3
    cfg = parse_config(CONFIGS / "ex51.cfg")
    assert cfg.quad == 16
    quad = _quadrature(cfg)
    assert len(quad.nodes) == 4096
    row, _ = _run_one(cfg, _problem(cfg, example_field(cfg.example)), 3, quad)
    assert abs(row.j_before - 128.0 / 3.0) <= 1e-13 * 128.0 / 3.0


def test_default_rule_is_close_to_gauss_legendre_on_ex53():
    # against GL 48^3 the two-point 16^3 rule reads 2.9e-5 on j_before and 3.9e-7 on
    # t_c; the 32^3 midpoint rule read 4.3e-4 and 3.6e-6
    cfg = parse_config(CONFIGS / "ex53.cfg")
    case = example_field(cfg.example, eps=cfg.eps)
    row, _ = _run_one(cfg, _problem(cfg, case), 3, _quadrature(cfg))
    ref, _ = _run_one(cfg, _problem(cfg, case), 3, gauss_legendre_rule(cfg.box(), 48))
    assert abs(row.j_before - ref.j_before) <= 1e-4 * ref.j_before
    assert abs(row.t_c - ref.t_c) <= 2e-6 * abs(ref.t_c)


def test_node_metrics_are_quadrature_weighted_on_terrain(tmp_path):
    text = "example = ex53\nn = 3\nc = 0.01\nquad = 8\ntopography = hill\nbc_bottom = no-flow-through\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    case = example_field(cfg.example, eps=cfg.eps)
    quad = _quadrature(cfg)
    row, result = _run_one(cfg, _problem(cfg, case), 3, quad)
    w, exact = quad.weights, case.exact(quad.nodes)
    assert w.max() > 1.1 * w.min()  # the hill stretches its columns unequally
    err = result.node_values - exact
    weighted = math.sqrt(np.sum(w * np.sum(err**2, axis=1)) / np.sum(w * np.sum(exact**2, axis=1)))
    assert row.rel_error == pytest.approx(weighted, rel=1e-12)
    assert row.div_mean == pytest.approx(np.sum(w * result.node_div) / np.sum(w), rel=1e-12)
    # the unweighted ratio and mean are other numbers
    assert row.rel_error != pytest.approx(np.linalg.norm(err) / np.linalg.norm(exact), rel=1e-4)
    assert row.div_mean != pytest.approx(np.mean(result.node_div), rel=1e-4)


def assert_same_bits(parsed, expected):
    """Equal bit for bit, except that every NaN reads back as NaN, whatever its payload or sign."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(parsed), nan)
    assert np.array_equal(parsed[~nan].view(np.int64), expected[~nan].view(np.int64))


def assert_fixed_width_records(path, columns):
    """The file's records are 260 bytes each, record i at len(header) + 260 i, and hold ``columns``."""
    data = path.read_bytes()
    assert data.startswith(FIELD_HEADER.encode("ascii"))
    body = data[len(FIELD_HEADER):]
    assert len(body) == 260 * len(columns)
    lines = body.split(b"\n")
    assert lines.pop() == b"" and all(len(line) == 259 for line in lines)
    for i in (0, len(columns) // 2, len(columns) - 1):
        start = len(FIELD_HEADER) + 260 * i
        assert data[start : start + 260] == lines[i] + b"\n"
        assert_same_bits(np.array([float(cell) for cell in lines[i].split(b",")]), columns[i])
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        next(reader)
        assert_same_bits(np.array([[float(cell) for cell in rec] for rec in reader]), columns)
    assert_same_bits(np.loadtxt(path, delimiter=",", skiprows=1), columns)
    assert_same_bits(np.genfromtxt(path, delimiter=",", skip_header=1), columns)


def test_field_records_have_fixed_width(tmp_path):
    out = tmp_path / "results"
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(out)))
    run_experiment(cfg)
    case = example_field(cfg.example, eps=cfg.eps)
    quad = _quadrature(cfg)
    exact = case.exact(quad.nodes)
    for n in (3, 4):
        _, result = _run_one(cfg, _problem(cfg, case), n, quad)
        columns = np.column_stack([quad.nodes, result.node_values, exact, result.node_div])
        assert_fixed_width_records(out / f"field_N{n}.csv", columns)

    # the widest values and the special ones keep the width
    cells = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308, -np.nan, 0.0, 1.0, -1.0]
    columns = np.stack([np.roll(cells, k) for k in range(len(cells))])
    case = SimpleNamespace(exact=lambda pts: columns[:, 6:9])
    done = [(tmp_path / "special.csv", columns[:, 3:6], columns[:, 9])]
    _write_fields(done, case, SimpleNamespace(nodes=columns[:, :3]))
    assert_fixed_width_records(tmp_path / "special.csv", columns)


def test_field_writer_memory_is_bounded_by_blocks(tmp_path):
    # Formatting a whole 32^3-node file in one call holds more than 20 MiB of text.
    case = example_field("ex51")
    quad = midpoint_rule(case.domain, 32)
    rng = np.random.default_rng(0)
    m = len(quad.nodes)
    done = [(tmp_path / f"field_{k}.csv", rng.standard_normal((m, 3)), rng.standard_normal(m)) for k in range(3)]
    tracemalloc.start()
    try:
        _write_fields(done, case, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # 3.15 MiB measured


def printf_cells(values):
    """Each value through "%-25.17e," on its own: the reference for _format_cells."""
    text = b"".join(("%-25.17e," % v).encode("ascii") for v in values.tolist())
    return np.frombuffer(text, np.uint8).reshape(len(values), 26)


def assert_cells_match_printf(values):
    values = np.asarray(values, np.float64)
    assert np.array_equal(_format_cells(values), printf_cells(values))


@pytest.fixture
def fallback(monkeypatch):
    """The values _format_cells hands to Python's "%"."""
    runner = importlib.import_module("masscons.runner")
    printf, seen = runner._printf_cells, []

    def counted(values):
        seen.extend(values.tolist())
        return printf(values)

    monkeypatch.setattr(runner, "_printf_cells", counted)
    return seen


def outside_fast_range(v):
    return not 1e-280 <= abs(v) <= 1e280


def is_tie(v):
    """v lies exactly halfway between two 18-significant-digit decimals."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) > 18 and digits[18] == 5 and not any(digits[19:])


def powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values])


def test_cell_formatter_on_powers_of_ten_and_neighbours(fallback):
    values = powers_of_ten_and_neighbours()
    assert_cells_match_printf(values)
    # 1e15 + 1/8 = 1000000000000000.125 is a tie
    assert fallback and all(outside_fast_range(v) or is_tie(v) for v in fallback)


def test_cell_formatter_carries_into_the_next_decade(fallback):
    # 18-digit rounding carries a value to the next power of ten only next to one
    carries = [
        v for v in powers_of_ten_and_neighbours().tolist()
        if not outside_fast_range(v) and int(("%.17e" % v).split("e")[1]) != Decimal(v).adjusted()
    ]
    assert carries  # 1e153 is just below 10^153 and prints as 1.00000000000000000e+153
    assert_cells_match_printf(carries)
    assert fallback == []


def test_cell_formatter_on_extremes_and_special_values():
    nan_bits = [0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, -0x0008000000000000, -1]
    nans = np.array(nan_bits, dtype=np.int64).view(np.float64)
    assert np.isnan(nans).all() and np.signbit(nans).tolist() == [False] * 3 + [True] * 2
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert_cells_match_printf([*extremes, *(-v for v in extremes), 0.0, -0.0, np.inf, -np.inf, *nans])


def test_cell_formatter_leaves_decimal_ties_to_printf(fallback):
    # M / 2^j with M odd has j decimals ending in 5; with 19 significant digits
    # it is an exact tie at the 18th, which "%" rounds half to even.
    rng = np.random.default_rng(0)
    ties = []
    for j in range(3, 28):
        low, high = -(-(10**18) // 5**j), min((10**19 - 1) // 5**j, 2**53 - 1)
        for m in rng.integers(low, high, 4, endpoint=True).tolist():
            x = (m | 1) / 2**j
            if is_tie(x):
                ties += [x, -x]
    assert len(ties) > 100
    assert_cells_match_printf(ties)
    assert sorted(fallback) == sorted(ties)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4096), extra=st.lists(st.floats(), max_size=20))
def test_cell_formatter_matches_printf_on_any_bits(seed, size, extra):
    int64 = np.iinfo(np.int64)
    bits = np.random.default_rng(seed).integers(int64.min, int64.max, size, endpoint=True)
    assert_cells_match_printf(np.concatenate([bits.view(np.float64), extra]))


def test_import_builds_no_formatter_table():
    # the formatter's tables are built on the first field file written, not at import
    code = "import masscons.runner as r; print(r._format_tables.cache_info().currsize)"
    env_src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_run_does_not_load_numpy_random(tmp_path):
    # numpy.random adds 3.5-6.7 MB of resident memory when first loaded; the
    # solve's sketch and probes come from a hash instead. N = 216 is sketched.
    path = write_cfg(tmp_path, f"example = ex51\nn = 6\nc = 0.001\nquad = 4\nout = {tmp_path / 'r'}\n")
    code = (
        "import sys, masscons\n"
        f"rows = masscons.run_experiment(masscons.parse_config({str(path)!r}))\n"
        "print(rows[0].error == '', 'numpy.random' in sys.modules)"
    )
    env_src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("threads", [0, -2, 2])
def test_thread_count_below_one_is_a_configuration_error(tmp_path, threads):
    # Rows run one at a time: the library takes threads = 1 only, the CLI has no --threads.
    out = tmp_path / "results"
    path = write_cfg(tmp_path, fast_cfg_text(out).replace("n = 3,4", "n = 3"))
    cfg = parse_config(path)
    with pytest.raises(ConfigurationError, match="threads"):
        run_experiment(cfg, threads=threads)
    with pytest.raises(ConfigurationError, match="threads"):
        sweep(cfg, "c", [0.1], threads=threads)
    for argv in (["run", str(path)], ["sweep", str(path), "--param", "c", "--values", "0.1"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--threads", str(threads)])
        assert exit_info.value.code == 2
    assert not out.exists()


def test_sweep_shape_kappa_monotone(tmp_path):
    # Direct-SVD oracle: conditioning grows monotonically toward the flat
    # limit while kappa stays below the double-precision noise floor.
    text = "example = ex51\nn = 5\nc = 1\nbc_bottom = no-flow-through\nquad = 6\n" f"out = {tmp_path / 's'}\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    values = [1.0, 0.25, 0.1]
    rows = sweep(cfg, "c", values)
    kappas = [row.kappa for row in rows]
    assert kappas[0] <= kappas[1] <= kappas[2]
    assert (tmp_path / "s" / "sweep.csv").exists()

    # independent conditioning oracle per swept value
    from masscons.adjust import FaceBcPolicy, NO_FLOW_THROUGH, Problem, build_system
    from masscons.collocation import factorize_and_solve
    from masscons.kernel import KernelParams

    case = example_field("ex51")
    problem = Problem.horizontal(case.data, case.domain, policy=FaceBcPolicy(bottom=NO_FLOW_THROUGH))
    for value, row in zip(values, rows):
        system = build_system(problem, KernelParams(value), 5)
        assert factorize_and_solve(system).kappa == pytest.approx(row.kappa, rel=1e-10)


def test_sweep_n_kappa_monotone(tmp_path):
    text = (
        "example = ex51\nn = 3\nc = 0.001\nbc_bottom = no-flow-through\nquad = 6\n"
        f"out = {tmp_path / 'sn'}\n"
    )
    cfg = parse_config(write_cfg(tmp_path, text))
    rows = sweep(cfg, "n", [3, 5, 8])
    assert [row.n_nodes for row in rows] == [27, 125, 512]
    kappas = [row.kappa for row in rows]
    assert kappas[0] <= kappas[1] <= kappas[2]


def test_single_value_sweep_matches_run(tmp_path, monkeypatch):
    # Each row of a sweep over c is, byte for byte, the table row of a run at that c alone.
    text = "example = ex51\nn = 4\nbc_bottom = no-flow-through\nquad = 8\n"
    values = [0.1, 0.25, 0.05]
    cfg_sweep = parse_config(write_cfg(tmp_path, text + f"c = 0.1\nout = {tmp_path / 'swp'}\n", name="s.cfg"))
    sweep(cfg_sweep, "c", values)
    sweep_lines = (tmp_path / "swp" / "sweep.csv").read_bytes().splitlines(keepends=True)
    assert len(sweep_lines) == 1 + len(values)
    for k, c in enumerate(values):
        out = tmp_path / f"run{k}"
        run_experiment(parse_config(write_cfg(tmp_path, text + f"c = {c}\nout = {out}\n", name=f"r{k}.cfg")))
        assert (out / "table.csv").read_bytes() == sweep_lines[0] + sweep_lines[1 + k]

    # A sweep over n writes the table of a run over the same sizes, byte for
    # byte, also when its middle row fails: the error text is the same.
    runner = importlib.import_module("masscons.runner")
    adjust = runner.adjust

    def fail_middle(problem, kernel, n, **kwargs):
        if n == 4:
            raise DomainError("injected failure")
        return adjust(problem, kernel, n, **kwargs)

    run_cfg = parse_config(write_cfg(tmp_path, text.replace("n = 4", "n = 3,4,5") + "c = 0.1\n", name="rn.cfg"))
    for case, errors in (("n", [""] * 3), ("failed-middle", ["", "DomainError: injected failure", ""])):
        if case == "failed-middle":
            monkeypatch.setattr(runner, "adjust", fail_middle)
        rows = run_experiment(run_cfg, out_override=str(tmp_path / f"run-{case}"))
        swept = sweep(cfg_sweep, "n", [3, 4, 5], out_override=str(tmp_path / f"sweep-{case}"))
        assert [row.error for row in rows] == [row.error for row in swept] == errors
        table = (tmp_path / f"run-{case}" / "table.csv").read_bytes()
        assert (tmp_path / f"sweep-{case}" / "sweep.csv").read_bytes() == table


# N = 9^3 = 729 centers: one collocation matrix is 729^2 float64, 4.25 MB.
HALF_MATRIX_729 = 729**2 * 8 // 2


def test_sweep_holds_one_collocation_system_at_a_time(tmp_path):
    text = (
        "example = ex53\neps = 0.1\nn = 9\nc = 0.01\ns = 2,0.5,0.1,0.5,1.5,0.2,0.1,0.2,1\n"
        f"quad = 6\nbc_bottom = no-flow-through\nout = {tmp_path / 'swp'}\n"
    )
    cfg = parse_config(write_cfg(tmp_path, text))
    one = traced_peak(lambda: sweep(cfg, "c", [0.01]))
    four = traced_peak(lambda: sweep(cfg, "c", [0.01, 0.02, 0.05, 0.1]))
    assert four - one < HALF_MATRIX_729


def test_run_holds_one_collocation_system_at_a_time(tmp_path):
    text = "example = ex51\nc = 0.1\nbc_bottom = no-flow-through\nquad = 6\n"
    alone = parse_config(write_cfg(tmp_path, text + f"n = 9\nout = {tmp_path / 'a'}\n", name="a.cfg"))
    three = parse_config(write_cfg(tmp_path, text + f"n = 7,8,9\nout = {tmp_path / 'b'}\n", name="b.cfg"))
    # The rows before N = 729 hold 343^2 + 512^2 float64 (3.0 MB) if their systems are kept.
    assert traced_peak(lambda: run_experiment(three)) - traced_peak(lambda: run_experiment(alone)) < 2**20


def test_dump_gram_holds_one_collocation_system_at_a_time(tmp_path):
    text = f"example = ex51\nc = 0.1\nbc_bottom = no-flow-through\nquad = 4\nout = {tmp_path / 'dg'}\n"
    alone = parse_config(write_cfg(tmp_path, text + "n = 6\n", name="a.cfg"))
    both = parse_config(write_cfg(tmp_path, text + "n = 5,6\n", name="b.cfg"))
    # Kept while N = 216 is assembled and written, the N = 125 system adds its
    # 125^2 float64 matrix (125 kB) to the peak.
    extra = traced_peak(lambda: dump_gram_for_config(both)) - traced_peak(lambda: dump_gram_for_config(alone))
    assert extra < 125**2 * 8 // 2


def test_no_row_result_outlives_its_row(tmp_path, monkeypatch):
    # Each row's AdjustmentResult is freed before the next row starts, in a
    # sweep and in a run: a run keeps only the node arrays its field files need.
    runner = importlib.import_module("masscons.runner")
    run_one = runner._run_one
    refs, alive = [], []

    def tracked(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        row, result = run_one(*args)
        refs.append(weakref.ref(result))
        return row, result

    monkeypatch.setattr(runner, "_run_one", tracked)
    cfg = parse_config(CONFIGS / "ex52.cfg")
    sweep(cfg, "n", [3, 4, 5], out_override=str(tmp_path / "sweep"))
    run_experiment(replace(cfg, grid_sizes=(3, 4, 5)), out_override=str(tmp_path / "run"))
    gc.collect()
    assert alive == [0] * 6
    assert all(ref() is None for ref in refs)
    assert sorted(p.name for p in (tmp_path / "run").glob("field_N*.csv")) == [f"field_N{n}.csv" for n in (3, 4, 5)]


def test_a_run_and_a_sweep_each_build_one_problem(tmp_path, monkeypatch):
    # c, n and trunc_tol only discretise the problem, so every row of a run or a
    # sweep solves the one Problem its config states.
    built = []
    post_init = Problem.__post_init__
    monkeypatch.setattr(Problem, "__post_init__", lambda self: built.append(self) or post_init(self))
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(tmp_path / "run")))
    rows = run_experiment(cfg)
    assert [row.n_nodes for row in rows] == [27, 64] and len(built) == 1
    built.clear()
    rows = sweep(replace(cfg, grid_sizes=(3,)), "c", [0.05, 0.1, 0.2], out_override=str(tmp_path / "sweep"))
    assert [row.error for row in rows] == [""] * 3 and len(built) == 1


def test_reference_comparison_pairs_rows_on_n_and_c(tmp_path):
    # A row at another c than the published one is not a comparison: its cells stay empty.
    text = "example = ex51\nn = 3\nbc_bottom = no-flow-through\nquad = 4\n"
    for c, paired in ((0.1, False), (0.001, True)):
        cfg = parse_config(write_cfg(tmp_path, text + f"c = {c}\nout = {tmp_path / str(c)}\n"))
        rows = run_experiment(cfg)
        path = tmp_path / f"reference_{c}.csv"
        write_reference_comparison({"ex51": rows}, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 9
        (n27,) = [r for r in records if r["example"] == "ex51" and r["N"] == "27"]
        computed = [n27["kappa"], n27["div_mean"], n27["rel_error"]]
        row = rows[0]
        expected = [_sci(row.kappa), _sci(row.div_mean), _sci(row.rel_error)] if paired else ["", "", ""]
        assert computed == expected
        assert all(r["kappa"] == "" for r in records if r is not n27)


def test_sweep_validation(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    with pytest.raises(ConfigurationError):
        sweep(cfg, "c", [0.1])  # multiple grid sizes in config
    with pytest.raises(ConfigurationError):
        sweep(cfg, "w_b", [1.0])


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "cli"))
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli" / "table.csv").exists()

    bad = write_cfg(tmp_path, "example = ex51\nn = 3\nc = -2\n", name="bad.cfg")
    assert main(["run", str(bad)]) == 2

    # a 2-point axis has no interior node: the row would never impose div u = 0
    two = write_cfg(tmp_path, "example = ex51\nc = 0.1\nn = 3, 2\n", name="two.cfg")
    capsys.readouterr()
    assert main(["run", str(two), "--out", str(tmp_path / "two")]) == 2
    assert "line 3: n: must be greater than 2" in capsys.readouterr().err

    failing = write_cfg(
        tmp_path, ASCENDING + f"n = 3\nformula = closed-form\nout = {tmp_path / 'clif'}\n", name="failing.cfg"
    )
    assert main(["run", str(failing)]) == 3

    # the injected base kinds are gone: the data itself is not a starting field
    removed = write_cfg(tmp_path, "example = ex51\nn = 3\nc = 0.1\nbase = inject\n", name="inject.cfg")
    with pytest.raises(ConfigurationError, match=r"line 4: base: expected one of \('zero', 'vertical'\)"):
        parse_config(removed)
    assert main(["run", str(removed)]) == 2


def test_cli_dump_gram(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        f"example = ex51\nn = 3\nc = 0.5\nbc_bottom = no-flow-through\nout = {tmp_path / 'dump'}\n",
    )
    assert main(["dump-gram", str(cfg_path)]) == 0
    assert (tmp_path / "dump" / "gram_N27.txt").exists()
    assert "# nodes" in (tmp_path / "dump" / "gram_N27.txt").read_text()


@pytest.mark.parametrize(
    "text",
    [
        "example = ex51\nc = 0.5\ns = 2,0.3,0.3,1\nbase = vertical\nw_b = 0.5\nbc_bottom = no-flow-through\n"
        "bc_top = oracle-neumann\n",
        "example = ex53\nc = 0.05\ns = 2,0.5,0.1,0.5,1.5,-0.3,0.1,-0.3,1\n"
        "bc_bottom = no-flow-through\nbc_top = oracle-neumann\n",
        "example = ex53\neps = 0.1\nc = 0.1\ntopography = hill\nbc_bottom = no-flow-through\n",
    ],
    ids=["horizontal", "sasaki-aniso-oracle", "hill"],
)
def test_dump_gram_matches_the_solved_system(tmp_path, monkeypatch, text):
    # dump-gram writes the system the row's line search solves, bit for bit
    path = write_cfg(tmp_path, text + "n = 3\nquad = 4\n")
    assert main(["dump-gram", str(path), "--out", str(tmp_path / "dump")]) == 0
    lines = (tmp_path / "dump" / "gram_N27.txt").read_text().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:28]])
    rhs = np.array([float(v) for v in lines[29].split(",")])

    # the result holds no system, and the row's solve consumes its matrix:
    # capture a copy of the one the row's line search solves
    adjust_module = importlib.import_module("masscons.adjust")
    solve, solved = adjust_module.factorize_and_solve, []
    monkeypatch.setattr(
        adjust_module, "factorize_and_solve",
        lambda system, **kw: solved.append(replace(system, matrix=system.matrix.copy())) or solve(system, **kw),
    )
    cfg = parse_config(path)
    quad = _quadrature(cfg)
    _, result = _run_one(cfg, _problem(cfg, example_field(cfg.example, eps=cfg.eps)), 3, quad)
    assert result is not None and len(solved) == 1
    assert np.array_equal(matrix, solved[0].matrix)
    assert np.array_equal(rhs, solved[0].rhs)


def test_run_experiment_sasaki_mode(tmp_path):
    text = (
        "example = ex51\nn = 3,4\nc = 0.5\ns = 1,0,0,0,1,0,0,0,1\nquad = 8\n"
        f"out = {tmp_path / 'sas'}\n"
    )
    cfg = parse_config(write_cfg(tmp_path, text, name="sas.cfg"))
    rows = run_experiment(cfg)
    assert all(row.error == "" for row in rows)
    assert all(row.t_c == 1.0 for row in rows)
    assert main(["dump-gram", str(write_cfg(tmp_path, text, name="sas2.cfg")), "--out", str(tmp_path / "sd")]) == 0
    assert (tmp_path / "sd" / "gram_N27.txt").exists()


def test_cli_sweep_subcommand(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        f"example = ex51\nn = 3\nc = 0.5\nquad = 6\nout = {tmp_path / 'cs'}\n",
    )
    assert main(["sweep", str(cfg_path), "--param", "c", "--values", "0.5,0.25"]) == 0
    lines = (tmp_path / "cs" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize(
    "param, value", [("c", "inf"), ("c", "1e155"), ("c", "1e-200"), ("trunc_tol", "2"), ("n", "1"), ("c", "abc")]
)
def test_cli_sweep_rejects_out_of_range_values(tmp_path, param, value):
    # a swept value is checked as the config key it replaces
    path = write_cfg(tmp_path, f"example = ex51\nn = 3\nc = 0.5\nquad = 4\nout = {tmp_path / 'bad'}\n")
    good = "3" if param == "n" else "0.5"
    assert main(["sweep", str(path), "--param", param, "--values", f"{good},{value}"]) == 2
    assert not (tmp_path / "bad" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "param, values, repeated", [("n", "3,3", "3"), ("c", "0.5,0.25,0.50", "0.5"), ("trunc_tol", "1e-6,1e-06", "1e-06")]
)
def test_sweep_rejects_repeated_values(tmp_path, capsys, param, values, repeated):
    # a repeated value would run the same row twice; nothing is written
    path = write_cfg(tmp_path, f"example = ex51\nn = 3\nc = 0.5\nquad = 4\nout = {tmp_path / 'rep'}\n")
    assert main(["sweep", str(path), "--param", param, "--values", values]) == 2
    assert f"sweep values of {param} must be distinct, {repeated} is repeated" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()
    with pytest.raises(ConfigurationError, match=f"values of {param} must be distinct"):
        sweep(parse_config(path), param, parse_values(param, values))


def test_cli_out_override(tmp_path):
    cfg_path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "ignored"))
    target = tmp_path / "override"
    assert main(["run", str(cfg_path), "--out", str(target)]) == 0
    assert (target / "table.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_module_entry_point(tmp_path):
    cfg_path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "mod"))
    env_src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "masscons", "run", str(cfg_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert "N=27" in result.stdout
