import importlib
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import traced_peak
from masscons.cli import main
from masscons.collocation import condition_number
from masscons.config import echo_config, parse_config
from masscons.errors import ConfigurationError, DomainError
from masscons.fields import example_field, midpoint_rule
from masscons.runner import (
    _FIELD_BLOCK_ROWS, TABLE_COLUMNS, _run_one, _write_fields, dump_gram_for_config, run_experiment, sweep,
)

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


@pytest.mark.parametrize(
    "key, value", [("formula", "minimizer"), ("base", "vertical"), ("w_b", "4.0"), ("iterations", "3")]
)
def test_full_mode_rejects_horizontal_keys(tmp_path, key, value):
    # full observation has no base policy, one pass and a unit step; a key
    # for those would be echoed as applied while changing nothing
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

    from dataclasses import replace

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


def test_threads_do_not_change_output(tmp_path):
    cfg_a = parse_config(write_cfg(tmp_path, fast_cfg_text(tmp_path / "st"), name="st.cfg"))
    cfg_b = parse_config(write_cfg(tmp_path, fast_cfg_text(tmp_path / "mt"), name="mt.cfg"))
    run_experiment(cfg_a, threads=1)
    run_experiment(cfg_b, threads=2)
    assert (tmp_path / "st" / "table.csv").read_bytes() == (tmp_path / "mt" / "table.csv").read_bytes()
    text = "example = ex51\nn = 4\nc = 0.1\nbc_bottom = no-flow-through\nquad = 8\n"
    for threads in (1, 2):
        out = tmp_path / f"sw{threads}"
        cfg = parse_config(write_cfg(tmp_path, text + f"out = {out}\n", name=f"sw{threads}.cfg"))
        sweep(cfg, "c", [0.1, 0.25, 0.05], threads=threads)
    assert (tmp_path / "sw1" / "sweep.csv").read_bytes() == (tmp_path / "sw2" / "sweep.csv").read_bytes()


def test_failed_rows_are_recorded(tmp_path):
    text = (
        "example = ex51\nn = 3,4\nc = 0.1\nbase = inject\nquad = 6\n"
        f"out = {tmp_path / 'fail'}\n"
    )
    cfg = parse_config(write_cfg(tmp_path, text))
    rows = run_experiment(cfg)
    assert all("DegenerateDirectionError" in row.error for row in rows)
    table = (tmp_path / "fail" / "table.csv").read_text().splitlines()
    assert len(table) == 3
    assert "DegenerateDirectionError" in table[1]
    assert all(row.rank is None for row in rows)
    assert table[1].split(",")[TABLE_COLUMNS.index("rank")] == "nan"


def test_ascending_row_fails_with_exit_code_3(tmp_path):
    text = (
        "example = ex51\nn = 3\nc = 0.1\nbase = vertical\nw_b = 2.0\n"
        "bc_bottom = no-flow-through\nbc_xmax = no-flow-through\nquad = 12\n"
    )
    closed = write_cfg(tmp_path, text + f"formula = closed-form\nout = {tmp_path / 'cf'}\n", name="cf.cfg")
    assert main(["run", str(closed)]) == 3
    row = (tmp_path / "cf" / "table.csv").read_text().splitlines()[1]
    assert row.split(",")[-1].startswith("NonDescentError: the line search raised the objective")
    minimizer = write_cfg(tmp_path, text + f"formula = minimizer\nout = {tmp_path / 'mn'}\n", name="mn.cfg")
    assert main(["run", str(minimizer)]) == 0


def test_grid_too_large_for_memory_fails_the_row(tmp_path, monkeypatch):
    monkeypatch.setattr(importlib.import_module("masscons.adjust"), "_physical_memory", lambda: 1000)
    path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "big"))
    assert main(["run", str(path)]) == 3
    table = (tmp_path / "big" / "table.csv").read_text().splitlines()
    assert len(table) == 3
    assert all(',"DomainError: a grid of' in line for line in table[1:])
    assert main(["dump-gram", str(path)]) == 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_data_fails_the_row(tmp_path):
    # eps = 1e308 parses, but the sheared data overflows to inf at the nodes
    text = f"example = ex53\neps = 1e308\nn = 3\nc = 0.1\nquad = 4\nout = {tmp_path / 'inf'}\n"
    path = write_cfg(tmp_path, text)
    rows = run_experiment(parse_config(path))
    assert rows[0].error.startswith("DomainError: data values")
    assert not (tmp_path / "inf" / "field_N3.csv").exists()
    assert main(["run", str(path)]) == 3


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
        np.savetxt(fh, np.column_stack([nodes, values, exact, div]), fmt="%.17e", delimiter=",", newline="\n")
    return path.read_bytes()


def with_specials(rng, shape, shift):
    """Values over the whole float64 exponent range, with each special value at the start and end."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    specials = np.roll(SPECIAL, shift)[: min(a.size, len(SPECIAL))]
    a.flat[: len(specials)] = specials
    a.flat[a.size - len(specials):] = specials[::-1]
    return a


@pytest.mark.parametrize("rows", [1, 2 * _FIELD_BLOCK_ROWS + 3])
def test_field_writer_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    nodes, exact = with_specials(rng, (rows, 3), 0), with_specials(rng, (rows, 3), 3)
    results = [
        SimpleNamespace(node_values=with_specials(rng, (rows, 3), k), node_div=with_specials(rng, rows, k + 3))
        for k in (1, 2)
    ]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    _write_fields(paths, SimpleNamespace(exact=lambda pts: exact), results, SimpleNamespace(nodes=nodes))
    for path, result in zip(paths, results):
        expected = savetxt_field(tmp_path / "ref.csv", nodes, result.node_values, exact, result.node_div)
        assert path.read_bytes() == expected


def test_failed_middle_row_leaves_its_field_file_out(tmp_path, monkeypatch):
    runner = importlib.import_module("masscons.runner")
    adjust = runner.adjust

    def fail_middle(data, box, kernel, n, **kwargs):
        if n == 4:
            raise DomainError("injected failure")
        return adjust(data, box, kernel, n, **kwargs)

    monkeypatch.setattr(runner, "adjust", fail_middle)
    out = tmp_path / "results"
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(out).replace("n = 3,4", "n = 3,4,5")))
    rows = run_experiment(cfg)
    assert [row.error for row in rows] == ["", "DomainError: injected failure", ""]
    assert not (out / "field_N4.csv").exists()
    case = example_field(cfg.example, eps=cfg.eps)
    quad = midpoint_rule(cfg.box(), cfg.quad)
    for n in (3, 5):
        _, result = _run_one(cfg, case, n, quad)
        expected = savetxt_field(
            tmp_path / "ref.csv", quad.nodes, result.node_values, case.exact(quad.nodes), result.node_div
        )
        assert (out / f"field_N{n}.csv").read_bytes() == expected


def test_field_writer_memory_is_bounded_by_blocks(tmp_path):
    # Formatting a whole 32^3-node file in one call holds more than 20 MiB of text.
    case = example_field("ex51")
    quad = midpoint_rule(case.domain, 32)
    rng = np.random.default_rng(0)
    m = len(quad.nodes)
    results = [SimpleNamespace(node_values=rng.standard_normal((m, 3)), node_div=rng.standard_normal(m)) for _ in range(3)]
    paths = [tmp_path / f"field_{k}.csv" for k in range(3)]
    tracemalloc.start()
    try:
        _write_fields(paths, case, results, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
    from masscons.fields import zero3
    from masscons.geometry import grid_centers
    from masscons.kernel import KernelParams

    case = example_field("ex51")
    nodes = grid_centers(case.domain, 5)
    problem = Problem.horizontal(case.data)
    for value, row in zip(values, rows):
        _, system, _ = build_system(
            problem, zero3(), nodes, KernelParams(value), case.domain, FaceBcPolicy(bottom=NO_FLOW_THROUGH)
        )
        assert condition_number(system) == pytest.approx(row.kappa, rel=1e-10)


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


def test_single_value_sweep_matches_run(tmp_path):
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
    # Kept while N = 216 is assembled and solved, the N = 125 system adds its
    # 125^2 float64 matrix (125 kB) to the peak.
    extra = traced_peak(lambda: dump_gram_for_config(both)) - traced_peak(lambda: dump_gram_for_config(alone))
    assert extra < 125**2 * 8 // 2


def test_sweep_validation(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    with pytest.raises(ConfigurationError):
        sweep(cfg, "c", [0.1])  # multiple grid sizes in config
    with pytest.raises(ConfigurationError):
        sweep(cfg, "w_b", [1.0])


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = write_cfg(tmp_path, fast_cfg_text(tmp_path / "cli"))
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli" / "table.csv").exists()

    bad = write_cfg(tmp_path, "example = ex51\nn = 3\nc = -2\n", name="bad.cfg")
    assert main(["run", str(bad)]) == 2

    failing = write_cfg(
        tmp_path,
        f"example = ex51\nn = 3\nc = 0.1\nbase = inject\nquad = 6\nout = {tmp_path / 'clif'}\n",
        name="failing.cfg",
    )
    assert main(["run", str(failing)]) == 3


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
        "example = ex51\nc = 0.5\ns = 2,0.3,0.3,1\nbase = vertical\nw_b = 0.5\nbc_bottom = no-flow-through\n",
        "example = ex53\nc = 0.05\ns = 2,0.5,0.1,0.5,1.5,-0.3,0.1,-0.3,1\n"
        "bc_bottom = no-flow-through\nbc_top = oracle-neumann\n",
    ],
    ids=["horizontal", "sasaki-aniso-oracle"],
)
def test_dump_gram_matches_the_solved_system(tmp_path, text):
    # dump-gram writes the system the row's line search solves, bit for bit
    path = write_cfg(tmp_path, text + "n = 3\nquad = 4\n")
    assert main(["dump-gram", str(path), "--out", str(tmp_path / "dump")]) == 0
    lines = (tmp_path / "dump" / "gram_N27.txt").read_text().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:28]])
    rhs = np.array([float(v) for v in lines[29].split(",")])

    cfg = parse_config(path)
    quad = midpoint_rule(cfg.box(), cfg.quad)
    _, result = _run_one(cfg, example_field(cfg.example, eps=cfg.eps), 3, quad)
    assert np.array_equal(matrix, result.gram.matrix)
    assert np.array_equal(rhs, result.gram.rhs)


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
