import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from masscons.cli import main
from masscons.collocation import condition_number, factorize_and_solve
from masscons.config import echo_config, parse_config
from masscons.errors import ConfigurationError
from masscons.runner import TABLE_COLUMNS, run_experiment, sweep

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


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "results"
    cfg = parse_config(write_cfg(tmp_path, fast_cfg_text(out)))
    rows = run_experiment(cfg)
    assert [row.n_nodes for row in rows] == [27, 64]
    assert all(row.error == "" for row in rows)

    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == ",".join(TABLE_COLUMNS)
    assert len(table) == 3
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
    from masscons.adjust import BaseFieldPolicy, FaceBcPolicy, NO_FLOW_THROUGH, boundary_data, misfit, poisson_rhs
    from masscons.collocation import assemble
    from masscons.fields import example_field, zero3
    from masscons.geometry import grid_centers
    from masscons.kernel import KernelParams

    case = example_field("ex51")
    nodes = grid_centers(case.domain, 5)
    for value, row in zip(values, rows):
        m = misfit(zero3(), case.data, np.eye(2))
        bcs = boundary_data(FaceBcPolicy(bottom=NO_FLOW_THROUGH), m, nodes)
        system = assemble(nodes, KernelParams(value), bcs, poisson_rhs(m, case.domain))
        factorize_and_solve(system)
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
    text = "example = ex51\nn = 4\nc = 0.1\nbc_bottom = no-flow-through\nquad = 8\n"
    cfg_run = parse_config(write_cfg(tmp_path, text + f"out = {tmp_path / 'run'}\n", name="r.cfg"))
    cfg_sweep = parse_config(write_cfg(tmp_path, text + f"out = {tmp_path / 'swp'}\n", name="s.cfg"))
    run_experiment(cfg_run)
    sweep(cfg_sweep, "c", [0.1])
    run_lines = (tmp_path / "run" / "table.csv").read_text().splitlines()
    sweep_lines = (tmp_path / "swp" / "sweep.csv").read_text().splitlines()
    assert run_lines == sweep_lines


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
