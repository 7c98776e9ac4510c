"""The package's surface: its exports resolve, the benchmark's tracer installs on it,
and the README's library example runs as documented."""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import masscons

ROOT = Path(__file__).resolve().parents[1]
# masscons.__main__ runs the command line when imported, and exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(masscons.__path__, "masscons.") if m.name != "masscons.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_benchmark_tracer_installs_and_restores(monkeypatch, tmp_path):
    # The tracer patches names such as runner.divergence_fd and
    # MultiplierSolution.hessian; a deleted or renamed one fails on entry.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    runner, collocation = importlib.import_module("masscons.runner"), importlib.import_module("masscons.collocation")
    before = (runner.divergence_fd, collocation.MultiplierSolution.hessian, collocation.hess_phi)
    config = tmp_path / "ex51.cfg"
    config.write_text("example = ex51\nn = 3\nc = 0.1\nquad = 4\nbc_bottom = no-flow-through\n")
    with tracing.Tracer().installed() as tracer:
        assert runner.divergence_fd is not before[0]
        (row,) = masscons.run_experiment(masscons.parse_config(config), out_override=str(tmp_path / "out"))
    assert (runner.divergence_fd, collocation.MultiplierSolution.hessian, collocation.hess_phi) == before
    # A patch that no longer sits where the row looks its name up reads as a
    # layer that took no time; the row reaches each of these layers once.
    assert row.error == ""
    names = [s.name for s in tracer.spans]
    for name in ("adjust.adjust", "geometry.grid_centers", "collocation.assemble", "collocation.solve"):
        assert names.count(name) == 1, name

    # A full-observation row goes through sasaki, one span per row.
    config.write_text("example = ex51\nn = 3,4\nc = 0.1\nquad = 4\ns = 1,0,0,0,2,0,0,0,1\n")
    with tracing.Tracer().installed() as tracer:
        rows = masscons.run_experiment(masscons.parse_config(config), out_override=str(tmp_path / "full"))
    assert [row.error for row in rows] == ["", ""]
    names = [s.name for s in tracer.spans]
    assert names.count("adjust.sasaki") == 2 and "adjust.adjust" not in names


def test_readme_library_example(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    result = namespace["result"]
    # the example's comment: "1.0, 0.0: exact recovery"
    assert (result.t_c, result.metrics.rel_error) == (1.0, 0.0)
    assert capsys.readouterr().out == "1.0 0.0\n"
    assert namespace["values"].shape == (1, 3)
