"""The benchmark's view of the package: the names bench/tracing.py wraps,
bench/workloads.py reads and bench/checks.py's oracles import must exist, so
a change that deletes or moves one fails here and not only when the
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from swimcollide import cli, drag, dynamics, series

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_restores_every_wrapped_attribute():
    modules = (cli, drag, dynamics, series)
    before = [dict(vars(m)) for m in modules]
    tracer = load_bench("tracing").Tracer()
    tracer.install()
    try:
        wrapped = 0
        for module, originals in zip(modules, before):
            for name, original in originals.items():
                now = vars(module)[name]
                if now is not original:
                    assert now.__wrapped__ is original
                    wrapped += 1
        assert wrapped
    finally:
        tracer.uninstall()
    for module, originals in zip(modules, before):
        now = vars(module)
        assert now.keys() == originals.keys()
        assert all(now[name] is value for name, value in originals.items())


@pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9], ids=["above", "below"])
def test_oracles_meet_the_series_floor(side):
    # The oracles read SERIES_GAP_FLOOR from drag and call the series: one gap
    # on each side of the floor must reach a value, and the drag model's.
    oracles = load_bench("checks")
    h = drag.SERIES_GAP_FLOOR * side
    no_slip = drag.BoundaryCondition.no_slip()
    want_pass, want_prop = drag.kappa_pass(h, no_slip), drag.kappa_prop(h, 1.0, no_slip)
    assert oracles.oracle_kappa_pass(h, 0.0) == pytest.approx(want_pass, rel=1e-14)
    assert oracles.oracle_kappa_prop(h, 1.0) == pytest.approx(want_prop, rel=1e-14)


def test_every_workload_builds(tmp_path, monkeypatch):
    # The sweep workload sets this variable in the process environment.
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    workloads = load_bench("workloads").WORKLOADS
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert list(workloads) == [w["name"] for w in declared]
    for name, workload in workloads.items():
        out = tmp_path / name
        out.mkdir()
        assert workload(1, str(out)).ops
