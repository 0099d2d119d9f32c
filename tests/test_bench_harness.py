"""The benchmark's view of the package: the names bench/tracing.py wraps and
bench/workloads.py reads must exist, so a change that deletes one fails here
and not only when the benchmark runs."""

import importlib.util
import json
from pathlib import Path

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
