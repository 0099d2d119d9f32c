"""Smoke runs of the experiments in scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_collision_demo(capsys):
    demo = load_script("no_collision_demo")
    assert demo.main(["--h0", "0.05", "--t-max", "100"]) == 0
    out = capsys.readouterr().out
    assert "divergent dt / dh integrand at the floor: True" in out
    assert "horizon" not in out
