"""Smoke runs of the experiments in scripts/."""

import csv
import importlib.util
from pathlib import Path

import pytest

from swimcollide import BoundaryCondition, kappa_prop

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
    assert "rate / lubrication limit 2 f_ext / (3 pi): 0.99994" in out
    assert "recorded points: True" in out
    assert "horizon" not in out


@pytest.mark.parametrize(
    "name, flag, values, conclusion, header, row_holds",
    [
        (
            "propulsion_drag_sweep",
            "--offsets",
            [0.1, 1.0],
            "kappa_prop -> 1 as lam -> 0",
            ["lam", "kappa_prop", "net_thrust"],
            # the default half-gap is 0.01 and the default wall no-slip
            lambda row: float(row[1])
            == kappa_prop(0.01, float(row[0]), BoundaryCondition.no_slip()),
        ),
        (
            "collision_time_scaling",
            "--betas",
            [0.1, 0.2],
            "max / min of T * beta over the sweep: 1.963",
            ["beta", "t_contact", "t_times_beta", "points"],
            lambda row: float(row[2]) == float(row[1]) * float(row[0]),
        ),
    ],
    ids=["propulsion_drag_sweep", "collision_time_scaling"],
)
def test_table_script(name, flag, values, conclusion, header, row_holds, tmp_path, capsys):
    table = tmp_path / f"{name}.csv"
    argv = [flag, *map(str, values), "--csv", str(table)]
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith(conclusion) for line in out)
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert [float(row[0]) for row in rows[1:]] == values
    assert all(row_holds(row) for row in rows[1:])
