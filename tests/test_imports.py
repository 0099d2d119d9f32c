"""scipy is a test-only dependency: the package never loads it. Every
command (drag, massless and inertial simulate, sweep, validate), the
collision-time quadrature and the no-collision demo run on numpy alone, so
the installed package works without scipy and no process pays the half
second scipy takes to load.

The check runs in a fresh interpreter, since the test modules themselves
import scipy as their reference."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import swimcollide

SCRIPT = textwrap.dedent(
    """
    import importlib.util, sys, tempfile
    from pathlib import Path

    def scipy_modules(after):
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, f"{after} loaded {loaded[:5]}"

    from swimcollide import cli
    scipy_modules("import swimcollide.cli")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["drag", "--bc", "navier", "--beta", "0.1", "--points", "4"]
        assert cli.main(argv + ["--out", str(tmp / "drag")]) == 0
        scipy_modules("drag")

        run = tmp / "run.cfg"
        run.write_text(
            "[scenario]\\nmode = active\\nbc = no_slip\\nh0 = 0.5\\nlambda = 1.0\\n"
            "[integrator]\\nt_max = 200.0\\n"
        )
        assert cli.main(["simulate", "--config", str(run), "--out", str(tmp / "sim")]) == 0
        report = (tmp / "sim" / "run_report.txt").read_text()
        assert "termination = horizon_reached" in report, report
        scipy_modules("a massless horizon simulate")

        run.write_text(run.read_text().replace("[integrator]", "mass = 0.1\\n[integrator]"))
        assert cli.main(["simulate", "--config", str(run), "--out", str(tmp / "inertial")]) == 0
        report = (tmp / "inertial" / "run_report.txt").read_text()
        assert "scenario.mass = 0.1" in report, report
        scipy_modules("an inertial simulate")

        run.write_text(run.read_text() + "[series]\\ntail_tol = 1e-12\\n")
        assert cli.main(["simulate", "--config", str(run), "--out", str(tmp / "tight")]) == 0
        report = (tmp / "tight" / "run_report.txt").read_text()
        assert "series.tail_tol = 9.9999999999999998e-13" in report, report
        scipy_modules("an inertial simulate at tail_tol = 1e-12")

        grid = tmp / "sweep.cfg"
        grid.write_text(
            "[scenario]\\nmode = active\\nbc = navier\\nbeta = 0.1\\nh0 = 0.5\\n"
            "[integrator]\\nt_max = 200.0\\n[sweep]\\nlambda = 0.5, 1.0\\n"
        )
        assert cli.main(["sweep", "--config", str(grid), "--out", str(tmp / "sweep")]) == 0
        scipy_modules("a massless sweep")

        assert cli.main(["validate", "--out", str(tmp / "validate")]) == 0
        scipy_modules("validate")

    from swimcollide import dynamics
    from swimcollide.drag import BoundaryCondition

    sc = dynamics.SwimmerScenario(
        mode=dynamics.Mode.ACTIVE, bc=BoundaryCondition.navier(0.1), h0=0.5
    )
    assert dynamics.collision_time_quadrature(sc).time_to_floor > 0.0
    scipy_modules("collision_time_quadrature")

    spec = importlib.util.spec_from_file_location("demo", sys.argv[1])
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--h0", "0.05", "--t-max", "100"]) == 0
    scipy_modules("the no-collision demo")
    print("ok")
    """
)


def test_massless_commands_load_no_scipy():
    src = str(Path(swimcollide.__file__).resolve().parent.parent)
    demo = Path(__file__).resolve().parent.parent / "scripts" / "no_collision_demo.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
