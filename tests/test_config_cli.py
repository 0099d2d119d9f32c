"""Config parsing and the command line, exercised in process, plus one run
of the module entry point in a subprocess."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swimcollide
from swimcollide import checks, geometry, series
from swimcollide.checks import CHECKS
from swimcollide.cli import main
from swimcollide.config import SWEEP_AXES, parse_config, parse_config_text
from swimcollide.drag import BoundaryCondition, coefficients
from swimcollide.dynamics import Mode
from swimcollide.errors import ConfigError
from swimcollide.series import SeriesTruncation

BASE_RUN = """\
[scenario]
mode = active
bc = navier
beta = 0.1
h0 = 0.5
f_p = 1.0
lambda = 1.0

[integrator]
t_max = 200.0
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigParsing:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config_text("")
        assert cfg.scenario.mode is Mode.ACTIVE
        assert cfg.scenario.bc == BoundaryCondition.no_slip()
        assert cfg.scenario.h0 == 0.5
        assert cfg.t_max == 100.0
        assert cfg.truncation == SeriesTruncation()
        assert cfg.sweep == {}

    def test_full_round(self):
        cfg = parse_config_text(BASE_RUN)
        sc = cfg.scenario
        assert sc.bc == BoundaryCondition.navier(0.1)
        assert sc.mode is Mode.ACTIVE and sc.lam == 1.0 and sc.mass == 0.0
        assert cfg.t_max == 200.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n; alt comment\n" + BASE_RUN
        assert parse_config_text(text).scenario.h0 == 0.5

    def test_sweep_axis_lists(self):
        cfg = parse_config_text(BASE_RUN + "\n[sweep]\nlambda = 0.5, 1.0, 2.0\n")
        assert cfg.sweep == {"lambda": (0.5, 1.0, 2.0)}
        assert set(cfg.sweep) <= set(SWEEP_AXES)

    def test_hash_ignores_formatting_not_values(self):
        shuffled = BASE_RUN.replace("f_p = 1.0\n", "") + "\n[scenario]\n"
        # Re-adding the key in a second block is a duplicate; instead compare
        # a reordered but equivalent file.
        reordered = "\n".join(reversed(BASE_RUN.strip().split("\n\n"))) + "\n"
        assert (
            parse_config_text(BASE_RUN).config_hash()
            == parse_config_text(reordered).config_hash()
        )
        changed = BASE_RUN.replace("h0 = 0.5", "h0 = 0.25")
        assert (
            parse_config_text(BASE_RUN).config_hash()
            != parse_config_text(changed).config_hash()
        )
        del shuffled

    def test_resolved_lines_are_sorted(self):
        lines = parse_config_text(BASE_RUN).resolved
        assert list(lines) == sorted(lines)
        assert any(line.startswith("scenario.h0 = 0.5") for line in lines)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(example)
        assert cfg.scenario.mode is Mode.ACTIVE
        assert cfg.scenario.bc == BoundaryCondition.navier(0.1)
        assert (cfg.scenario.h0, cfg.scenario.mass, cfg.t_max) == (0.5, 0.0, 200.0)
        assert cfg.sweep == {"lambda": (0.1, 0.5, 1.0, 2.0)}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[rocket]\n", "unknown section"),
            ("[scenario]\ncolor = blue\n", "unknown key"),
            ("[scenario]\nh0 = fast\n", "not a valid float"),
            ("[scenario]\nh0 = 0.5\nh0 = 0.6\n", "duplicate key"),
            ("h0 = 0.5\n", "outside any [section]"),
            ("[scenario]\njust words\n", "expected key = value"),
        ],
    )
    def test_syntax_errors_carry_locations(self, text, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert fragment in str(exc.value)
        assert "line" in str(exc.value)

    @pytest.mark.parametrize(
        "section,key,raw",
        [
            ("integrator", "t_max", "nan"),
            ("integrator", "t_max", "inf"),
            ("integrator", "h_floor", "nan"),
            ("integrator", "rtol", "-inf"),
            ("scenario", "h0", "inf"),
            ("sweep", "h0", "0.5, nan"),
        ],
    )
    def test_non_finite_floats_are_rejected(self, section, key, raw):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"[{section}]\n{key} = {raw}\n")
        assert exc.value.key == f"{section}.{key}"
        assert exc.value.line == 2
        bad = raw.split(",")[-1].strip()
        assert f"{bad!r} " in str(exc.value)
        assert str(exc.value).endswith("is not a finite float")

    def test_domain_errors_name_the_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[scenario]\nmode = sideways\n")
        assert "scenario.mode" in str(exc.value)
        assert exc.value.line == 2

    def test_beta_requires_navier(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[scenario]\nbc = no_slip\nbeta = 0.1\n")
        assert "slip length" in str(exc.value)
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")


class TestDragCommand:
    def test_table_round_trips_exactly(self, tmp_path):
        rc = main(
            [
                "drag",
                "--bc",
                "navier",
                "--beta",
                "0.1",
                "--h-min",
                "1e-5",
                "--h-max",
                "1.0",
                "--points",
                "7",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "drag_table.csv")
        assert rows[0] == ["h", "kappa_pass", "kappa_prop", "provenance"]
        assert len(rows) == 8
        bc = BoundaryCondition.navier(0.1)
        provs = set()
        for h_s, kp_s, kpr_s, prov in rows[1:]:
            co = coefficients(float(h_s), 1.0, bc)
            # 17 significant digits give exact float round-trips.
            assert float(kp_s) == co.kappa_pass
            assert float(kpr_s) == co.kappa_prop
            provs.add(prov)
        assert provs == {"exact_series", "asymptotic_model"}
        report = (tmp_path / "drag_report.txt").read_text()
        assert "bc = navier" in report

    def test_slip_length_below_the_series_floor(self, tmp_path):
        argv = ["drag", "--bc", "navier", "--beta", "1e-12", "--h-min", "1e-9"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "drag_table.csv")[1:]
        assert {r[3] for r in rows} == {"exact_series", "asymptotic_model"}

    def test_bad_grid_is_a_config_error(self, tmp_path):
        rc = main(
            ["drag", "--h-min", "1.0", "--h-max", "0.5", "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "h_min,h_max", [("nan", "1.0"), ("1e-3", "nan"), ("1e-3", "inf")]
    )
    def test_non_finite_grid_is_a_config_error(self, tmp_path, h_min, h_max):
        rc = main(["drag", "--h-min", h_min, "--h-max", h_max, "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["drag", "--bc", "navier", "--beta", "nan"], "--beta"),
            (["drag", "--lam", "nan"], "--lam"),
            (["drag", "--lam", "-1"], "--lam"),
            (["drag", "--tol", "nan"], "--tol"),
            (["simulate", "--tol", "nan"], "--tol"),
            (["sweep", "--tol", "nan"], "--tol"),
        ],
    )
    def test_bad_option_is_a_config_error(self, tmp_path, capsys, argv, option):
        # Rejected before any output, naming the option, not as a numerical failure.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + "\n[sweep]\nh0 = 0.4, 0.5\n")
        if argv[0] != "drag":
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {option}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value", [("--bc", "no_slip"), ("--beta", "0.2"), ("--lam", "5")]
    )
    def test_scenario_option_with_config_is_a_config_error(
        self, tmp_path, capsys, option, value
    ):
        # The config sets the wall model and tip offset; an option that would
        # be ignored is rejected before any output.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN)
        out = tmp_path / "out"
        argv = ["drag", "--config", str(cfg), option, value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {option}: ")
        assert not out.exists()


class TestSimulateCommand:
    def test_run_and_reproducibility(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0

        rows = read_csv(out1 / "trajectory.csv")
        assert rows[0] == ["t", "h", "hdot", "kappa_pass", "kappa_prop"]
        assert float(rows[1][0]) == 0.0
        # Identical inputs must produce byte-identical outputs.
        assert read_bytes(out1 / "trajectory.csv") == read_bytes(
            out2 / "trajectory.csv"
        )
        assert read_bytes(out1 / "run_report.txt") == read_bytes(
            out2 / "run_report.txt"
        )
        report = (out1 / "run_report.txt").read_text()
        assert "config_hash = " in report
        assert "termination = collision" in report

    def test_requires_config(self):
        assert main(["simulate"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize(
        "setting", ["rtol = -1", "atol = -1", "h_floor = -1", "max_steps = 0"]
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_integrator_value_is_a_config_error(
        self, tmp_path, capsys, setting, command
    ):
        # Rejected at parse with its key and line, not by the integrator.
        cfg = tmp_path / "run.cfg"
        line = len(BASE_RUN.splitlines()) + 1
        cfg.write_text(
            BASE_RUN + f"{setting}\n[scenario]\nmass = 0.1\n[sweep]\nh0 = 0.4, 0.5\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        key = setting.split()[0]
        assert f"line {line}: integrator.{key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_step_budget_maps_to_numerical_failure(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + "\n[integrator]\nmax_steps = 10\n")
        # t_max duplicated across sections is fine; max_steps lives in the
        # integrator section of BASE_RUN's text only once.
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3


class TestSweepCommand:
    SWEEP = BASE_RUN + "\n[sweep]\nlambda = 0.5, 1.0, 2.0\n"

    def test_rows_merge_in_grid_order(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.SWEEP)
        out1 = tmp_path / "a"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        rows = read_csv(out1 / "sweep.csv")
        assert rows[0][:2] == ["index", "lambda"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert [float(r[1]) for r in rows[1:]] == [0.5, 1.0, 2.0]
        assert all(r[-2] == "ok" for r in rows[1:])

        # A rerun writes byte-identical files.
        out2 = tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("sweep.csv", "sweep_report.txt"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)

    def test_inertial_rerun_is_identical(self, tmp_path):
        # Inertial points read the Chebyshev tables built for each run.
        cfg = tmp_path / "sweep.cfg"
        short = BASE_RUN.replace("t_max = 200.0", "t_max = 20.0")
        cfg.write_text(short + "[scenario]\nmass = 0.1\n[sweep]\nh0 = 0.4, 0.5\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[-2] for r in read_csv(outs[0] / "sweep.csv")[1:]] == ["ok", "ok"]
        for name in ("sweep.csv", "sweep_report.txt"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)

    def test_workers_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.SWEEP + "workers = 2\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        line = len(self.SWEEP.splitlines()) + 1
        err = capsys.readouterr().err
        assert f"line {line}: unknown key 'workers' in [sweep]" in err

    @pytest.mark.parametrize("axis", ["lambda = -1, 1.0", "beta = 0.1, nan"])
    @pytest.mark.parametrize("partial", [[], ["--allow-partial"]])
    def test_bad_axis_value_is_a_config_error(self, tmp_path, capsys, axis, partial):
        # Rejected at parse, naming the axis and its line, before any point runs.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"[scenario]\nbc = navier\nbeta = 0.1\n\n[sweep]\n{axis}\n")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)] + partial
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 6: " in err and f"sweep.{axis.split()[0]}" in err
        assert not (out / "sweep.csv").exists()

    def test_beta_sweep_needs_navier(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[scenario]\nbc = no_slip\n\n[sweep]\nbeta = 0.05, 0.1\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "line 5: sweep.beta: sweeping beta requires" in capsys.readouterr().err

    def test_partial_failure_reporting(self, tmp_path):
        # The second grid point starts below the contact floor and fails;
        # the sweep exits nonzero unless partial results are requested.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE_RUN + "\n[sweep]\nh0 = 0.5, 1e-10\n")
        out = tmp_path / "strict"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert [r[-2] for r in read_csv(out / "sweep.csv")[1:]] == ["ok", "error"]

        out = tmp_path / "partial"
        rc = main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--allow-partial"]
        )
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[1][-2] == "ok"
        assert rows[2][-2] == "error" and rows[2][-1] != ""

    def test_needs_sweep_section(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE_RUN)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestValidateCommand:
    @pytest.mark.parametrize(
        "check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS]
    )
    def test_check_passes(self, check):
        ok, detail = check()
        assert ok, detail

    def test_runner_reports_each_check(self, tmp_path, capsys, monkeypatch):
        def broken():
            raise ValueError("no data")

        fakes = [
            ("good", lambda: (True, "residual 1e-16")),
            ("bad", lambda: (False, "residual 0.5")),
            ("broken", broken),
        ]
        monkeypatch.setattr(checks, "CHECKS", fakes)
        assert main(["validate", "--out", str(tmp_path)]) == 1
        want = (
            "PASS good: residual 1e-16\n"
            "FAIL bad: residual 0.5\n"
            "FAIL broken: raised ValueError: no data\n"
            "1/3 checks passed\n"
        )
        assert capsys.readouterr().out == want
        assert read_bytes(tmp_path / "validate_report.txt") == want.encode()

        monkeypatch.setattr(checks, "CHECKS", fakes[:1])
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == "PASS good: residual 1e-16\n1/1 checks passed\n"

    def test_fault_injection_is_caught(self, capsys):
        assert main(["validate", "--fault", "gegenbauer"]) == 1
        # The fault must be caught by the independent cross checks.
        assert "FAIL gegenbauer_closed_forms: " in capsys.readouterr().out

    def test_fault_injection_is_restored(self):
        # The series and the closed-form check look up one kernel, by one name.
        original = geometry.gegenbauer_minus_half
        main(["validate", "--fault", "gegenbauer"])
        assert geometry.gegenbauer_minus_half is original
        assert not hasattr(series, "gegenbauer_minus_half")

    @pytest.mark.parametrize(
        "argv", [["--tol", "1e-6"], ["--nmax", "5"], ["--config", "run.cfg"]]
    )
    def test_takes_no_series_options(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["validate"] + argv)
        assert exc.value.code == 2


class TestOutputDirectory:
    """An output directory that cannot be created is a config error (exit 2)
    naming where it was set, raised before any work is done."""

    def test_drag_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["drag", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: cannot create directory")

    def test_validate_out_below_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["validate", "--out", str(taken / "sub")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --out: cannot create directory")
        assert captured.out == ""  # no check ran

    def test_config_output_dir_is_named(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + f"\n[output]\ndir = {taken}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: output.dir: ")


class TestParserBasics:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["drag", "--warp", "9"])
        assert exc.value.code == 2

    def test_module_entry_point_runs_the_cli(self):
        src = str(Path(swimcollide.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "swimcollide.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout.strip() == swimcollide.__version__
