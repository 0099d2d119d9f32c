"""Config parsing and the command line, exercised in process, plus one run
of the module entry point in a subprocess."""

import contextlib
import csv
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import swimcollide
from swimcollide import checks, drag, dynamics, geometry, series
from swimcollide.checks import CHECKS
from swimcollide.cli import _run_report_sections, main
from swimcollide.config import SWEEP_AXES, parse_config, parse_config_text, sweep_scenario
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

    def test_defaults_are_pinned(self):
        # The defaults read from the library resolve to the same lines, so
        # no report's hash moves with them unnoticed.
        cfg = parse_config_text("")
        assert cfg.resolved == (
            "integrator.atol = 9.9999999999999998e-13",
            "integrator.rtol = 1e-08",
            "integrator.t_max = 100",
            "scenario.bc = no_slip",
            "scenario.beta = 0",
            "scenario.f_ext = 0",
            "scenario.f_p = 1",
            "scenario.h0 = 0.5",
            "scenario.lambda = 1",
            "scenario.mass = 0",
            "scenario.mode = active",
            "scenario.s0 = 0",
            "series.tail_tol = 1e-10",
        )
        assert cfg.config_hash() == (
            "8247a0ed74ee3f149ca6377be4e915bf5ee2f541f6d11e379de9525aa624fb09"
        )

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

    @pytest.mark.parametrize(
        "text,line,key",
        [
            ("h0 = 0.5\nmass = -1\n", 3, "mass"),
            ("bc = navier\nbeta = 0.1\nlambda = 1.0\nf_p = -2\n", 5, "f_p"),
            ("mode = passive_forced\nf_ext = 1\ns0 = -1\n", 4, "s0"),
            ("bc = navier\nbeta = -1\n", 3, "beta"),
        ],
        ids=["mass", "f_p", "s0", "beta"],
    )
    def test_scenario_errors_name_their_own_key(self, text, line, key):
        # Each value is checked on its own, not pinned on the first key set.
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[scenario]\n" + text)
        assert (exc.value.key, exc.value.line) == (f"scenario.{key}", line)
        assert str(exc.value).startswith(f"line {line}: scenario.{key}: ")

    @pytest.mark.parametrize("section,key", [("integrator", "t_max"), ("scenario", "bc")])
    def test_empty_value_is_rejected(self, section, key):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"[{section}]\n{key} =\n")
        assert (exc.value.key, exc.value.line) == (f"{section}.{key}", 2)
        assert str(exc.value) == f"line 2: {section}.{key} has no value"

    @pytest.mark.parametrize("raw", ["0.5,,1.0", "0.5, 1.0,"], ids=["doubled", "trailing"])
    def test_empty_list_element_is_rejected(self, raw):
        # A stray comma is no shorter sweep: it names the axis and its line.
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"[sweep]\nlambda = {raw}\n")
        assert (exc.value.key, exc.value.line) == ("sweep.lambda", 2)
        assert str(exc.value) == f"line 2: sweep.lambda has an empty element in {raw!r}"

    def test_beta_requires_navier(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[scenario]\nbc = no_slip\nbeta = 0.1\n")
        assert "slip length" in str(exc.value)
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[scenario]\nh0 = 0.5\nmass = -1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert (exc.value.key, exc.value.line) == ("scenario.mass", 3)
        assert str(exc.value).startswith(f"{path}: line 3: scenario.mass: ")


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
        ],
    )
    def test_bad_option_is_a_config_error(self, tmp_path, capsys, argv, option):
        # Rejected before any output, naming the option, not as a numerical failure.
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
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

    def test_report_counts_points_without_building_them(self):
        cfg = parse_config_text(BASE_RUN)
        traj = dynamics.simulate(cfg.scenario, cfg.t_max)
        result = dict(dict(_run_report_sections(cfg, traj))["result"])
        assert "points" not in vars(traj)
        assert result["points"] == str(len(traj.points))

    def test_requires_config(self):
        assert main(["simulate"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize(
        "setting",
        [
            "rtol = -1",
            "rtol = 1e-16",
            "atol = -1",
            "h_floor = -1",
            "h_floor = 0.6",
            "max_steps = 0",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_integrator_value_is_a_config_error(
        self, tmp_path, capsys, setting, command
    ):
        # Rejected at parse with its key and line, not by the integrator.
        # max_steps is no longer a key: an old config that sets it fails loudly.
        cfg = tmp_path / "run.cfg"
        line = len(BASE_RUN.splitlines()) + 1
        cfg.write_text(
            BASE_RUN + f"{setting}\n[scenario]\nmass = 0.1\n[sweep]\nh0 = 0.4, 0.5\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        key = setting.split()[0]
        expected = (
            f"line {line}: unknown key {key!r} in [integrator]"
            if key == "max_steps"
            else f"line {line}: integrator.{key}: "
        )
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("floor", ["0.5", "0.6"])
    def test_floor_at_or_above_h0_is_a_config_error(self, tmp_path, capsys, floor):
        # The run's own floor rule, applied at parse: exit 2 before any output.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + f"h_floor = {floor}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        line = len(BASE_RUN.splitlines()) + 1
        err = capsys.readouterr().err
        assert f"line {line}: integrator.h_floor: initial half-gap 0.5 is not above" in err
        assert not out.exists()

    def test_sweep_floor_is_checked_against_each_h0(self, tmp_path, capsys):
        # With an h0 axis, each swept h0 is a start the floor must lie below,
        # and the scenario's own h0 is not.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + "h_floor = 0.6\n[sweep]\nh0 = 1.0, 2.0\n")
        assert parse_config(cfg).h_floor == 0.6
        cfg.write_text(BASE_RUN + "h_floor = 0.6\n[sweep]\nh0 = 1.0, 0.55\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        line = len(BASE_RUN.splitlines()) + 1
        err = capsys.readouterr().err
        assert f"line {line}: integrator.h_floor: initial half-gap 0.55 is not above" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (BASE_RUN.replace("h0 = 0.5", "h0 = 1e-10"), "1e-10 is not above the floor 1e-09"),
            (BASE_RUN + "h_floor = 0.6\n[sweep]\nh0 = 1.0, 2\n", "0.5 is not above the floor 0.6"),
        ],
        ids=["default-floor", "floor-above-unswept-h0"],
    )
    def test_simulate_checks_the_floor_before_making_out(self, tmp_path, capsys, text, message):
        # Both configs parse, since the floor rule at parse sees neither the
        # model's default floor nor, with an h0 axis, scenario.h0; simulate
        # starts from scenario.h0 and fails before making --out.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: InvalidRegimeError: initial half-gap {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("[series]\nn_max = 20\n", "n_max", 2),
            ("[integrator]\nmax_steps = 400000\n", "max_steps", 2),
        ],
        ids=["series-n_max", "integrator-max_steps"],
    )
    def test_removed_setting_is_a_config_error(self, tmp_path, capsys, text, key, line):
        # The first mode count and the step budget are fixed, not settings.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"line {line}: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_names_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(BASE_RUN + "[sweep]\nlambda = 0.5,,1.0\n")
        line = len(BASE_RUN.splitlines()) + 2
        assert main(["sweep", "--config", "run.cfg", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: run.cfg: line {line}: sweep.lambda ")
        Path("run.cfg").write_text("[scenario]\nh0 = 0.5\nmass = -1\n")
        assert main(["simulate", "--config", "run.cfg", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.cfg: line 3: scenario.mass: ")
        assert not Path("out").exists()

    def test_step_budget_maps_to_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # A budget bounds the Radau evaluation count of an inertial run.
        monkeypatch.setattr(dynamics, "_RHS_BUDGET", 25)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN + "[scenario]\nmass = 0.1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "StiffnessError: evaluation budget 25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario", ["mass = 1e-300\n", "mass = 0.1\ns0 = 1e300\n"], ids=["tiny_mass", "huge_speed"]
    )
    def test_extreme_inertial_start_is_a_numerical_failure(self, tmp_path, capsys, scenario):
        # Radau's first step underflows to 0 here; the run fails at t = 0 as
        # a StiffnessError, not with a traceback.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN.replace("t_max = 200.0", "t_max = 10.0") + "[scenario]\n" + scenario)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "numerical failure: StiffnessError: " in capsys.readouterr().err

    def test_report_lists_the_settings_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_RUN)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "run_report.txt").read_text()
        assert "series.tail_tol = 1e-10\n" in report
        assert "_effective" not in report and "n_max" not in report and "max_steps" not in report


class TestSweepCommand:
    SWEEP = BASE_RUN + "\n[sweep]\nlambda = 0.5, 1.0, 2.0\n"

    @staticmethod
    def count_passes(monkeypatch):
        """The coefficient passes made from here on: _mode_factor calls."""
        passes = []
        mode_factor = series._mode_factor

        def counting(frame, n_count):
            passes.append(n_count)
            return mode_factor(frame, n_count)

        monkeypatch.setattr(series, "_mode_factor", counting)
        return passes

    @staticmethod
    def sweep_rows(tmp_path, text, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        return read_csv(tmp_path / name / "sweep.csv")

    def test_tip_offsets_share_each_pass(self, tmp_path, monkeypatch):
        # Both collision runs read the same edges. Together each edge costs
        # one pass, for both coefficients and both tip offsets; one tip
        # offset at a time it costs two, and the rows are the same.
        passes = self.count_passes(monkeypatch)
        drag.cache_clear()
        together = self.sweep_rows(tmp_path, BASE_RUN + "[sweep]\nlambda = 1.0, 2.0\n", "both")
        shared = len(passes)
        drag.cache_clear()
        passes.clear()
        alone = [
            self.sweep_rows(tmp_path, BASE_RUN + f"[sweep]\nlambda = {lam}\n", lam)[1]
            for lam in ("1.0", "2.0")
        ]
        assert len(passes) == 2 * shared
        assert [row[1:] for row in together[1:]] == [row[1:] for row in alone]

    def test_a_horizon_sweep_makes_no_more_passes(self, tmp_path, monkeypatch):
        # Runs that end at their horizon read different gaps, so a shared
        # tip offset can be evaluated where its own run never reads. Without
        # the sharing every memo miss is one sum on its own coefficient pass
        # (one each at the default tail_tol): the passes of separate sums.
        text = (
            "[scenario]\nmode = active\nbc = no_slip\n[integrator]\nt_max = 5.0\n"
            "[sweep]\nlambda = 0.02, 1.0, 5.0\nh0 = 0.3, 0.6\n"
        )
        with monkeypatch.context() as patch:
            patch.setattr(drag, "_sharing", lambda lams: contextlib.nullcontext())
            drag.cache_clear()
            alone = self.sweep_rows(tmp_path, text, "alone")
        separate = drag._series_pass.cache_info().misses + drag._series_prop.cache_info().misses
        passes = self.count_passes(monkeypatch)
        drag.cache_clear()
        assert self.sweep_rows(tmp_path, text, "shared") == alone
        assert len(passes) <= separate

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

    def test_series_settings_come_from_the_config(self, tmp_path):
        # The run uses the config's tail_tol, and its report and hash say so.
        outs = {}
        for name, extra in (("default", ""), ("tight", "[series]\ntail_tol = 1e-12\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(BASE_RUN + extra + "[sweep]\nlambda = 1.0\n")
            outs[name] = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--out", str(outs[name])]) == 0
        reports = {k: (v / "sweep_report.txt").read_text() for k, v in outs.items()}
        assert "series.tail_tol = 1e-10\n" in reports["default"]
        assert f"series.tail_tol = {1e-12:.17g}\n" in reports["tight"]
        hashes = {k: r.split("config_hash = ")[1].split()[0] for k, r in reports.items()}
        assert hashes["default"] != hashes["tight"]
        rows = {k: read_csv(v / "sweep.csv")[1] for k, v in outs.items()}
        assert rows["default"][-2:] == rows["tight"][-2:] == ["ok", ""]
        assert rows["default"] != rows["tight"]

    def test_inertial_rerun_is_identical(self, tmp_path):
        # Inertial points read the coefficient reader built for each run.
        cfg = tmp_path / "sweep.cfg"
        short = BASE_RUN.replace("t_max = 200.0", "t_max = 20.0")
        cfg.write_text(short + "[scenario]\nmass = 0.1\n[sweep]\nh0 = 0.4, 0.5\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[-2] for r in read_csv(outs[0] / "sweep.csv")[1:]] == ["ok", "ok"]
        for name in ("sweep.csv", "sweep_report.txt"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)

    def test_passive_rows_have_no_propulsion_factor(self, tmp_path, monkeypatch):
        # A passive pair is pushed by f_ext alone: its rows report
        # kappa_prop_h0 = 0, as its trajectory does, and no propulsion series
        # is evaluated for it.
        def no_series(*args):
            raise AssertionError("a passive sweep evaluated a propulsion series")

        monkeypatch.setattr(drag, "_series_prop", no_series)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[scenario]\nmode = passive_forced\nbc = navier\nbeta = 0.1\nf_ext = 1\n"
            "[sweep]\nh0 = 0.3, 0.5\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        col = rows[0].index("kappa_prop_h0")
        assert [r[col] for r in rows[1:]] == ["0", "0"]
        bc = BoundaryCondition.navier(0.1)
        assert [float(r[col - 1]) for r in rows[1:]] == [
            drag.kappa_pass(h0, bc) for h0 in (0.3, 0.5)
        ]

    @pytest.mark.parametrize("mode", ["active", "passive_forced"])
    def test_rows_read_their_runs_first_point(self, tmp_path, mode):
        # A row's coefficients at h0 are its run's first recorded point, for
        # massless and inertial points, from above and below beta: a passive
        # row writes no propulsion factor, and each is the drag at h0.
        text = (
            f"[scenario]\nmode = {mode}\nbc = navier\nbeta = 0.1\nf_ext = 1\n"
            "[integrator]\nt_max = 2.0\n[sweep]\nh0 = 0.05, 0.5\nmass = 0.0, 0.1\n"
        )
        rows = self.sweep_rows(tmp_path, text, mode)
        cfg = parse_config_text(text)
        col = rows[0].index("kappa_pass_h0")
        assert len(rows) == 5 and rows[0][1:col] == ["h0", "mass"]
        for row in rows[1:]:
            scenario = sweep_scenario(cfg.scenario, {"h0": float(row[1]), "mass": float(row[2])})
            traj = dynamics.simulate(scenario, cfg.t_max, truncation=cfg.truncation)
            got = [float(v) for v in row[col : col + 2]]
            assert row[-2] == "ok" and got == [traj.data[3][0], traj.data[4][0]]
            lam = scenario.lam if scenario.mode is Mode.ACTIVE else None
            kp, kpr = drag.kappa_arrays([scenario.h0], scenario.bc, cfg.truncation, lam)
            assert got == pytest.approx([kp[0], kpr[0]], rel=1e-15, abs=0.0)
            assert (row[col + 1] == "0") is (lam is None)

    @staticmethod
    def axis_values(axis):
        """One to two valid values of a sweep axis: h0, lambda and f_ext,
        which a passive pair needs, are > 0, the others >= 0."""
        values = st.floats(0.0, 1e6, exclude_min=axis in ("h0", "lambda", "f_ext"))
        return st.lists(values, min_size=1, max_size=2)

    @given(
        st.sampled_from(["active", "passive_forced"]),
        st.sets(st.sampled_from(SWEEP_AXES), min_size=1).flatmap(
            lambda names: st.fixed_dictionaries(
                {axis: TestSweepCommand.axis_values(axis) for axis in sorted(names)}
            )
        ),
    )
    def test_every_grid_point_builds(self, mode, axes):
        # parse_config checks each axis value on its own, which is all a
        # scenario checks, so every combination of valid values builds: the
        # sweep needs no failure path for a point that cannot.
        lines = [f"{axis} = " + ", ".join(map(repr, values)) for axis, values in axes.items()]
        cfg = parse_config_text(
            f"[scenario]\nmode = {mode}\nbc = navier\nbeta = 0.1\nf_ext = 1\n"
            "[sweep]\n" + "\n".join(lines) + "\n"
        )
        for combo in itertools.product(*cfg.sweep.values()):
            point = dict(zip(cfg.sweep, combo))
            scenario = sweep_scenario(cfg.scenario, point)
            assert scenario.mode is Mode(mode)
            for axis, value in point.items():
                field = {"lambda": "lam"}.get(axis, axis)
                assert getattr(scenario.bc if axis == "beta" else scenario, field) == value

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

    def test_beta_axis_sets_the_slip_length(self, tmp_path):
        # h0 = 0.05 lies above one slip length and below the other, so each
        # row's drag shows which beta its point ran with.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[scenario]\nmode = passive_forced\nbc = navier\nbeta = 0.5\nf_ext = 1\n"
            "h0 = 0.05\n[sweep]\nbeta = 0.01, 0.1\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0][:2] == ["index", "beta"]
        assert [(r[0], float(r[1])) for r in rows[1:]] == [("0", 0.01), ("1", 0.1)]
        assert all(r[-2] == "ok" for r in rows[1:])
        col = rows[0].index("kappa_pass_h0")
        want = [drag.kappa_pass(0.05, BoundaryCondition.navier(b)) for b in (0.01, 0.1)]
        assert want[0] != want[1]
        assert [float(r[col]) for r in rows[1:]] == want

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

    def test_requires_config(self, capsys):
        assert main(["sweep"]) == 2
        assert "sweep needs --config" in capsys.readouterr().err


class TestValidateCommand:
    @pytest.mark.parametrize(
        "check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS]
    )
    def test_check_passes(self, check):
        ok, detail = check()
        assert ok, detail

    def test_weakened_lubrication_is_caught(self, monkeypatch):
        # kappa_pass scaled by 0.9 below h = 1e-3 still grows like 1 / h, but
        # misses the lubrication limit 3 pi / (2 h) by 10%.
        kappa_pass, kappa_arrays = drag.kappa_pass, drag.kappa_arrays

        def weaken(hs, kp):
            return np.where(np.asarray(hs) < 1e-3, 0.9 * kp, kp)

        def weak_pass(h, bc, truncation=None):
            return float(weaken(h, kappa_pass(h, bc, truncation)))

        def weak_arrays(hs, bc, truncation=None, lam=None):
            kp, kpr = kappa_arrays(hs, bc, truncation, lam)
            return weaken(hs, kp), kpr

        monkeypatch.setattr(drag, "kappa_pass", weak_pass)
        monkeypatch.setattr(drag, "kappa_arrays", weak_arrays)
        named = dict(CHECKS)
        for name in (
            "noslip_time_divergence",
            "exponential_lower_bound",
            "quadrature_vs_simulation",
        ):
            ok, detail = named[name]()
            assert not ok, f"{name}: {detail}"

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

    def test_scaled_gegenbauer_is_caught(self, monkeypatch):
        # The series and the closed-form check look up one kernel, by one
        # name, so scaling it by 1.01 there reaches both, and the independent
        # cross checks catch it.
        assert not hasattr(series, "gegenbauer_minus_half")
        kernel = geometry.gegenbauer_minus_half
        monkeypatch.setattr(
            geometry, "gegenbauer_minus_half", lambda n_count, x: kernel(n_count, x) * 1.01
        )
        failed = {name for name, fn in CHECKS if not fn()[0]}
        assert failed == {
            "gegenbauer_closed_forms",
            "axis_velocity_vs_stream_fd",
            "surface_noslip_convergence",
        }

    @pytest.mark.parametrize(
        "argv",
        [["--tol", "1e-6"], ["--nmax", "5"], ["--config", "run.cfg"], ["--fault", "gegenbauer"]],
    )
    def test_takes_no_series_options(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["validate"] + argv)
        assert exc.value.code == 2


def _accepts_all(text):
    return None


def _mislocates_all(text):
    raise ConfigError("stand-in", key="scenario.mode", line=1)


def _locates_bad_float_only(text):
    return parse_config_text(text) if "oops" in text else None


def _mislocates_unknown_key(text):
    return parse_config_text(text) if "oops" in text else _mislocates_all(text)


class TestConfigErrorCheck:
    """Each failure the config_error_locations check reports, from a lenient
    or mislocating stand-in for the parser or the scenario."""

    @pytest.mark.parametrize(
        "parse, scenario, detail",
        [
            (_accepts_all, None, "bad float was accepted"),
            (_mislocates_all, None, "wrong location: key scenario.mode, line 1"),
            (_locates_bad_float_only, None, "unknown key was accepted"),
            (_mislocates_unknown_key, None, "wrong line for unknown key: 1"),
            (None, lambda **fields: None, "negative gap was accepted"),
        ],
        ids=["bad-float", "bad-location", "unknown-key", "unknown-key-line", "negative-gap"],
    )
    def test_failure_is_reported(self, monkeypatch, parse, scenario, detail):
        if parse is not None:
            monkeypatch.setattr(checks, "parse_config_text", parse)
        if scenario is not None:
            monkeypatch.setattr(checks, "SwimmerScenario", scenario)
        assert dict(CHECKS)["config_error_locations"]() == (False, detail)


class TestOutputDirectory:
    """--out names the output directory; one that cannot be created is a
    config error (exit 2) naming --out, raised before any work is done."""

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

    def test_config_output_dir_is_named(self, tmp_path, capsys, monkeypatch):
        # --out is the one route: an [output] section is a config error that
        # names its line, and no directory is made.
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(BASE_RUN + "\n[output]\ndir = elsewhere\n")
        line = len(BASE_RUN.splitlines()) + 2
        assert main(["simulate", "--config", "run.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: run.cfg: line {line}: unknown section [output]")
        assert not Path("elsewhere").exists() and not Path("out").exists()


class TestParserBasics:
    @pytest.mark.parametrize(
        "argv",
        [
            ["drag", "--config", "run.cfg"],
            ["drag", "--nmax", "5"],
            ["simulate", "--config", "run.cfg", "--tol", "1e-12"],
            ["sweep", "--config", "run.cfg", "--nmax", "64"],
        ],
        ids=["drag-config", "drag-nmax", "simulate-tol", "sweep-nmax"],
    )
    def test_each_setting_has_one_route(self, tmp_path, monkeypatch, argv):
        # drag takes its settings from its options only, simulate and sweep
        # from the config only: any other route is a usage error.
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(BASE_RUN + "[sweep]\nh0 = 0.4\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", "out"])
        assert exc.value.code == 2
        assert not Path("out").exists()

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
