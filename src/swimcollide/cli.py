"""Command line front end.

Subcommands:

    drag      tabulate kappa_pass / kappa_prop over a gap grid
    simulate  integrate one encounter from a config file
    sweep     run a parameter grid from the [sweep] section of a config
    validate  run the physics and plumbing checks of swimcollide.checks

drag, simulate and sweep share --config, --out, --tol and --nmax, where
--tol and --nmax override the series truncation of the config (or the
SeriesTruncation defaults when drag runs without one). drag's --bc, --beta
and --lam set what the config's [scenario] would, so they are an error with
--config. validate takes only --out, which also writes validate_report.txt,
and --fault.

Exit codes: 0 success, 1 validation failure, 2 config or usage error,
3 numerical failure. All floating point output is written with 17
significant digits, and identical inputs produce byte-identical files:
reports carry no timestamps, and sweep runs its grid points one after
another and writes the rows in grid order.
"""

import argparse
import contextlib
import csv
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import __version__, checks, drag, dynamics
from .config import parse_config, sweep_scenario
from .drag import BoundaryCondition
from .errors import (
    ConfigError,
    DomainError,
    InvalidRegimeError,
    StiffnessError,
    TruncationError,
)
from .series import SeriesTruncation

# Only the benchmark (bench/workloads.py) sets this; nothing reads it.
THREADS_ENV = "SWIMCOLLIDE_THREADS"


def _fmt(x):
    if x is None:
        return ""
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(path, sections):
    """sections: list of (title, [(key, value), ...])."""
    lines = []
    for title, pairs in sections:
        lines.append(f"[{title}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
        lines.append("")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _resolve_truncation(cfg_trunc, args):
    """cfg_trunc with the --nmax and --tol overrides applied, each checked."""
    trunc = cfg_trunc
    for option, name, value in (("--nmax", "n_max", args.nmax), ("--tol", "tail_tol", args.tol)):
        if value is not None:
            try:
                trunc = dataclasses.replace(trunc, **{name: value})
            except DomainError as exc:
                raise ConfigError(f"{option}: {exc}") from None
    return trunc


def _out_dir(args, cfg=None):
    """The output directory, created if missing. One that cannot be created
    is a config error naming where it was set: --out or output.dir."""
    from_cfg = not args.out and cfg is not None and cfg.out_dir
    out = cfg.out_dir if from_cfg else args.out or "out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        where = "output.dir" if from_cfg else "--out"
        raise ConfigError(f"{where}: cannot create directory {out!r}: {exc.strerror}") from None
    return out


# The drag options a config's [scenario] section sets, with their values
# when drag runs without a config.
_DRAG_SCENARIO_OPTIONS = {"bc": "no_slip", "beta": 0.0, "lam": 1.0}


def cmd_drag(args):
    if args.config:
        for name in _DRAG_SCENARIO_OPTIONS:
            if getattr(args, name) is not None:
                raise ConfigError(f"--{name}: not allowed with --config, which sets it")
        cfg = parse_config(args.config)
        bc = cfg.scenario.bc
        lam = cfg.scenario.lam
        trunc = _resolve_truncation(cfg.truncation, args)
    else:
        cfg = None
        kind, beta, lam = (
            default if getattr(args, name) is None else getattr(args, name)
            for name, default in _DRAG_SCENARIO_OPTIONS.items()
        )
        try:
            bc = BoundaryCondition(kind=kind, beta=beta)
        except DomainError as exc:
            raise ConfigError(f"--beta: {exc}") from None
        if not np.isfinite(lam) or lam <= 0.0:
            raise ConfigError(f"--lam: tip offset must be finite and positive, got {lam}")
        trunc = _resolve_truncation(SeriesTruncation(), args)
    if not 0.0 < args.h_min < args.h_max < np.inf or args.points < 2:
        raise ConfigError(
            f"need 0 < h-min < h-max < inf and points >= 2, "
            f"got {args.h_min}, {args.h_max}, {args.points}"
        )
    out = _out_dir(args, cfg)

    grid = np.geomspace(args.h_min, args.h_max, args.points)
    rows = []
    for h in grid:
        co = drag.coefficients(float(h), lam, bc, trunc)
        rows.append(
            [_fmt(co.h), _fmt(co.kappa_pass), _fmt(co.kappa_prop), co.provenance.value]
        )
    table = os.path.join(out, "drag_table.csv")
    _write_csv(table, ["h", "kappa_pass", "kappa_prop", "provenance"], rows)
    _write_report(
        os.path.join(out, "drag_report.txt"),
        [
            (
                "drag",
                [
                    ("bc", bc.kind),
                    ("beta", _fmt(bc.beta)),
                    ("lambda", _fmt(lam)),
                    ("h_min", _fmt(args.h_min)),
                    ("h_max", _fmt(args.h_max)),
                    ("points", str(args.points)),
                    ("n_max", str(trunc.n_max)),
                    ("tail_tol", _fmt(trunc.tail_tol)),
                ],
            ),
            ("package", [("version", __version__)]),
        ],
    )
    print(f"wrote {table} ({args.points} gaps, bc = {bc.kind})")
    return 0


def _run_report_sections(cfg, trunc, traj):
    result = [
        ("termination", traj.termination.value),
        ("t_coll", _fmt(traj.t_coll) if traj.t_coll is not None else "none"),
        ("t_end", _fmt(traj.t_end)),
        ("min_h", _fmt(traj.min_h)),
        ("h_floor", _fmt(traj.h_floor)),
        ("points", str(len(traj.points))),
    ]
    cfg_pairs = [tuple(line.split(" = ", 1)) for line in cfg.resolved]
    cfg_pairs += [
        ("series.n_max_effective", str(trunc.n_max)),
        ("series.tail_tol_effective", _fmt(trunc.tail_tol)),
        ("config_hash", cfg.config_hash()),
    ]
    return [
        ("config", cfg_pairs),
        ("result", result),
        ("package", [("version", __version__)]),
    ]


def cmd_simulate(args):
    if not args.config:
        raise ConfigError("simulate needs --config")
    cfg = parse_config(args.config)
    trunc = _resolve_truncation(cfg.truncation, args)
    out = _out_dir(args, cfg)

    traj = dynamics.simulate(
        cfg.scenario,
        cfg.t_max,
        h_floor=cfg.h_floor,
        rtol=cfg.rtol,
        atol=cfg.atol,
        truncation=trunc,
        max_steps=cfg.max_steps,
    )
    rows = [
        [_fmt(p.t), _fmt(p.h), _fmt(p.hdot), _fmt(p.kappa_pass), _fmt(p.kappa_prop)]
        for p in traj.points
    ]
    table = os.path.join(out, "trajectory.csv")
    _write_csv(table, ["t", "h", "hdot", "kappa_pass", "kappa_prop"], rows)
    _write_report(
        os.path.join(out, "run_report.txt"), _run_report_sections(cfg, trunc, traj)
    )
    t_coll = _fmt(traj.t_coll) if traj.t_coll is not None else "none"
    print(
        f"termination = {traj.termination.value}, t_coll = {t_coll}, "
        f"min_h = {_fmt(traj.min_h)}, points = {len(traj.points)}"
    )
    return 0


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("sweep needs --config")
    cfg = parse_config(args.config)
    if not cfg.sweep:
        raise ConfigError("sweep needs a [sweep] section with at least one axis")
    trunc = _resolve_truncation(cfg.truncation, args)
    out = _out_dir(args, cfg)

    axes = list(cfg.sweep)
    grid = itertools.product(*[cfg.sweep[axis] for axis in axes])
    rows = []
    failures = []
    for idx, combo in enumerate(grid):
        head = [str(idx)] + [_fmt(v) for v in combo]
        try:
            scenario = sweep_scenario(cfg.scenario, dict(zip(axes, combo)))
            co = drag.coefficients(scenario.h0, scenario.lam, scenario.bc, trunc)
            traj = dynamics.simulate(
                scenario,
                cfg.t_max,
                h_floor=cfg.h_floor,
                rtol=cfg.rtol,
                atol=cfg.atol,
                truncation=trunc,
                max_steps=cfg.max_steps,
            )
        except ConfigError:
            raise
        except Exception as exc:  # recorded per point, reported at exit
            reason = f"{type(exc).__name__}: {exc}"
            failures.append((idx, reason))
            rows.append(head + ["", "", "", "", "", "error", reason])
        else:
            rows.append(
                head
                + [
                    _fmt(co.kappa_pass),
                    _fmt(co.kappa_prop),
                    traj.termination.value,
                    _fmt(traj.t_coll),
                    _fmt(traj.min_h),
                    "ok",
                    "",
                ]
            )

    header = (
        ["index"]
        + axes
        + ["kappa_pass_h0", "kappa_prop_h0", "termination", "t_coll", "min_h", "status", "error"]
    )
    table = os.path.join(out, "sweep.csv")
    _write_csv(table, header, rows)

    outcome = [
        ("points", str(len(rows))),
        ("failed", str(len(failures))),
        ("axes", ", ".join(axes)),
    ]
    cfg_pairs = [tuple(line.split(" = ", 1)) for line in cfg.resolved]
    cfg_pairs.append(("config_hash", cfg.config_hash()))
    _write_report(
        os.path.join(out, "sweep_report.txt"),
        [
            ("config", cfg_pairs),
            ("result", outcome),
            ("package", [("version", __version__)]),
        ],
    )
    print(f"wrote {table} ({len(rows)} points, {len(failures)} failed)")
    if failures and not args.allow_partial:
        first, reason = failures[0]
        print(
            f"point {first} failed: {reason} (rerun with --allow-partial "
            "to keep going)",
            file=sys.stderr,
        )
        return 3
    return 0


_FAULTS = ("gegenbauer",)


def cmd_validate(args):
    if args.fault and args.fault not in _FAULTS:
        raise ConfigError(f"unknown fault {args.fault!r}; choose from {_FAULTS}")
    out = _out_dir(args) if args.out else None
    lines = []
    failures = 0
    with checks.scaled_gegenbauer(1.01) if args.fault else contextlib.nullcontext():
        for name, fn in checks.CHECKS:
            try:
                ok, detail = fn()
            except Exception as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            line = f"{status} {name}: {detail}"
            lines.append(line)
            print(line)
    summary = f"{len(checks.CHECKS) - failures}/{len(checks.CHECKS)} checks passed"
    if args.fault:
        summary += f" (fault injected: {args.fault})"
    lines.append(summary)
    print(summary)
    if out:
        with open(
            os.path.join(out, "validate_report.txt"), "w", newline="\n", encoding="utf-8"
        ) as fh:
            fh.write("\n".join(lines) + "\n")
    return 1 if failures else 0


def _add_common(sub):
    sub.add_argument("--config", help="run configuration file")
    sub.add_argument("--out", help="output directory (default ./out)")
    sub.add_argument("--tol", type=float, help="series tail tolerance override")
    sub.add_argument("--nmax", type=int, help="smallest starting series mode count override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swimcollide",
        description="Head-on hydrodynamics of a mirror pair of model swimmers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_drag = subs.add_parser("drag", help="tabulate drag coefficients over a gap grid")
    _add_common(p_drag)
    # These default to None, which marks an option not given; --config forbids them.
    d = _DRAG_SCENARIO_OPTIONS
    p_drag.add_argument("--bc", choices=["no_slip", "navier"], help=f"wall model (default {d['bc']})")
    p_drag.add_argument("--beta", type=float, help=f"slip length (default {d['beta']})")
    p_drag.add_argument("--lam", type=float, help=f"propulsion tip offset (default {d['lam']})")
    p_drag.add_argument("--h-min", type=float, default=1e-4)
    p_drag.add_argument("--h-max", type=float, default=10.0)
    p_drag.add_argument("--points", type=int, default=25)
    p_drag.set_defaults(func=cmd_drag)

    p_sim = subs.add_parser("simulate", help="integrate one encounter")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = subs.add_parser("sweep", help="run the [sweep] grid of a config")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--allow-partial",
        action="store_true",
        help="keep going when points fail; failed rows are marked in the CSV",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = subs.add_parser("validate", help="run the built-in checks")
    p_val.add_argument("--out", help="also write validate_report.txt to this directory")
    p_val.add_argument(
        "--fault",
        help="inject a known fault (for testing the checks themselves): gegenbauer",
    )
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, StiffnessError, InvalidRegimeError, DomainError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
