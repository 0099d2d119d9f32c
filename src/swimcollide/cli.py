"""Command line front end.

Subcommands:

    drag      tabulate kappa_pass / kappa_prop over a gap grid
    simulate  integrate one encounter from a config file
    sweep     run a parameter grid from the [sweep] section of a config
    validate  run the physics and plumbing checks of swimcollide.checks

simulate and sweep take --config and --out, and every setting of the run
comes from the config, whose [config] lines and hash in the report are the
settings the run used. drag reads no config: it starts from the empty
config's settings, and --bc, --beta, --lam and --tol apply to them, as its
report lists. drag also takes --h-min, --h-max, --points and --out; sweep
takes --allow-partial. validate takes only --out, which also writes
validate_report.txt. --out is the one way to name the output directory.

Exit codes: 0 success, 1 validation failure, 2 config or usage error,
3 numerical failure. All floating point output is written with 17
significant digits, and identical inputs produce byte-identical files:
reports carry no timestamps, and sweep runs its grid points one after
another and writes the rows in grid order. A sweep row's coefficients at
h0 are its run's first recorded point. While a sweep runs, a propulsion
series that one point misses at a gap is evaluated there for the tip
offsets of all its active points at once, so points that differ only in
lambda share each coefficient pass; values are unchanged. drag reads its
whole table in one drag.kappa_arrays call and tags each gap with
drag.coefficients' provenance.
"""

import argparse
import csv
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import __version__, checks, drag, dynamics
from .config import parse_config, parse_config_text, sweep_scenario
from .errors import (
    ConfigError,
    DomainError,
    InvalidRegimeError,
    StiffnessError,
    TruncationError,
)

# Only the benchmark (bench/workloads.py) sets this; nothing reads it.
THREADS_ENV = "SWIMCOLLIDE_THREADS"


def _fmt(x):
    if x is None:
        return ""
    return format(float(x), ".17g")


def _output(path):
    """path opened to write text, UTF-8 with "\n" line ends: every output file."""
    return open(path, "w", newline="\n", encoding="utf-8")


def _write_csv(path, header, rows):
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(path, sections):
    """sections: list of (title, [(key, value), ...]), then [package]."""
    lines = []
    for title, pairs in sections + [("package", [("version", __version__)])]:
        lines.append(f"[{title}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
        lines.append("")
    with _output(path) as fh:
        fh.write("\n".join(lines))


def _override(obj, args, fields):
    """obj with each option given in args applied and checked; fields maps
    an option's name, without its dashes, to the field of obj it sets."""
    for name, attr in fields.items():
        value = getattr(args, name)
        if value is not None:
            try:
                obj = dataclasses.replace(obj, **{attr: value})
            except DomainError as exc:
                raise ConfigError(f"--{name}: {exc}") from None
    return obj


def _out_dir(args):
    """The --out directory, ./out by default, created if missing. One that
    cannot be created is a config error naming --out."""
    out = args.out or "out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {out!r}: {exc.strerror}") from None
    return out


def cmd_drag(args):
    # drag starts from the empty config, and its options apply to that.
    cfg = parse_config_text("")
    bc = _override(cfg.scenario.bc, args, {"bc": "kind", "beta": "beta"})
    lam = _override(cfg.scenario, args, {"lam": "lam"}).lam
    trunc = _override(cfg.truncation, args, {"tol": "tail_tol"})
    if not 0.0 < args.h_min < args.h_max < np.inf or args.points < 2:
        raise ConfigError(
            f"need 0 < h-min < h-max < inf and points >= 2, "
            f"got {args.h_min}, {args.h_max}, {args.points}"
        )
    out = _out_dir(args)

    grid = np.geomspace(args.h_min, args.h_max, args.points)
    kp, kpr = drag.kappa_arrays(grid, bc, trunc, lam)
    rows = [
        [_fmt(h), _fmt(a), _fmt(b), drag._provenance(h, bc).value]
        for h, a, b in zip(grid.tolist(), kp.tolist(), kpr.tolist())
    ]
    table = os.path.join(out, "drag_table.csv")
    _write_csv(table, ["h", "kappa_pass", "kappa_prop", "provenance"], rows)
    settings = [
        ("bc", bc.kind),
        ("beta", _fmt(bc.beta)),
        ("lambda", _fmt(lam)),
        ("h_min", _fmt(args.h_min)),
        ("h_max", _fmt(args.h_max)),
        ("points", str(args.points)),
        ("tail_tol", _fmt(trunc.tail_tol)),
    ]
    _write_report(os.path.join(out, "drag_report.txt"), [("drag", settings)])
    print(f"wrote {table} ({args.points} gaps, bc = {bc.kind})")
    return 0


def _simulate(cfg, scenario):
    """dynamics.simulate of scenario under cfg's series and integrator settings."""
    return dynamics.simulate(
        scenario,
        cfg.t_max,
        h_floor=cfg.h_floor,
        rtol=cfg.rtol,
        atol=cfg.atol,
        truncation=cfg.truncation,
    )


def _config_pairs(cfg):
    """The report's [config] pairs: the resolved settings, then the hash."""
    pairs = [tuple(line.split(" = ", 1)) for line in cfg.resolved]
    return pairs + [("config_hash", cfg.config_hash())]


def _t_coll(traj):
    """t_coll as the report and the summary line print it."""
    return "none" if traj.t_coll is None else _fmt(traj.t_coll)


def _run_report_sections(cfg, traj):
    result = [
        ("termination", traj.termination.value),
        ("t_coll", _t_coll(traj)),
        ("t_end", _fmt(traj.t_end)),
        ("min_h", _fmt(traj.min_h)),
        ("h_floor", _fmt(traj.h_floor)),
        ("points", str(len(traj.data[0]))),
    ]
    return [("config", _config_pairs(cfg)), ("result", result)]


def cmd_simulate(args):
    if not args.config:
        raise ConfigError("simulate needs --config")
    cfg = parse_config(args.config)
    # The floor rule raises before --out is made, so a run that cannot start
    # leaves no directory behind.
    dynamics._floor(cfg.scenario, cfg.h_floor)
    out = _out_dir(args)

    traj = _simulate(cfg, cfg.scenario)
    columns = traj.columns()
    table = os.path.join(out, "trajectory.csv")
    _write_csv(table, list(columns), zip(*(map(_fmt, c) for c in columns.values())))
    _write_report(os.path.join(out, "run_report.txt"), _run_report_sections(cfg, traj))
    print(
        f"termination = {traj.termination.value}, t_coll = {_t_coll(traj)}, "
        f"min_h = {_fmt(traj.min_h)}, points = {len(traj.data[0])}"
    )
    return 0


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("sweep needs --config")
    cfg = parse_config(args.config)
    if not cfg.sweep:
        raise ConfigError("sweep needs a [sweep] section with at least one axis")
    out = _out_dir(args)

    axes = list(cfg.sweep)
    grid = list(itertools.product(*[cfg.sweep[axis] for axis in axes]))
    # parse_config has checked every axis value, each on its own, which is
    # all a scenario checks, so every grid point builds.
    scenarios = [sweep_scenario(cfg.scenario, dict(zip(axes, combo))) for combo in grid]
    # A propulsion series that one active point misses at a gap is evaluated
    # there for the tip offsets of all of them at once.
    lams = [s.lam for s in scenarios if s.mode is dynamics.Mode.ACTIVE]
    rows = []
    failures = []
    with drag._sharing(lams):
        for idx, (combo, scenario) in enumerate(zip(grid, scenarios)):
            head = [str(idx)] + [_fmt(v) for v in combo]
            try:
                traj = _simulate(cfg, scenario)
            except Exception as exc:  # recorded per point, reported at exit
                reason = f"{type(exc).__name__}: {exc}"
                failures.append((idx, reason))
                rows.append(head + ["", "", "", "", "", "error", reason])
            else:
                start = dynamics.TrajectoryPoint(*(column[0] for column in traj.data))
                kappas = [_fmt(start.kappa_pass), _fmt(start.kappa_prop)]
                result = [traj.termination.value, _fmt(traj.t_coll), _fmt(traj.min_h)]
                rows.append(head + kappas + result + ["ok", ""])

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
    sections = [("config", _config_pairs(cfg)), ("result", outcome)]
    _write_report(os.path.join(out, "sweep_report.txt"), sections)
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


def cmd_validate(args):
    out = _out_dir(args) if args.out else None
    lines = []
    failures = 0
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
    lines.append(summary)
    print(summary)
    if out:
        with _output(os.path.join(out, "validate_report.txt")) as fh:
            fh.write("\n".join(lines) + "\n")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swimcollide",
        description="Head-on hydrodynamics of a mirror pair of model swimmers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_drag = subs.add_parser("drag", help="tabulate drag coefficients over a gap grid")
    # These default to None, which marks an option not given. The defaults
    # named are the empty config's.
    empty = parse_config_text("")
    d, t = empty.scenario, empty.truncation
    p_drag.add_argument("--bc", choices=["no_slip", "navier"], help=f"wall model (default {d.bc.kind})")
    p_drag.add_argument("--beta", type=float, help=f"slip length (default {d.bc.beta})")
    p_drag.add_argument("--lam", type=float, help=f"propulsion tip offset (default {d.lam})")
    p_drag.add_argument("--tol", type=float, help=f"series tail tolerance (default {t.tail_tol})")
    p_drag.add_argument("--h-min", type=float, default=1e-4)
    p_drag.add_argument("--h-max", type=float, default=10.0)
    p_drag.add_argument("--points", type=int, default=25)
    p_drag.add_argument("--out", help="output directory (default ./out)")
    p_drag.set_defaults(func=cmd_drag)

    p_sim = subs.add_parser("simulate", help="integrate one encounter")
    p_sweep = subs.add_parser("sweep", help="run the [sweep] grid of a config")
    for sub in (p_sim, p_sweep):
        sub.add_argument("--config", help="run configuration file, the only source of settings")
        sub.add_argument("--out", help="output directory (default ./out)")
    p_sim.set_defaults(func=cmd_simulate)
    p_sweep.add_argument(
        "--allow-partial",
        action="store_true",
        help="keep going when points fail; failed rows are marked in the CSV",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = subs.add_parser("validate", help="run the built-in checks")
    p_val.add_argument("--out", help="also write validate_report.txt to this directory")
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
