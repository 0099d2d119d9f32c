"""Command line front end.

Subcommands:

    drag      tabulate kappa_pass / kappa_prop over a gap grid
    simulate  integrate one encounter from a config file
    sweep     run a parameter grid from the [sweep] section of a config
    validate  run the built-in physics and plumbing checks

Exit codes: 0 success, 1 validation failure, 2 config or usage error,
3 numerical failure. All floating point output is written with 17
significant digits, and identical inputs produce byte-identical files:
reports carry no timestamps and sweep rows are merged in grid order no
matter how many worker threads ran them.
"""

import argparse
import contextlib
import csv
import dataclasses
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, drag, dynamics, geometry, series, stokeslet
from .config import SWEEP_AXES, parse_config, parse_config_text
from .drag import BoundaryCondition
from .dynamics import Mode, SwimmerScenario, TerminationKind
from .errors import (
    ConfigError,
    DomainError,
    InvalidRegimeError,
    StiffnessError,
    TruncationError,
)
from .geometry import AxisymPoint, BipolarPoint, frame_from_gap
from .series import SeriesTruncation

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
    n_max = args.nmax if args.nmax is not None else cfg_trunc.n_max
    tail_tol = args.tol if args.tol is not None else cfg_trunc.tail_tol
    return SeriesTruncation(n_max=n_max, tail_tol=tail_tol)


def _out_dir(args, cfg=None):
    out = args.out or (cfg.out_dir if cfg is not None else None) or "out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_drag(args):
    if args.config:
        cfg = parse_config(args.config)
        bc = cfg.scenario.bc
        lam = cfg.scenario.lam
        trunc = _resolve_truncation(cfg.truncation, args)
    else:
        cfg = None
        bc = BoundaryCondition(kind=args.bc, beta=args.beta)
        lam = args.lam
        trunc = SeriesTruncation(
            n_max=args.nmax if args.nmax is not None else 20,
            tail_tol=args.tol if args.tol is not None else 1e-10,
        )
    if args.h_min <= 0 or args.h_max <= args.h_min or args.points < 2:
        raise ConfigError(
            f"need 0 < h-min < h-max and points >= 2, "
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
    cfg_pairs = [tuple(line.split(" = ", 1)) for line in cfg.resolved_lines()]
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


def _sweep_scenario(base, axes, combo):
    """Scenario for one grid point; axis values override the base scenario."""
    named = dict(zip(axes, combo))
    bc = base.bc
    if "beta" in named:
        if bc.kind != "navier":
            raise ConfigError("sweeping beta requires scenario bc = navier")
        bc = BoundaryCondition.navier(named["beta"])
    return dataclasses.replace(
        base,
        bc=bc,
        h0=named.get("h0", base.h0),
        s0=named.get("s0", base.s0),
        mass=named.get("mass", base.mass),
        f_p=named.get("f_p", base.f_p),
        lam=named.get("lambda", base.lam),
        f_ext=named.get("f_ext", base.f_ext),
    )


def _worker_count(cfg):
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}")
        if n < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1, got {n}")
        return n
    return cfg.workers


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("sweep needs --config")
    cfg = parse_config(args.config)
    if not cfg.sweep:
        raise ConfigError("sweep needs a [sweep] section with at least one axis")
    trunc = _resolve_truncation(cfg.truncation, args)
    out = _out_dir(args, cfg)

    axes = [axis for axis in SWEEP_AXES if axis in cfg.sweep]
    grid = list(itertools.product(*[cfg.sweep[axis] for axis in axes]))

    def run_point(idx_combo):
        idx, combo = idx_combo
        scenario = _sweep_scenario(cfg.scenario, axes, combo)
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
        return {
            "kappa_pass_h0": co.kappa_pass,
            "kappa_prop_h0": co.kappa_prop,
            "termination": traj.termination.value,
            "t_coll": traj.t_coll,
            "min_h": traj.min_h,
        }

    results = {}
    failures = {}
    workers = _worker_count(cfg)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(run_point, (idx, combo)): idx
            for idx, combo in enumerate(grid)
        }
        for future, idx in futures.items():
            try:
                results[idx] = future.result()
            except ConfigError:
                raise
            except Exception as exc:  # recorded per point, reported at exit
                failures[idx] = f"{type(exc).__name__}: {exc}"

    # merge strictly by grid index so worker scheduling cannot reorder rows
    rows = []
    for idx, combo in enumerate(grid):
        head = [str(idx)] + [_fmt(v) for v in combo]
        if idx in results:
            r = results[idx]
            rows.append(
                head
                + [
                    _fmt(r["kappa_pass_h0"]),
                    _fmt(r["kappa_prop_h0"]),
                    r["termination"],
                    _fmt(r["t_coll"]),
                    _fmt(r["min_h"]),
                    "ok",
                    "",
                ]
            )
        else:
            rows.append(head + ["", "", "", "", "", "error", failures[idx]])

    header = (
        ["index"]
        + axes
        + ["kappa_pass_h0", "kappa_prop_h0", "termination", "t_coll", "min_h", "status", "error"]
    )
    table = os.path.join(out, "sweep.csv")
    _write_csv(table, header, rows)

    outcome = [
        ("points", str(len(grid))),
        ("failed", str(len(failures))),
        ("axes", ", ".join(axes)),
        ("workers", str(workers)),
    ]
    cfg_pairs = [tuple(line.split(" = ", 1)) for line in cfg.resolved_lines()]
    cfg_pairs.append(("config_hash", cfg.config_hash()))
    _write_report(
        os.path.join(out, "sweep_report.txt"),
        [
            ("config", cfg_pairs),
            ("result", outcome),
            ("package", [("version", __version__)]),
        ],
    )
    print(f"wrote {table} ({len(grid)} points, {len(failures)} failed)")
    if failures and not args.allow_partial:
        first = min(failures)
        print(
            f"point {first} failed: {failures[first]} (rerun with --allow-partial "
            "to keep going)",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# validate


def _check_frame_identities():
    worst = 0.0
    for h in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        fr = frame_from_gap(h)
        worst = max(
            worst,
            abs(np.cosh(fr.alpha) - (1.0 + h)) / (1.0 + h),
            abs(np.sinh(fr.alpha) - fr.c) / fr.c,
        )
    return worst < 1e-12, f"max identity residual {worst:.2e}"


def _check_bipolar_roundtrip():
    fr = frame_from_gap(0.37)
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    while n < 40:
        rho = float(rng.uniform(0.0, 4.0))
        z = float(rng.uniform(0.0, 4.0))
        if np.hypot(rho, z - fr.c) < 1e-3:
            continue
        n += 1
        q = geometry.to_bipolar(fr, AxisymPoint(rho=rho, z=z))
        p = geometry.from_bipolar(fr, q)
        worst = max(worst, np.hypot(p.rho - rho, p.z - z) / max(1.0, np.hypot(rho, z)))
    return worst < 1e-10, f"max roundtrip error {worst:.2e} over 40 points"


def _check_surface_sphere():
    fr = frame_from_gap(0.8)
    worst = 0.0
    for eta in np.linspace(1e-3, np.pi, 25):
        p = geometry.from_bipolar(fr, BipolarPoint(zeta=fr.alpha, eta=float(eta)))
        worst = max(worst, abs(np.hypot(p.rho, p.z - (1.0 + fr.h)) - 1.0))
    return worst < 1e-12, f"max radius deviation {worst:.2e}"


def _check_legendre():
    p1 = geometry.legendre_values(60, 1.0)
    pm1 = geometry.legendre_values(60, -1.0)
    signs = np.array([(-1.0) ** n for n in range(61)])
    worst = max(np.max(np.abs(p1 - 1.0)), np.max(np.abs(pm1 - signs)))
    worst = max(worst, abs(geometry.legendre_values(2, 0.5)[2] - (-0.125)))
    return worst < 1e-13, f"max endpoint/value residual {worst:.2e}"


def _check_gegenbauer_closed_forms():
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 21):
        worst = max(
            worst,
            abs(geometry.gegenbauer_minus_half(1, float(x)) - (1.0 - x * x) / 2.0),
            abs(geometry.gegenbauer_minus_half(2, float(x)) - x * (1.0 - x * x) / 2.0),
        )
    return worst < 1e-14, f"max closed-form residual {worst:.2e}"


def _check_nonpenetration():
    worst_scaled = 0.0
    best_unscaled = np.inf
    for h in (0.05, 0.5):
        sol = series.solve_coefficients(frame_from_gap(h), 2.0)
        rep = series.nonpenetration_report(sol)
        worst_scaled = max(worst_scaled, rep.max_residual)
        best_unscaled = min(best_unscaled, rep.max_residual_unscaled)
    ok = worst_scaled < 1e-12 and best_unscaled > 1e-3
    return ok, (
        f"scaled residual {worst_scaled:.2e}, unscaled {best_unscaled:.2e} at w = 2"
    )


def _check_mode_profile_routes():
    sol = series.solve_coefficients(frame_from_gap(0.1), 1.0, SeriesTruncation(n_max=64))
    al = sol.frame.alpha
    worst = 0.0
    for n in (1, 5, 20, 45):
        for zeta in (0.3 * al, 0.7 * al, al):
            a = series.mode_profile(sol, n, zeta)
            b = series.mode_profile_via_source(sol, n, zeta)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst < 1e-10, f"max dual-route deviation {worst:.2e}"


def _check_midplane():
    sol = series.solve_coefficients(frame_from_gap(0.25), 1.0)
    worst = 0.0
    for eta in np.linspace(0.3, np.pi, 10):
        worst = max(
            worst, abs(series.stream_function(sol, BipolarPoint(zeta=0.0, eta=float(eta))))
        )
    return worst < 1e-12, f"max |psi| on the midplane {worst:.2e}"


def _axis_velocity_fd(sol, z0, rho=1e-3):
    """Independent axis velocity: u_z = 2 psi / rho^2 near the axis, with one
    Richardson step to cancel the leading rho^2 correction."""

    def probe(r):
        q = geometry.to_bipolar(sol.frame, AxisymPoint(rho=r, z=z0))
        return 2.0 * series.stream_function(sol, q) / r**2

    u1 = probe(rho)
    u2 = probe(rho / 2.0)
    return (4.0 * u2 - u1) / 3.0


def _check_axis_velocity_fd():
    worst = 0.0
    for h in (0.1, 0.5):
        sol = series.solve_coefficients(frame_from_gap(h), 1.0)
        for dz in (0.3, 1.0):
            z0 = 2.0 + h + dz
            ua = series.axis_velocity(sol, z0)
            ub = _axis_velocity_fd(sol, z0)
            worst = max(worst, abs(ua - ub) / abs(ua))
    return worst < 1e-6, f"max closed-form vs stream-function deviation {worst:.2e}"


def _check_surface_noslip():
    fr = frame_from_gap(0.3)
    sol = series.solve_coefficients(fr, 1.0, SeriesTruncation(n_max=128))
    devs = []
    for frac in (0.99, 0.999):
        worst = 0.0
        for eta in np.linspace(0.4, 2.8, 5):
            p = geometry.from_bipolar(fr, BipolarPoint(zeta=frac * fr.alpha, eta=float(eta)))
            dr = 1e-5 * max(p.rho, 0.1)

            def psi_at(rho, z):
                return series.stream_function(
                    sol, geometry.to_bipolar(fr, AxisymPoint(rho=rho, z=z))
                )

            uz = (psi_at(p.rho + dr, p.z) - psi_at(p.rho - dr, p.z)) / (2 * dr * p.rho)
            ur = -(psi_at(p.rho, p.z + dr) - psi_at(p.rho, p.z - dr)) / (2 * dr * p.rho)
            worst = max(worst, np.hypot(uz - sol.w_bc, ur))
        devs.append(worst)
    ok = devs[1] < 0.6 * devs[0] and devs[1] < 5e-3
    return ok, f"deviation {devs[0]:.2e} at 0.99 alpha, {devs[1]:.2e} at 0.999 alpha"


def _check_far_field():
    kappa = series.passive_drag(100.0)
    ratio = kappa / (6.0 * np.pi)
    reflect = 1.0 / (1.0 - 3.0 / (2.0 * 2.0 * 101.0))
    ok = abs(ratio - 1.0) < 0.02 and abs(ratio - reflect) < 1e-3
    return ok, f"kappa / 6 pi = {ratio:.6f} at h = 100 (reflection value {reflect:.6f})"


def _check_lubrication():
    hs = np.geomspace(1e-4, 1e-3, 5)
    ks = np.array([series.passive_drag(float(h)) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(ks), 1)[0]
    const = ks[0] * hs[0]
    ok = abs(slope + 1.0) < 0.05 and abs(const - 1.5 * np.pi) < 0.05
    return ok, f"log slope {slope:.4f}, kappa h = {const:.4f} at h = 1e-4"


def _check_navier_blend():
    bc = BoundaryCondition.navier(0.1)
    left = drag.kappa_pass(0.1 * (1.0 - 1e-13), bc)
    right = drag.kappa_pass(0.1, bc)
    rel = abs(left - right) / right
    zero = BoundaryCondition.navier(0.0)
    same = all(
        drag.kappa_pass(h, zero) == drag.kappa_pass(h, BoundaryCondition.no_slip())
        for h in (1e-3, 0.1, 1.0)
    )
    tiny = BoundaryCondition.navier(1e-12)
    close = max(
        abs(drag.kappa_pass(h, tiny) - drag.kappa_pass(h, BoundaryCondition.no_slip()))
        for h in (1e-3, 0.1)
    )
    ok = rel < 1e-10 and same and close < 1e-8
    return ok, (
        f"continuity residual {rel:.2e} at h = beta; beta = 0 identical: {same}; "
        f"beta -> 0 deviation {close:.2e}"
    )


def _check_kappa_prop():
    bc = BoundaryCondition.no_slip()
    vals = [drag.kappa_prop(0.01, lam, bc) for lam in (0.1, 1.0, 5.0)]
    ok = all(0.0 < v < 1.0 for v in vals) and vals[0] > vals[1] > vals[2]
    return ok, "kappa_prop(0.01; 0.1, 1, 5) = " + ", ".join(f"{v:.4f}" for v in vals)


def _check_swim_identity():
    # approach speed -h' assembled from the two routes must agree:
    # (direct thrust) / drag + (swim contribution) vs net thrust / drag
    h, lam, f_p = 0.5, 1.0, 2.0
    w = series.swim_speed_contribution(h, lam, f_p)
    v = f_p / series.passive_drag(h)
    bc = BoundaryCondition.no_slip()
    hdot = -drag.net_propulsion(h, lam, f_p, bc) / drag.kappa_pass(h, bc)
    rel = abs((v + w) + hdot) / abs(hdot)
    ok = w < 0.0 and rel < 1e-12
    return ok, f"swim contribution {w:.6f}, balance identity residual {rel:.2e}"


def _check_oseen():
    rng = np.random.default_rng(11)
    worst_div = 0.0
    worst_sym = 0.0
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(x) < 0.3:
            continue
        g = stokeslet.oseen_tensor(x)
        worst_sym = max(worst_sym, float(np.max(np.abs(g - g.T))))
        worst_sym = max(
            worst_sym, float(np.max(np.abs(stokeslet.oseen_tensor(2.0 * x) - g / 2.0)))
        )
        eps = 1e-5
        div = np.zeros(3)
        for j in range(3):
            for i in range(3):
                e = np.zeros(3)
                e[i] = eps
                div[j] += (
                    stokeslet.oseen_tensor(x + e)[i, j]
                    - stokeslet.oseen_tensor(x - e)[i, j]
                ) / (2 * eps)
        worst_div = max(worst_div, float(np.max(np.abs(div))))
    ok = worst_div < 1e-6 and worst_sym < 1e-14
    return ok, f"max |divergence| {worst_div:.2e}, max asymmetry {worst_sym:.2e}"


def _check_stokeslet_pair():
    pair = stokeslet.StokesletPair(h=0.4, lam=1.2, f_p=1.5)
    worst = 0.0
    for rho in (0.5, 1.0, 3.0):
        u_mid = stokeslet.ambient_field(pair, np.array([rho, 0.0, 0.0]))
        worst = max(worst, abs(u_mid[2]))
        up = stokeslet.ambient_field(pair, np.array([rho, 0.3, 0.9]))
        dn = stokeslet.ambient_field(pair, np.array([rho, 0.3, -0.9]))
        worst = max(worst, abs(up[2] + dn[2]), abs(up[0] - dn[0]), abs(up[1] - dn[1]))
    return worst < 1e-14, f"max midplane / mirror asymmetry {worst:.2e}"


def _quick_navier_scenario():
    return SwimmerScenario(
        mode=Mode.ACTIVE,
        bc=BoundaryCondition.navier(0.1),
        h0=0.3,
        mass=0.0,
        f_p=1.0,
        lam=1.0,
    )


def _check_massless_speed():
    sc = dataclasses.replace(
        _quick_navier_scenario(), mode=Mode.PASSIVE_FORCED, f_ext=2.0
    )
    got = dynamics.rhs(sc, np.array([sc.h0]))[0]
    want = -sc.f_ext / drag.kappa_pass(sc.h0, sc.bc)
    rel = abs(got - want) / abs(want)
    return rel < 1e-14, f"massless passive speed residual {rel:.2e}"


def _check_pure_drag_monotone():
    # short horizon keeps the speed far above the integrator's absolute
    # tolerance, where monotonicity is meaningful
    sc = SwimmerScenario(
        mode=Mode.ACTIVE,
        bc=BoundaryCondition.no_slip(),
        h0=0.5,
        s0=1.0,
        mass=0.1,
        f_p=0.0,
        lam=1.0,
    )
    traj = dynamics.simulate(sc, 0.05)
    speeds = np.abs(traj.columns()["hdot"])
    ok = bool(np.all(np.diff(speeds) <= 1e-11 * np.maximum(speeds[:-1], 1e-300)))
    return ok, f"|h'| decayed {speeds[0]:.3f} -> {speeds[-1]:.3e} monotonically: {ok}"


def _check_trajectory_density():
    traj = dynamics.simulate(_quick_navier_scenario(), 100.0)
    cols = traj.columns()
    h = cols["h"]
    near = h[:-1] < 0.1
    steps = np.abs(np.diff(np.log(h)))[near]
    ok = (
        traj.termination is TerminationKind.COLLISION
        and bool(np.all(steps <= 0.1))
        and abs(traj.points[-1].h - traj.h_floor) <= 1e-6 * traj.h_floor
    )
    return ok, (
        f"termination {traj.termination.value}, max log-gap step "
        f"{np.max(steps):.3f}, endpoint gap error "
        f"{abs(traj.points[-1].h - traj.h_floor) / traj.h_floor:.2e}"
    )


def _check_quadrature_match():
    sc = _quick_navier_scenario()
    traj = dynamics.simulate(sc, 100.0)
    report = dynamics.collision_time_quadrature(sc)
    rel = abs(report.time_to_floor - traj.t_coll) / traj.t_coll
    ok = rel < 1e-8 and not report.diverged
    return ok, (
        f"quadrature {report.time_to_floor:.6f} vs simulated {traj.t_coll:.6f} "
        f"(rel {rel:.2e}), tail exponent {report.tail_exponent:.3f}"
    )


def _check_noslip_divergence():
    sc = SwimmerScenario(
        mode=Mode.ACTIVE,
        bc=BoundaryCondition.no_slip(),
        h0=0.1,
        mass=0.0,
        f_p=1.0,
        lam=1.0,
    )
    report = dynamics.collision_time_quadrature(sc, h_floor=1e-7)
    return report.diverged, (
        f"tail exponent {report.tail_exponent:.3f} at floor 1e-7 "
        f"(time to floor {report.time_to_floor:.1f})"
    )


def _check_exponential_bound():
    sc = SwimmerScenario(
        mode=Mode.ACTIVE,
        bc=BoundaryCondition.no_slip(),
        h0=0.3,
        mass=0.0,
        f_p=1.0,
        lam=1.0,
    )
    traj = dynamics.simulate(sc, 30.0)
    bound = dynamics.noslip_lower_bound_fit(traj)
    cols = traj.columns()
    holds = bool(
        np.all(cols["h"] >= bound.evaluate(cols["t"]) * (1.0 - 1e-9))
    )
    ok = holds and 1e-3 < bound.c2 < 1.0
    return ok, (
        f"h(t) >= {bound.c1:.4e} exp(-{bound.c2:.4f} t) holds at all "
        f"{len(traj.points)} points: {holds}"
    )


def _check_determinism():
    a = dynamics.simulate(_quick_navier_scenario(), 100.0)
    drag.cache_clear()
    b = dynamics.simulate(_quick_navier_scenario(), 100.0)
    same = a.points == b.points and a.t_coll == b.t_coll
    return same, f"two runs produced identical trajectories: {same}"


def _check_config_errors():
    try:
        parse_config_text("[scenario]\nmode = active\nh0 = oops\n")
        return False, "bad float was accepted"
    except ConfigError as exc:
        if exc.line != 3 or exc.key != "scenario.h0":
            return False, f"wrong location: key {exc.key}, line {exc.line}"
    try:
        parse_config_text("[scenario]\nspeed = 1\n")
        return False, "unknown key was accepted"
    except ConfigError as exc:
        if exc.line != 2:
            return False, f"wrong line for unknown key: {exc.line}"
    try:
        SwimmerScenario(
            mode=Mode.ACTIVE, bc=BoundaryCondition.no_slip(), h0=-1.0
        )
        return False, "negative gap was accepted"
    except DomainError:
        pass
    return True, "bad key, bad value, and bad scenario all rejected with locations"


_CHECKS = [
    ("frame_identities", _check_frame_identities),
    ("bipolar_roundtrip", _check_bipolar_roundtrip),
    ("surface_is_unit_sphere", _check_surface_sphere),
    ("legendre_recurrence", _check_legendre),
    ("gegenbauer_closed_forms", _check_gegenbauer_closed_forms),
    ("nonpenetration_identity", _check_nonpenetration),
    ("mode_profile_dual_route", _check_mode_profile_routes),
    ("midplane_stream_function", _check_midplane),
    ("axis_velocity_vs_stream_fd", _check_axis_velocity_fd),
    ("surface_noslip_convergence", _check_surface_noslip),
    ("far_field_isolated_drag", _check_far_field),
    ("lubrication_divergence", _check_lubrication),
    ("navier_blend", _check_navier_blend),
    ("kappa_prop_unit_interval", _check_kappa_prop),
    ("swim_balance_identity", _check_swim_identity),
    ("oseen_tensor", _check_oseen),
    ("stokeslet_pair_symmetry", _check_stokeslet_pair),
    ("massless_passive_speed", _check_massless_speed),
    ("pure_drag_monotone", _check_pure_drag_monotone),
    ("trajectory_density_and_event", _check_trajectory_density),
    ("quadrature_vs_simulation", _check_quadrature_match),
    ("noslip_time_divergence", _check_noslip_divergence),
    ("exponential_lower_bound", _check_exponential_bound),
    ("determinism", _check_determinism),
    ("config_error_locations", _check_config_errors),
]

_FAULTS = ("gegenbauer",)


@contextlib.contextmanager
def _scaled_gegenbauer(scale):
    """Swap in Gegenbauer kernels scaled by `scale` under the names the checks
    and the series look them up by, and put the originals back on exit."""
    single, array = geometry.gegenbauer_minus_half, series._gegenbauer_array
    geometry.gegenbauer_minus_half = lambda n, x: single(n, x) * scale
    series._gegenbauer_array = lambda n, x: array(n, x) * scale
    drag.cache_clear()
    try:
        yield
    finally:
        geometry.gegenbauer_minus_half, series._gegenbauer_array = single, array
        drag.cache_clear()


def cmd_validate(args):
    if args.fault and args.fault not in _FAULTS:
        raise ConfigError(f"unknown fault {args.fault!r}; choose from {_FAULTS}")
    lines = []
    failures = 0
    with _scaled_gegenbauer(1.01) if args.fault else contextlib.nullcontext():
        for name, fn in _CHECKS:
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
    summary = f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed"
    if args.fault:
        summary += f" (fault injected: {args.fault})"
    lines.append(summary)
    print(summary)
    if args.out:
        out = _out_dir(args)
        with open(
            os.path.join(out, "validate_report.txt"), "w", newline="\n", encoding="utf-8"
        ) as fh:
            fh.write("\n".join(lines) + "\n")
    return 1 if failures else 0


def _add_common(sub):
    sub.add_argument("--config", help="run configuration file")
    sub.add_argument("--out", help="output directory (default ./out)")
    sub.add_argument("--tol", type=float, help="series tail tolerance override")
    sub.add_argument("--nmax", type=int, help="initial series mode count override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swimcollide",
        description="Head-on hydrodynamics of a mirror pair of model swimmers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_drag = subs.add_parser("drag", help="tabulate drag coefficients over a gap grid")
    _add_common(p_drag)
    p_drag.add_argument("--bc", choices=["no_slip", "navier"], default="no_slip")
    p_drag.add_argument("--beta", type=float, default=0.0, help="slip length")
    p_drag.add_argument("--lam", type=float, default=1.0, help="propulsion tip offset")
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
    _add_common(p_val)
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
