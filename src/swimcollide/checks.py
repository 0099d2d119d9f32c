"""The physics and plumbing checks that `swimcollide validate` runs.

CHECKS lists (name, fn) pairs in report order. Each fn takes no arguments
and returns (ok, detail): whether the check passed and a one-line summary
of what it measured. The test suite runs each check as its own test.
scaled_gegenbauer injects the known fault that `validate --fault gegenbauer`
uses to show the checks can fail.
"""

import contextlib
import dataclasses

import numpy as np

from . import drag, dynamics, geometry, series
from .config import parse_config_text
from .drag import BoundaryCondition
from .dynamics import Mode, SwimmerScenario, TerminationKind
from .errors import ConfigError, DomainError
from .geometry import AxisymPoint, BipolarPoint, frame_from_gap
from .series import SeriesTruncation

__all__ = ["CHECKS", "scaled_gegenbauer"]


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
        c2, c3 = geometry.gegenbauer_minus_half(2, float(x))
        worst = max(worst, abs(c2 - (1.0 - x * x) / 2.0), abs(c3 - x * (1.0 - x * x) / 2.0))
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
    # The approach speed -h' of dynamics.rhs against the direct squeeze speed
    # f_p / kappa_pass plus the backflow's swim contribution w < 0.
    h, lam, f_p = 0.5, 1.0, 2.0
    bc = BoundaryCondition.no_slip()
    sc = SwimmerScenario(mode=Mode.ACTIVE, bc=bc, h0=h, f_p=f_p, lam=lam)
    hdot = dynamics.rhs(sc, np.array([h]))[0]
    kp = drag.kappa_pass(h, bc)
    w = -f_p * drag.kappa_prop(h, lam, bc) / kp
    rel = abs((f_p / kp + w) + hdot) / abs(hdot)
    ok = w < 0.0 and rel < 1e-12
    return ok, f"swim contribution {w:.6f}, balance identity residual {rel:.2e}"


def _quick_navier_scenario():
    return SwimmerScenario(mode=Mode.ACTIVE, bc=BoundaryCondition.navier(0.1), h0=0.3)


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
        mode=Mode.ACTIVE, bc=BoundaryCondition.no_slip(), h0=0.5, s0=1.0, mass=0.1, f_p=0.0
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
    sc = SwimmerScenario(mode=Mode.ACTIVE, bc=BoundaryCondition.no_slip(), h0=0.1)
    report = dynamics.collision_time_quadrature(sc, h_floor=1e-7)
    return report.diverged, (
        f"tail exponent {report.tail_exponent:.3f} at floor 1e-7 "
        f"(time to floor {report.time_to_floor:.1f})"
    )


def _check_exponential_bound():
    sc = SwimmerScenario(mode=Mode.ACTIVE, bc=BoundaryCondition.no_slip(), h0=0.3)
    traj = dynamics.simulate(sc, 30.0)
    rate = dynamics.decay_rate_bound(sc, traj.h_floor)
    cols = traj.columns()
    holds = bool(np.all(cols["h"] >= sc.h0 * np.exp(-rate * cols["t"]) * (1.0 - 1e-12)))
    lubrication = 2.0 * drag.net_propulsion(traj.h_floor, sc.lam, sc.f_p, sc.bc) / (3.0 * np.pi)
    ok = holds and abs(rate / lubrication - 1.0) <= 1e-3
    return ok, (
        f"a priori h(t) >= {sc.h0} exp(-{rate:.6f} t) holds at all "
        f"{len(traj.points)} points: {holds}; rate / lubrication limit "
        f"{rate / lubrication:.6f}"
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


CHECKS = [
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
    ("massless_passive_speed", _check_massless_speed),
    ("pure_drag_monotone", _check_pure_drag_monotone),
    ("trajectory_density_and_event", _check_trajectory_density),
    ("quadrature_vs_simulation", _check_quadrature_match),
    ("noslip_time_divergence", _check_noslip_divergence),
    ("exponential_lower_bound", _check_exponential_bound),
    ("determinism", _check_determinism),
    ("config_error_locations", _check_config_errors),
]


@contextlib.contextmanager
def scaled_gegenbauer(scale):
    """Swap in the Gegenbauer kernel scaled by `scale` under the one name the
    checks and the series look it up by, and put the original back on exit."""
    kernel = geometry.gegenbauer_minus_half
    geometry.gegenbauer_minus_half = lambda n_count, x: kernel(n_count, x) * scale
    drag.cache_clear()
    try:
        yield
    finally:
        geometry.gegenbauer_minus_half = kernel
        drag.cache_clear()
