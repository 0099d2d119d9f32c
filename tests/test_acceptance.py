"""Acceptance criteria for the release.

Each test exercises one criterion end to end at its stated tolerance and
prints a single PASS/FAIL line with the measured quantities (run pytest with
-s to see the lines for passing tests as well). Every test also carries a
wall-clock budget so a quadratic regression in the series or the integrator
fails loudly here.

Criterion 7 checks how the contact time T of a massless approach under a
constant squeezing force f depends on the slip length beta, against the laws
the blended drag (exact series for h >= beta, kappa_series(beta) *
(1 + ln(beta / h)) below) and slip lubrication theory both give:

(a) from h0 = 1 with beta in {0.05, 0.1, 0.2}, T equals the closed form
    f T = int_beta^h0 kappa_series dh
          + kappa_series(beta) [2 beta - h_f (2 + ln(beta / h_f))]
    of the blend to 1e-5 relative, h_f being the contact floor;
(b) starting inside the slip layer (h0 << beta), T is
    (3 pi / 2f) (h0 / beta) (2 + ln(beta / h0)) to 1%, which is the regime
    where T scales like 1 / beta;
(c) starting far outside it (h0 >> beta), T grows like
    (3 pi / 2f) ln(h0 / beta), so halving beta adds (3 pi / 2f) ln 2 to 1%.

3 pi / 2 is the Reynolds lubrication coefficient of two unit spheres,
kappa ~ 3 pi / (2h). From h0 = 1 the product T * beta is not constant: it
rises with beta (2.84, 5.49, 10.78 for the three slip lengths of (a)).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from swimcollide.drag import BoundaryCondition, net_propulsion
from swimcollide.dynamics import (
    Mode,
    SwimmerScenario,
    TerminationKind,
    collision_time_quadrature,
    decay_rate_bound,
    rhs,
    simulate,
)
from swimcollide.geometry import AxisymPoint, frame_from_gap, tip_height, to_bipolar
from swimcollide.series import (
    axis_velocity,
    mode_profile,
    _source_array,
    mode_profile_via_source,
    passive_drag,
    propulsion_drag,
    solve_coefficients,
    stream_function,
)

NO_SLIP = BoundaryCondition.no_slip()


class Budget:
    """Context manager asserting a wall-clock ceiling for a criterion."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.elapsed = None

    def __enter__(self):
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self._t0
        return False

    def check(self):
        assert self.elapsed < self.seconds, (
            f"criterion exceeded its {self.seconds:.0f}s budget "
            f"({self.elapsed:.1f}s)"
        )


def report(idx, name, ok, detail):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{idx:02d}] {name}: {detail}")
    return ok


def test_01_mode_profile_routes_agree():
    with Budget(5.0) as budget:
        worst = 0.0
        for h in (0.01, 0.1, 0.5):
            sol = solve_coefficients(frame_from_gap(h))
            alpha = sol.frame.alpha
            for n in range(1, min(50, sol.n_modes) + 1):
                for frac in (0.25, 0.5, 0.75, 1.0):
                    zeta = frac * alpha
                    a = mode_profile(sol, n, zeta)
                    b = mode_profile_via_source(sol, n, zeta)
                    scale = max(abs(a), abs(b), 1e-300)
                    worst = max(worst, abs(a - b) / scale)
    ok = worst <= 1e-9
    assert report(
        1,
        "dual-route mode profiles",
        ok,
        f"max relative difference {worst:.3e} (tolerance 1e-9), "
        f"{budget.elapsed:.1f}s",
    )
    budget.check()


def test_02_positivity_chain():
    with Budget(10.0) as budget:
        checks = []
        for h in (0.01, 0.1, 1.0):
            fr = frame_from_gap(h)
            sol = solve_coefficients(fr)
            alpha = fr.alpha

            n_src = min(200, sol.n_modes)
            sources = _source_array(fr, n_src)
            sources_pos = all(
                sources[n - 1] > 0.0
                for n in range(1, n_src + 1)
                if (2 * n + 1) * alpha < 700.0
            )
            checks.append(("source strengths", sources_pos))

            bracket_ok = True
            for n in range(1, min(60, sol.n_modes) + 1):
                m = n + 0.5
                sp = math.sinh((m + 1.0) * alpha)
                sm = math.sinh((m - 1.0) * alpha)
                for frac in np.linspace(0.0, 1.0, 9):
                    xi = frac * alpha
                    f = math.sinh((m + 1.0) * xi) * sm - math.sinh(
                        (m - 1.0) * xi
                    ) * sp
                    scale = abs(math.sinh((m + 1.0) * xi) * sm) + abs(sp) + 1.0
                    if f > 1e-12 * scale:
                        bracket_ok = False
            checks.append(("profile bracket", bracket_ok))

            for lam in (0.1, 1.0, 5.0):
                tip = tip_height(h, lam)
                checks.append(
                    ("axis velocity at tip", axis_velocity(sol, tip) > 0.0)
                )
                # The backflow's share of the approach speed per unit thrust.
                swim = -propulsion_drag(h, lam) / passive_drag(h)
                checks.append(("swim contribution sign", swim < 0.0))
    failed = [name for name, ok in checks if not ok]
    ok = not failed
    assert report(
        2,
        "positivity chain",
        ok,
        f"{len(checks)} sign conditions over 3 gaps x 3 tip offsets, "
        f"failed: {failed or 'none'}, {budget.elapsed:.1f}s",
    )
    budget.check()


def test_03_axis_velocity_vs_stream_function():
    with Budget(10.0) as budget:
        h = 0.5
        sol = solve_coefficients(frame_from_gap(h))
        rho = 1e-3
        worst = 0.0
        for dz in np.linspace(0.2, 4.0, 10):
            z0 = 2.0 + h + dz

            def est(r):
                point = to_bipolar(sol.frame, AxisymPoint(r, z0))
                return 2.0 * stream_function(sol, point) / r**2

            fd = (4.0 * est(rho / 2.0) - est(rho)) / 3.0
            direct = axis_velocity(sol, z0)
            worst = max(worst, abs(direct - fd) / abs(direct))
    ok = worst <= 1e-6
    assert report(
        3,
        "axis velocity vs stream function",
        ok,
        f"max relative deviation {worst:.3e} over 10 heights "
        f"(tolerance 1e-6), {budget.elapsed:.1f}s",
    )
    budget.check()


def test_04_drag_asymptotics():
    with Budget(30.0) as budget:
        hs = np.geomspace(1e-4, 1e-3, 7)
        ks = np.array([passive_drag(h) for h in hs])
        slope = float(np.polyfit(np.log(hs), np.log(ks), 1)[0])
        slope_ok = abs(slope + 1.0) <= 0.05

        iso = passive_drag(100.0) / (6.0 * math.pi)
        iso_ok = abs(iso - 1.0) <= 0.02

        beta = 0.1
        navier = BoundaryCondition.navier(beta)
        from swimcollide.drag import kappa_pass

        anchor = kappa_pass(beta, navier)
        hs2 = np.geomspace(1e-6, 1e-2, 9)
        ks2 = np.array([kappa_pass(h, navier) for h in hs2])
        log_slope = float(np.polyfit(np.log(1.0 / hs2), ks2, 1)[0])
        log_ok = abs(log_slope - anchor) / anchor <= 0.05
    ok = slope_ok and iso_ok and log_ok
    assert report(
        4,
        "drag asymptotics",
        ok,
        f"thin-gap slope {slope:.4f} (want -1 +- 0.05), far-field ratio "
        f"{iso:.4f} (want 1 +- 0.02), slip log-slope {log_slope:.2f} vs "
        f"anchor {anchor:.2f} (want within 5%), {budget.elapsed:.1f}s",
    )
    budget.check()


def test_05_noslip_stall_with_certificate():
    with Budget(60.0) as budget:
        sc = SwimmerScenario(mode=Mode.ACTIVE, bc=NO_SLIP, h0=0.5)
        traj = simulate(sc, t_max=200.0, h_floor=1e-7)
        stalled = (
            traj.termination is TerminationKind.HORIZON_REACHED
            and traj.min_h > traj.h_floor
        )
        # The rate comes from the scenario alone, not from the run: by
        # Gronwall h(t) >= h0 exp(-c* t), and near contact c* must meet the
        # lubrication limit 2 F(floor) / (3 pi) of kappa_pass ~ 3 pi / (2h).
        rate = decay_rate_bound(sc, h_floor=traj.h_floor)
        cols = traj.columns()
        certified = bool(
            np.all(cols["h"] >= sc.h0 * np.exp(-rate * cols["t"]) * (1.0 - 1e-12))
        )
        force = net_propulsion(traj.h_floor, sc.lam, sc.f_p, NO_SLIP)
        lubrication = rate * 3.0 * math.pi / (2.0 * force)
    ok = stalled and certified and abs(lubrication - 1.0) <= 1e-3
    assert report(
        5,
        "no-slip approach stalls",
        ok,
        f"termination {traj.termination.value}, min_h {traj.min_h:.3e} > "
        f"floor {traj.h_floor:.0e}, a priori h >= {sc.h0} exp(-{rate:.6f} t) "
        f"pointwise: {certified}, rate / lubrication limit {lubrication:.6f} "
        f"(want 1 +- 1e-3), {budget.elapsed:.1f}s",
    )
    budget.check()


def test_06_navier_collision_converged():
    with Budget(60.0) as budget:
        sc = SwimmerScenario(
            mode=Mode.ACTIVE,
            bc=BoundaryCondition.navier(0.1),
            h0=0.5,
            s0=1.0,
            mass=0.1,
        )
        coarse = simulate(sc, t_max=200.0, rtol=1e-8, h_floor=1e-9)
        fine = simulate(sc, t_max=200.0, rtol=1e-9, h_floor=1e-10)
        collided = (
            coarse.termination is TerminationKind.COLLISION
            and fine.termination is TerminationKind.COLLISION
        )
        drift = (
            abs(coarse.t_coll - fine.t_coll) / fine.t_coll if collided else np.inf
        )
    ok = collided and drift <= 1e-3
    assert report(
        6,
        "slip-regularized collision",
        ok,
        f"t_coll {coarse.t_coll} vs {fine.t_coll} under 10x tighter rtol "
        f"and 10x lower floor (relative drift {drift:.2e}, tolerance 1e-3), "
        f"{budget.elapsed:.1f}s",
    )
    budget.check()


# Reynolds lubrication coefficient of two unit spheres: kappa ~ 3 pi / (2h).
LUBRICATION = 1.5 * math.pi


def _passive_approach(beta, h0, f_ext):
    sc = SwimmerScenario(
        mode=Mode.PASSIVE_FORCED,
        bc=BoundaryCondition.navier(beta),
        h0=h0,
        f_ext=f_ext,
    )
    traj = simulate(sc, t_max=5000.0)
    assert traj.termination is TerminationKind.COLLISION
    return traj


def _blend_contact_time(beta, h0, h_floor, f_ext):
    """Closed-form contact time of the blend, built on the raw series."""
    outer, _ = quad(
        lambda u: passive_drag(math.exp(u)) * math.exp(u),
        math.log(beta),
        math.log(h0),
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    inner = passive_drag(beta) * (
        2.0 * beta - h_floor * (2.0 + math.log(beta / h_floor))
    )
    return (outer + inner) / f_ext


def test_07_collision_time_scaling_in_slip_length():
    f_ext = 1.0
    with Budget(60.0) as budget:
        # (a) the original sweep from h0 = 1 against the blend's closed form
        betas = (0.05, 0.1, 0.2)
        products, closed_errs = [], []
        for beta in betas:
            traj = _passive_approach(beta, 1.0, f_ext)
            products.append(traj.t_coll * beta)
            exact = _blend_contact_time(beta, 1.0, traj.h_floor, f_ext)
            closed_errs.append(abs(traj.t_coll - exact) / exact)
        closed_ok = max(closed_errs) <= 1e-5

        # (b) inside the slip layer: f T beta / (h0 (2 + ln(beta / h0))) -> 3pi/2
        h0_in = 1e-5
        ratios = []
        for beta in (1e-4, 2e-4, 4e-4):
            t_coll = _passive_approach(beta, h0_in, f_ext).t_coll
            layer = h0_in * (2.0 + math.log(beta / h0_in))
            ratios.append(f_ext * t_coll * beta / layer)
        slip_ok = all(abs(r / LUBRICATION - 1.0) <= 0.01 for r in ratios)

        # (c) far outside it: T(beta / 2) - T(beta) -> (3 pi / 2f) ln 2
        times = [
            _passive_approach(beta, 1.0, f_ext).t_coll
            for beta in (4e-4, 2e-4, 1e-4, 5e-5)
        ]
        steps = [b - a for a, b in zip(times, times[1:])]
        step_law = LUBRICATION * math.log(2.0) / f_ext
        log_ok = all(abs(s / step_law - 1.0) <= 0.01 for s in steps)
    ok = closed_ok and slip_ok and log_ok
    assert report(
        7,
        "contact time follows the slip-length laws",
        ok,
        f"(a) T_coll vs closed form, max relative error {max(closed_errs):.2e} "
        f"(tolerance 1e-5), T_coll * beta = "
        + ", ".join(f"{p:.3f}" for p in products)
        + f" for beta = {betas}; (b) from h0 = 1e-5, "
        "f T beta / (h0 (2 + ln(beta / h0))) = "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" vs 3 pi / 2 = {LUBRICATION:.4f}; (c) from h0 = 1, "
        "T(beta / 2) - T(beta) = "
        + ", ".join(f"{s:.4f}" for s in steps)
        + f" vs (3 pi / 2f) ln 2 = {step_law:.4f} (tolerance 1% on (b) and "
        f"(c)), {budget.elapsed:.1f}s",
    )
    budget.check()


def test_08_propulsion_factor_profile():
    with Budget(30.0) as budget:
        lams = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
        ks = [propulsion_drag(0.01, lam) for lam in lams]
        decreasing = all(a > b for a, b in zip(ks, ks[1:]))
        in_band = all(0.0 < k < 1.0 for k in ks)
        near_one = ks[0] > 0.9
    ok = decreasing and in_band and near_one
    assert report(
        8,
        "propulsion factor vs tip offset",
        ok,
        "kappa_prop(0.01, lam) = "
        + ", ".join(f"{k:.4f}" for k in ks)
        + f" strictly decreasing: {decreasing}, inside (0, 1): {in_band}, "
        f"{budget.elapsed:.1f}s",
    )
    budget.check()


def test_09_massless_rate_identity():
    with Budget(10.0) as budget:
        worst = 0.0
        for h in (0.01, 0.05, 0.1, 0.5, 1.0):
            for lam in (0.5, 2.0):
                sc = SwimmerScenario(
                    mode=Mode.ACTIVE, bc=NO_SLIP, h0=h, lam=lam
                )
                via_dynamics = rhs(sc, np.array([h]))[0]
                # Series route: the approach speed -h' splits into the direct
                # squeeze speed f_p / kappa_pass and the backflow's
                # contribution -f_p kappa_prop / kappa_pass, which slows it.
                kp = passive_drag(h)
                via_series = -sc.f_p / kp + sc.f_p * propulsion_drag(h, lam) / kp
                worst = max(
                    worst, abs(via_dynamics - via_series) / abs(via_series)
                )
    ok = worst <= 1e-8
    assert report(
        9,
        "massless rate identity",
        ok,
        f"max relative mismatch {worst:.3e} between the dynamics route and "
        f"the series route over 10 (h, lam) points (tolerance 1e-8), "
        f"{budget.elapsed:.1f}s",
    )
    budget.check()


def test_10_quadrature_matches_simulation():
    with Budget(30.0) as budget:
        cases = [
            SwimmerScenario(
                mode=Mode.ACTIVE, bc=BoundaryCondition.navier(0.1), h0=0.5
            ),
            SwimmerScenario(
                mode=Mode.ACTIVE, bc=BoundaryCondition.navier(0.05), h0=0.3
            ),
            SwimmerScenario(
                mode=Mode.PASSIVE_FORCED,
                bc=BoundaryCondition.navier(0.2),
                h0=1.0,
                f_ext=1.0,
            ),
        ]
        rels = []
        for sc in cases:
            rep = collision_time_quadrature(sc)
            traj = simulate(sc, t_max=5000.0)
            assert traj.termination is TerminationKind.COLLISION
            rels.append(abs(rep.time_to_floor - traj.t_coll) / traj.t_coll)
        worst = max(rels)
    ok = worst <= 1e-8
    assert report(
        10,
        "quadrature vs simulation",
        ok,
        "relative gaps "
        + ", ".join(f"{r:.2e}" for r in rels)
        + f" over 3 slip scenarios (tolerance 1e-8), {budget.elapsed:.1f}s",
    )
    budget.check()
