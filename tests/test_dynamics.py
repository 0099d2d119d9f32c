"""Encounter dynamics: integrators, terminations, quadrature, bounds, inertial tables."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from swimcollide import drag
from swimcollide.drag import BoundaryCondition, _series_prop, cache_clear
from swimcollide.dynamics import (
    _BLOCK_PANELS,
    _table_jacobian,
    Mode,
    QuadratureReport,
    SwimmerScenario,
    TerminationKind,
    collision_time_quadrature,
    decay_rate_bound,
    default_h_floor,
    rhs,
    simulate,
)
from swimcollide.errors import DomainError, InvalidRegimeError, StiffnessError

NO_SLIP = BoundaryCondition.no_slip()
NAVIER = BoundaryCondition.navier(0.1)


def active(bc, **kw):
    return SwimmerScenario(mode=Mode.ACTIVE, bc=bc, **{"h0": 0.5, **kw})


def forced(bc, **kw):
    return SwimmerScenario(
        mode=Mode.PASSIVE_FORCED, bc=bc, **{"h0": 0.5, "f_ext": 1.0, **kw}
    )


class TestScenarioValidation:
    def test_accepts_reference_cases(self):
        active(NAVIER)
        forced(NO_SLIP, mass=0.1, s0=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "active", "bc": NO_SLIP, "h0": 0.5},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.0},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "s0": -1.0},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "mass": -0.1},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "lam": 0.0},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "f_p": -1.0},
            {"mode": Mode.PASSIVE_FORCED, "bc": NO_SLIP, "h0": 0.5, "f_ext": 0.0},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(DomainError):
            SwimmerScenario(**kwargs)

    def test_default_floors(self):
        assert default_h_floor(NAVIER) == 1e-9
        assert default_h_floor(NO_SLIP) == 1e-7
        assert default_h_floor(BoundaryCondition.navier(0.0)) == 1e-7


class TestRhs:
    def test_massless_state_is_gap_only(self):
        out = rhs(active(NAVIER), np.array([0.5]))
        assert out.shape == (1,) and out[0] < 0.0

    def test_inertial_state_is_gap_and_rate(self):
        sc = forced(NAVIER, mass=0.5, s0=1.0)
        out = rhs(sc, np.array([0.5, -1.0]))
        assert out.shape == (2,)
        assert out[0] == -1.0
        # Drag opposes the motion, external force pushes inward.
        assert out[1] == pytest.approx(
            (38.42773471532934 - 1.0) / 0.5, rel=1e-9
        )


class TestMasslessCollision:
    TRAJ = simulate(active(NAVIER), t_max=200.0)

    def test_terminates_at_contact(self):
        assert self.TRAJ.termination is TerminationKind.COLLISION
        assert self.TRAJ.t_coll == pytest.approx(98.997668309298305, rel=1e-6)
        assert self.TRAJ.t_coll == self.TRAJ.t_end

    def test_endpoint_sits_on_the_floor(self):
        last = self.TRAJ.points[-1]
        assert abs(last.h - self.TRAJ.h_floor) <= 1e-9 * self.TRAJ.h_floor

    def test_recorded_rate_matches_recorded_coefficients(self):
        # For a massless swimmer the rate is algebraic in the coefficients,
        # so every recorded point must satisfy the balance identity exactly.
        sc = self.TRAJ.scenario
        for p in self.TRAJ.points:
            expect = -sc.f_p * (1.0 - p.kappa_prop) / p.kappa_pass
            assert p.hdot == pytest.approx(expect, rel=1e-12)

    def test_gap_is_strictly_decreasing(self):
        h = self.TRAJ.columns()["h"]
        assert np.all(np.diff(h) < 0.0)

    def test_point_density_in_the_gap(self):
        cols = self.TRAJ.columns()
        h = cols["h"]
        small = h < 0.1
        ratios = h[:-1][small[:-1] & small[1:]] / h[1:][small[:-1] & small[1:]]
        assert np.all(np.log(ratios) <= 0.105)

    def test_columns_and_summaries(self):
        cols = self.TRAJ.columns()
        assert set(cols) == {"t", "h", "hdot", "kappa_pass", "kappa_prop"}
        assert self.TRAJ.min_h == cols["h"].min()
        assert self.TRAJ.t_end == cols["t"][-1]

    def test_determinism(self):
        cache_clear()
        again = simulate(active(NAVIER), t_max=200.0)
        assert again.points == self.TRAJ.points
        assert again.t_coll == self.TRAJ.t_coll

    def test_slip_length_below_the_series_floor(self):
        # beta = 1e-12 lies below the 1e-9 contact floor: the drag there is the
        # no-slip continuation, and the massless pair still reaches contact.
        traj = simulate(forced(BoundaryCondition.navier(1e-12), h0=0.01), t_max=1e4)
        assert traj.termination is TerminationKind.COLLISION
        assert traj.points[-1].h == traj.h_floor == 1e-9


class TestNoSlipStall:
    TRAJ = simulate(active(NO_SLIP), t_max=50.0)

    def test_never_reaches_floor(self):
        assert self.TRAJ.termination is TerminationKind.HORIZON_REACHED
        assert self.TRAJ.t_coll is None
        assert self.TRAJ.min_h > self.TRAJ.h_floor
        assert self.TRAJ.t_end == pytest.approx(50.0, rel=1e-12)

    def test_exponential_lower_bound_certificate(self):
        # The a priori rate bounds the run it never saw, and near contact it
        # meets the lubrication limit 2 F(floor) / (3 pi).
        sc, floor = self.TRAJ.scenario, self.TRAJ.h_floor
        rate = decay_rate_bound(sc, floor)
        cols = self.TRAJ.columns()
        assert np.all(cols["h"] >= sc.h0 * np.exp(-rate * cols["t"]) * (1.0 - 1e-12))
        force = drag.net_propulsion(floor, sc.lam, sc.f_p, NO_SLIP)
        assert abs(rate * 3.0 * np.pi / (2.0 * force) - 1.0) <= 1e-3

    def test_horizon_point_solves_the_time_integral(self):
        # The last point sits where the contact-time integral from h0 reaches
        # the horizon; the quadrature below shares only the drag model.
        assert self.TRAJ.t_end == 50.0
        rep = collision_time_quadrature(self.TRAJ.scenario, h_floor=self.TRAJ.min_h)
        assert rep.time_to_floor == pytest.approx(50.0, rel=1e-9)

    def test_decay_rate_scales_with_forcing(self):
        # A constant squeezing force enters the rate as a factor.
        slow = decay_rate_bound(forced(NO_SLIP, h0=0.3))
        fast = decay_rate_bound(forced(NO_SLIP, h0=0.3, f_ext=2.0))
        assert fast / slow == pytest.approx(2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "sc",
        [active(NO_SLIP), forced(NO_SLIP, h0=0.3), active(NAVIER)],
        ids=["active-no-slip", "forced-no-slip", "active-navier"],
    )
    def test_decay_rate_grid_is_fine_enough(self, sc):
        # The sup over the panel edges (at most 0.05 apart in ln h) against
        # the sup over a grid five times finer.
        floor = default_h_floor(sc.bc)
        hs = np.geomspace(floor, sc.h0, int(np.ceil(np.log(sc.h0 / floor) / 0.01)) + 1)
        kp, kpr = drag.kappa_arrays(hs, sc.bc, lam=sc.lam)
        force = sc.f_p * (1.0 - kpr) if sc.mode is Mode.ACTIVE else sc.f_ext
        fine = float(np.max(force / (hs * kp)))
        assert decay_rate_bound(sc) == pytest.approx(fine, rel=1e-9)

    def test_decay_rate_guards(self):
        with pytest.raises(InvalidRegimeError):
            decay_rate_bound(forced(NO_SLIP, mass=0.1, s0=1.0))
        for floor in (0.5, 0.6, 0.0, -1e-7, float("nan")):
            with pytest.raises(DomainError):
                decay_rate_bound(forced(NO_SLIP), h_floor=floor)


class TestNoSlipFloor:
    # Under no slip the gap only decays exponentially: a run that reaches
    # its floor has not touched, so the floor is no collision.
    def test_massless_floor_is_not_a_collision(self):
        traj = simulate(forced(NO_SLIP, h0=1.0), t_max=200.0)
        assert traj.termination is TerminationKind.FLOOR_REACHED
        assert traj.t_coll is None
        assert traj.t_end == pytest.approx(107.369, rel=1e-5)
        assert traj.points[-1].h == traj.h_floor

    def test_inertial_floor_is_not_a_collision(self):
        sc = forced(NO_SLIP, h0=0.3, mass=0.5, s0=50.0)
        traj = simulate(sc, t_max=5.0, h_floor=0.05)
        assert traj.termination is TerminationKind.FLOOR_REACHED
        assert traj.t_coll is None
        assert traj.t_end < 5.0


class TestMasslessEvaluations:
    """How many gaps a massless run evaluates, counted by the propulsion-factor
    memo: an active run asks it once per node, and it misses once per gap."""

    def test_collision_run_evaluates_each_node_once(self):
        # Above the series floor no two nodes share a memo entry.
        cache_clear()
        traj = simulate(active(NAVIER), t_max=200.0, h_floor=1e-5)
        assert traj.termination is TerminationKind.COLLISION
        info = _series_prop.cache_info()
        # h0, then the three inner nodes and the far edge of every panel
        assert (info.hits, info.misses) == (0, 1 + 4 * (len(traj.points) - 1))

    def test_horizon_run_stops_after_its_block(self):
        cache_clear()
        traj = simulate(active(NAVIER), t_max=90.0)
        assert traj.termination is TerminationKind.HORIZON_REACHED
        horizon_panel = len(traj.points) - 2
        assert horizon_panel > _BLOCK_PANELS
        evaluated = _series_prop.cache_info().misses
        # h0 and the horizon point, plus four nodes a panel: at least through
        # the horizon panel, and no panel a block past it.
        assert 2 + 4 * (horizon_panel + 1) <= evaluated
        assert evaluated <= 2 + 4 * (horizon_panel + _BLOCK_PANELS)


class TestMasslessReference:
    """Contact times against an explicit time integration of h' = -F / kappa_pass
    by scipy's DOP853, which shares nothing with simulate but the drag model."""

    @pytest.mark.parametrize(
        "sc",
        [
            active(BoundaryCondition.navier(0.1)),
            active(BoundaryCondition.navier(0.05), h0=0.3),
            forced(BoundaryCondition.navier(0.2), h0=1.0),
        ],
        ids=["active-beta0.1", "active-beta0.05", "passive-beta0.2"],
    )
    def test_contact_time_matches_dop853(self, sc):
        traj = simulate(sc, t_max=5000.0)
        assert traj.termination is TerminationKind.COLLISION

        def contact(t, y):
            return y[0] - traj.h_floor

        contact.terminal = True
        contact.direction = -1.0
        ref = solve_ivp(
            lambda t, y: rhs(sc, y),
            (0.0, 5000.0),
            [sc.h0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-3 * traj.h_floor,
            events=contact,
        )
        assert ref.status == 1
        assert traj.t_coll == pytest.approx(ref.t_events[0][0], rel=1e-7)


class TestInertialDynamics:
    def test_coasting_is_monotone(self):
        # No forcing at all: drag only ever spends the initial momentum.
        sc = active(NO_SLIP, f_p=0.0, mass=0.5, s0=1.0)
        traj = simulate(sc, t_max=0.05)
        cols = traj.columns()
        assert np.all(np.diff(cols["h"]) < 0.0)
        speeds = -cols["hdot"]
        assert np.all(np.diff(speeds) <= 1e-11 * speeds[:-1])

    def test_inertial_collision(self):
        sc = forced(NAVIER, mass=0.1, s0=1.0)
        traj = simulate(sc, t_max=200.0)
        assert traj.termination is TerminationKind.COLLISION
        last = traj.points[-1]
        assert abs(last.h - traj.h_floor) <= 1e-6 * traj.h_floor


class TestSimulateGuards:
    def test_start_below_floor(self):
        with pytest.raises(InvalidRegimeError):
            simulate(active(NAVIER, h0=1e-10), t_max=1.0)

    def test_bad_horizon(self):
        with pytest.raises(DomainError):
            simulate(active(NAVIER), t_max=0.0)

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance(self, name, bad):
        with pytest.raises(DomainError, match=name):
            simulate(forced(NAVIER, mass=0.1), t_max=1.0, **{name: bad})

    @pytest.mark.parametrize("mass", [0.0, 0.1], ids=["massless", "inertial"])
    @pytest.mark.parametrize("bad", [2.5, 10.0, 0, -3, float("nan"), float("inf"), "10"])
    def test_bad_step_budget(self, bad, mass):
        # Neither path may coerce a bad budget: a float is not a panel count,
        # and a count below one would report a budget exhausted at t = 0.
        with pytest.raises(DomainError, match="max_steps"):
            simulate(active(NAVIER, mass=mass), t_max=10.0, max_steps=bad)

    def test_step_budget_reported(self):
        with pytest.raises(StiffnessError) as exc:
            simulate(active(NAVIER), t_max=200.0, max_steps=10)
        assert exc.value.t is not None

    def test_massless_speed_reversal(self):
        # Without a net inward drive the massless gap does not close: the run
        # ends at its start.
        traj = simulate(active(NAVIER, f_p=0.0), t_max=10.0)
        assert traj.termination is TerminationKind.SPEED_REVERSED
        assert traj.t_end == 0.0 and len(traj.points) == 1

    def test_drive_lost_on_the_way_in(self, monkeypatch):
        # A propulsion factor that passes one below h = 0.2 turns the drive
        # off after the start; the approach then has no collision course.
        real = drag.kappa_arrays

        def fake(hs, bc, truncation=None, lam=None):
            kp, kpr = real(hs, bc, truncation, lam)
            return kp, np.where(np.asarray(hs) < 0.2, 1.5, kpr)

        monkeypatch.setattr(drag, "kappa_arrays", fake)
        with pytest.raises(InvalidRegimeError, match=r"at h = 0\.19"):
            simulate(active(NAVIER), t_max=200.0)

    def test_rounding_can_lose_the_drive(self):
        # At lam = 1e-9 the series gives 1 - kappa_prop = -4.1e-14 at h = 1e-3:
        # the built-in model alone needs both drive guards.
        sc = active(NAVIER, lam=1e-9)
        with pytest.raises(InvalidRegimeError, match=r"at h = 0\.40"):
            simulate(sc, t_max=1e300)
        with pytest.raises(InvalidRegimeError, match=r"at h = 9\.7"):
            collision_time_quadrature(sc)


class TestQuadrature:
    def test_matches_simulation(self):
        sc = active(NAVIER)
        rep = collision_time_quadrature(sc)
        traj = simulate(sc, t_max=200.0)
        assert isinstance(rep, QuadratureReport)
        assert rep.time_to_floor == pytest.approx(traj.t_coll, rel=1e-8)
        assert rep.abserr < 1e-6 * rep.time_to_floor
        assert not rep.diverged

    def test_noslip_tail_diverges(self):
        rep = collision_time_quadrature(forced(NO_SLIP, h0=0.3))
        assert rep.diverged
        assert rep.tail_exponent == pytest.approx(-1.0, abs=0.05)

    def test_needs_massless_scenario(self):
        with pytest.raises(InvalidRegimeError):
            collision_time_quadrature(forced(NAVIER, mass=0.1))

    def test_floor_must_be_below_start(self):
        with pytest.raises(DomainError):
            collision_time_quadrature(active(NAVIER), h_floor=1.0)

    def test_rejects_outward_drive(self):
        with pytest.raises(InvalidRegimeError):
            collision_time_quadrature(active(NAVIER, f_p=0.0))


class TestInertialTable:
    """Inertial runs read a Chebyshev drag.kappa_table and give Radau its
    closed-form Jacobian; both are checked against the public series rhs."""

    @pytest.mark.parametrize(
        "sc",
        [active(NAVIER, mass=0.1), forced(NAVIER, mass=0.1), active(NO_SLIP, mass=0.1, lam=5.0)],
        ids=["active", "passive", "active_no_slip"],
    )
    @pytest.mark.parametrize("h", [0.5, 3e-3, 1e-6])
    def test_jacobian_matches_the_series(self, sc, h):
        # 0.5 is above beta, 3e-3 inside the slip layer of NAVIER (and on the
        # series for no slip), 1e-6 below SERIES_GAP_FLOOR.
        active_pair = sc.mode is Mode.ACTIVE
        table = drag.kappa_table(sc.bc, lam=sc.lam if active_pair else None)
        y = np.array([h, -0.5])
        jac = _table_jacobian(sc, table, y)
        steps = (1e-5 * h, 1e-5)
        difference = np.column_stack(
            [(rhs(sc, y + d) - rhs(sc, y - d)) / (2.0 * s) for s, d in zip(steps, np.diag(steps))]
        )
        np.testing.assert_allclose(jac, difference, rtol=1e-6, atol=0.0)

    def test_passive_run_builds_no_propulsion_table(self):
        cache_clear()
        traj = simulate(forced(NAVIER, mass=0.1), t_max=1.0)
        assert traj.points[-1].t == 1.0
        assert _series_prop.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "sc",
        [active(NAVIER, mass=0.1, s0=1.0), active(NAVIER, mass=0.1)],
        ids=["test_06", "nominal"],
    )
    def test_collision_time_matches_the_series(self, sc):
        # The reference integrates the public series rhs with a
        # finite-difference Jacobian.
        floor = default_h_floor(sc.bc)
        contact = lambda t, y: y[0] - floor
        contact.terminal, contact.direction = True, -1.0
        ref = solve_ivp(
            lambda t, y: rhs(sc, y),
            (0.0, 200.0),
            [sc.h0, -sc.s0],
            method="Radau",
            rtol=1e-8,
            atol=1e-12,
            events=contact,
        )
        t_ref = ref.t_events[0][0]
        traj = simulate(sc, t_max=200.0)
        assert traj.termination is TerminationKind.COLLISION
        assert traj.t_coll == pytest.approx(t_ref, rel=1e-8, abs=0.0)

    def test_reruns_are_identical(self):
        sc = active(NAVIER, mass=0.1, lam=0.7)
        cache_clear()
        cold = simulate(sc, t_max=20.0)
        warm = simulate(sc, t_max=20.0)
        assert cold.points == warm.points and len(cold.points) > 10
