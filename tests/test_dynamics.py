"""Encounter dynamics: integrators, terminations, quadrature, bounds, the inertial reader."""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from swimcollide import _radau, drag, dynamics
from swimcollide.drag import SERIES_GAP_FLOOR, BoundaryCondition, _series_prop, cache_clear
from swimcollide.dynamics import (
    _BLOCK_EDGES,
    _GAP_CLAMP,
    _KappaTable,
    _STENCIL_PANELS,
    _STENCIL_TO_MONOMIAL,
    _STENCIL_WEIGHTS,
    _jacobian,
    _panel_edges,
    _segment_stops,
    Mode,
    QuadratureReport,
    SwimmerScenario,
    TerminationKind,
    TrajectoryPoint,
    collision_time_quadrature,
    decay_rate_bound,
    default_h_floor,
    rhs,
    simulate,
)
from swimcollide.errors import DomainError, InvalidRegimeError, StiffnessError
from swimcollide.series import SeriesTruncation

NO_SLIP = BoundaryCondition.no_slip()
NAVIER = BoundaryCondition.navier(0.1)


def active(bc, **kw):
    return SwimmerScenario(mode=Mode.ACTIVE, bc=bc, **{"h0": 0.5, **kw})


def forced(bc, **kw):
    return SwimmerScenario(
        mode=Mode.PASSIVE_FORCED, bc=bc, **{"h0": 0.5, "f_ext": 1.0, **kw}
    )


def kappa_reader(sc, truncation=None, floor=None):
    """The coefficient reader an inertial run of sc to floor builds."""
    lam = sc.lam if sc.mode is Mode.ACTIVE else None
    stops = _segment_stops(sc, default_h_floor(sc.bc) if floor is None else floor)
    return _KappaTable(sc.bc, truncation, lam, stops)


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
            {"mode": Mode.ACTIVE, "bc": "navier", "h0": 0.5},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": "0.5"},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "lam": None},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "mass": "0"},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": True},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "lam": True},
            {"mode": Mode.ACTIVE, "bc": NO_SLIP, "h0": 0.5, "f_ext": -1.0},
            {"mode": Mode.PASSIVE_FORCED, "bc": NO_SLIP, "h0": 0.5, "f_ext": 1.0, "f_p": np.nan},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(DomainError):
            SwimmerScenario(**kwargs)

    @pytest.mark.parametrize("name, value", [("h0", "0.5"), ("lam", None), ("mass", "0")])
    def test_non_numbers_are_named(self, name, value):
        bound = ">= 0" if name == "mass" else "> 0"
        message = f"{name} must be a finite real number {bound}, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            active(NO_SLIP, **{name: value})

    def test_numbers_are_stored_as_floats(self):
        # Any real number is read as its float, for a massless run too.
        exact = SwimmerScenario(
            mode=Mode.ACTIVE,
            bc=NAVIER,
            h0=Fraction(1, 2),
            s0=0,
            mass=np.int64(0),
            f_p=np.float32(1.0),
            lam=Fraction(1),
            f_ext=False + 0,
        )
        fields = ("h0", "s0", "mass", "f_p", "lam", "f_ext")
        assert all(type(getattr(exact, name)) is float for name in fields)
        assert exact == active(NAVIER)
        assert simulate(exact, 200.0) == simulate(active(NAVIER), 200.0)

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
        assert again == self.TRAJ

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

    def test_certificate_below_the_gap_clamp(self):
        # A floor far below the 1e-15 clamp of rhs: the run and the bound read
        # the drag at the gaps they integrate, so the run meets the drag
        # model's own time to that floor and the bound holds all the way down.
        sc = self.TRAJ.scenario
        traj = simulate(sc, t_max=1000.0, h_floor=1e-20)
        assert traj.termination is TerminationKind.FLOOR_REACHED
        rate = decay_rate_bound(sc, 1e-20)
        cols = traj.columns()
        assert np.all(cols["h"] >= sc.h0 * np.exp(-rate * cols["t"]) * (1.0 - 1e-12))

        dt_du = lambda u: _dt_du(sc, u)
        exact, _ = quad(dt_du, np.log(1e-20), np.log(sc.h0), limit=400, epsabs=0.0, epsrel=1e-12)
        assert traj.t_end == pytest.approx(exact, rel=1e-9)

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
        for floor in (0.5, 0.6):
            with pytest.raises(InvalidRegimeError):
                decay_rate_bound(forced(NO_SLIP), h_floor=floor)
        for floor in (0.0, -1e-7, float("nan")):
            with pytest.raises(DomainError, match="h_floor"):
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


class TestColumnarTrajectory:
    """A Trajectory keeps its points as one tuple of floats per field and
    builds the TrajectoryPoints only when asked for them."""

    RUNS = {
        "massless_collision": lambda: simulate(forced(NAVIER, h0=0.1), t_max=200.0),
        "massless_horizon": lambda: simulate(active(NO_SLIP), t_max=20.0),
        "inertial": lambda: simulate(active(NAVIER, mass=0.1), t_max=5.0),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_points_are_the_columns_zipped(self, run):
        traj = self.RUNS[run]()
        assert len(traj.data) == len(dataclasses.fields(TrajectoryPoint))
        assert traj.points == tuple(map(TrajectoryPoint, *traj.data))
        assert all(type(v) is float for p in traj.points for v in dataclasses.astuple(p))
        assert traj.points is traj.points  # built once

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_summaries_read_the_columns_only(self, run):
        traj = self.RUNS[run]()
        t_end, min_h, cols = traj.t_end, traj.min_h, traj.columns()
        assert "points" not in vars(traj)
        assert t_end == traj.points[-1].t and type(t_end) is float
        assert min_h == min(p.h for p in traj.points) and type(min_h) is float
        for name, column in cols.items():
            np.testing.assert_array_equal(column, [getattr(p, name) for p in traj.points])

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_equal_runs_are_equal(self, run):
        traj = self.RUNS[run]()
        cache_clear()
        again = self.RUNS[run]()
        assert again == traj and hash(again) == hash(traj)
        assert again.points == traj.points


class TestMasslessEvaluations:
    """How many gaps a massless run evaluates, counted by the propulsion-factor
    memo: an active run asks it once per edge, and it misses once per gap."""

    def test_collision_run_evaluates_each_node_once(self):
        # The edges are the only nodes, and above the series floor no two
        # share a memo entry.
        cache_clear()
        traj = simulate(active(NAVIER), t_max=200.0, h_floor=1e-5)
        assert traj.termination is TerminationKind.COLLISION
        info = _series_prop.cache_info()
        assert (info.hits, info.misses) == (0, len(traj.points))

    def test_horizon_run_stops_after_its_block(self):
        cache_clear()
        traj = simulate(active(NAVIER), t_max=90.0)
        assert traj.termination is TerminationKind.HORIZON_REACHED
        horizon_panel = len(traj.points) - 2
        assert horizon_panel > _BLOCK_EDGES
        evaluated = _series_prop.cache_info().misses
        # The horizon panel lies well inside the segment below beta = 0.1
        # (panels 33 to 249), so its stencil ends 4 edges past its near edge.
        last = horizon_panel + 4
        # h0 and the horizon point, plus every edge through that stencil, and
        # no block past the one that completes it.
        assert 2 + last <= evaluated <= 1 + last + _BLOCK_EDGES

    def test_collision_run_makes_few_drag_calls(self, monkeypatch):
        # h0, one block of _BLOCK_EDGES, and then every edge left to the
        # floor, since no panel past the last edge can reach the horizon:
        # in blocks of 32 edges the same run made 13 calls.
        calls = []
        real = drag.kappa_arrays

        def counted(hs, *args, **kwargs):
            calls.append(len(hs))
            return real(hs, *args, **kwargs)

        monkeypatch.setattr(drag, "kappa_arrays", counted)
        traj = simulate(forced(NAVIER, h0=0.1), t_max=200.0)
        assert traj.termination is TerminationKind.COLLISION
        assert len(calls) <= 3 and calls[:2] == [1, _BLOCK_EDGES]
        assert sum(calls) == len(traj.data[0])

    def test_short_segment_gets_a_full_stencil(self):
        # h0 = 1.01 beta leaves 0.01 in ln h above the kink at beta, which
        # still gets the 7 panels a stencil needs.
        sc = active(NAVIER, h0=1.01 * NAVIER.beta)
        traj = simulate(sc, t_max=1e3)
        assert traj.termination is TerminationKind.COLLISION
        assert sum(p.h >= NAVIER.beta for p in traj.points) - 1 >= 7
        # The reference breaks at both kinks, as collision_time_quadrature
        # does; TestQuadrature checks that one against this run.
        stops = np.log([traj.h_floor, drag.SERIES_GAP_FLOOR, NAVIER.beta, sc.h0])
        exact = sum(
            quad(lambda u: _dt_du(sc, u), a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
            for a, b in zip(stops, stops[1:])
        )
        assert traj.t_coll == pytest.approx(exact, rel=1e-10, abs=0.0)


def _dt_du(sc, u):
    """The massless integrand -h / h' at h = exp(u), from the public drag calls."""
    h = np.exp(u)
    kpr = drag.kappa_prop(h, sc.lam, sc.bc) if sc.mode is Mode.ACTIVE else 0.0
    force = sc.f_p * (1.0 - kpr) if sc.mode is Mode.ACTIVE else sc.f_ext
    return h * drag.kappa_pass(h, sc.bc) / force


class TestStencilQuadrature:
    """The 8-edge stencils a massless run integrates with."""

    def test_rows_integrate_monomials_exactly(self):
        # Row r integrates x^p over [r, r + 1] from the values at 0, ..., 7.
        # The sum runs in rationals, so only the rounding of the table's
        # entries remains, at most 2^-53 of each term.
        for r, row in enumerate(_STENCIL_WEIGHTS):
            for p in range(8):
                terms = [Fraction(w) * k**p for k, w in enumerate(row.tolist())]
                exact = Fraction((r + 1) ** (p + 1) - r ** (p + 1), p + 1)
                scale = sum(abs(x) for x in terms)
                assert abs(sum(terms) - exact) <= 1e-15 * scale

    def test_monomial_map_reproduces_monomials(self):
        # The values of x^p at 0, ..., 7 map to the p-th unit vector.
        for p in range(8):
            for i, row in enumerate(_STENCIL_TO_MONOMIAL):
                terms = [Fraction(m) * k**p for k, m in enumerate(row.tolist())]
                scale = sum(abs(x) for x in terms)
                assert abs(sum(terms) - (i == p)) <= 1e-15 * scale

    @pytest.mark.parametrize(
        "sc",
        [active(NAVIER), forced(BoundaryCondition.navier(0.05), h0=0.12)],
        ids=["active-beta0.1", "passive-beta0.05"],
    )
    def test_time_at_every_point_matches_quad(self, sc):
        # One quad per panel between consecutive recorded points, each of
        # which lies inside one segment, summed in order.
        traj = simulate(sc, t_max=1e4)
        assert traj.termination is TerminationKind.COLLISION
        cols = traj.columns()
        u = np.log(cols["h"])
        panels = [
            quad(lambda x: _dt_du(sc, x), b, a, epsabs=0.0, epsrel=1e-13)[0]
            for a, b in zip(u, u[1:])
        ]
        exact = np.cumsum(np.append(0.0, panels))
        np.testing.assert_allclose(cols["t"], exact, rtol=1e-11, atol=0.0)


class TestHorizonPoint:
    """The last point of a horizon run, where the stencil polynomial of the
    first panel to pass t_max reaches it."""

    @pytest.mark.parametrize("bc", [NO_SLIP, NAVIER], ids=["no_slip", "navier"])
    @pytest.mark.parametrize("h0", [0.3, 2.0])
    @pytest.mark.parametrize("t_max", [7.0, 60.0])
    def test_lies_on_its_panel_at_the_horizon(self, bc, h0, t_max):
        sc = active(bc, h0=h0)
        traj = simulate(sc, t_max=t_max)
        assert traj.termination is TerminationKind.HORIZON_REACHED
        end = traj.points[-1]
        assert end.t == t_max
        # Every point before it is an edge, so its panel runs from the last
        # recorded edge to the next one.
        edges, _ = _panel_edges(_segment_stops(sc, traj.h_floor))
        n = len(traj.points)
        assert traj.points[-2].h == edges[n - 2]
        assert edges[n - 1] <= end.h <= edges[n - 2]
        # The quadrature shares only the drag model and the kinks with the run.
        rep = collision_time_quadrature(sc, h_floor=end.h)
        assert rep.time_to_floor == pytest.approx(t_max, rel=1e-9, abs=0.0)


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

    @pytest.mark.parametrize("rtol", [1e-16, 2.2e-14])
    def test_rtol_below_100_eps(self, rtol):
        # Radau's error control is not meant for a tighter rtol, and scipy
        # raised such an rtol to 100 eps with only a warning.
        with pytest.raises(DomainError, match="^rtol must be at least 100 eps"):
            simulate(forced(NAVIER, mass=0.1), t_max=1.0, rtol=rtol)

    def test_massless_run_has_no_step_budget(self, monkeypatch):
        # A massless run's panel count is fixed by h0, the floor and beta.
        sc = active(NAVIER)
        full = simulate(sc, t_max=200.0)
        monkeypatch.setattr(dynamics, "_RHS_BUDGET", 1)
        assert simulate(sc, t_max=200.0) == full

    @pytest.mark.parametrize(
        "name, bad",
        [
            (name, bad)
            for name in ("t_max", "h_floor", "rtol", "atol", "truncation", "scenario")
            for bad in (True, "1e-8", None, float("nan"), float("inf"))
            # None selects the default floor and the default truncation
            if (name, bad) not in (("h_floor", None), ("truncation", None))
        ],
    )
    def test_bad_setting_is_named(self, name, bad):
        settings = {"scenario": active(NAVIER, mass=0.1), "t_max": 10.0, name: bad}
        with pytest.raises(DomainError, match=f"^{name} must be"):
            simulate(**settings)

    @pytest.mark.parametrize("bad", [None, "x", NAVIER], ids=["None", "string", "bc"])
    @pytest.mark.parametrize("entry", [collision_time_quadrature, decay_rate_bound])
    def test_bad_scenario_is_named(self, entry, bad):
        with pytest.raises(DomainError, match="^scenario must be a SwimmerScenario, got"):
            entry(bad)

    @pytest.mark.parametrize("bad", [True, "abc", float("inf")])
    @pytest.mark.parametrize("entry", [collision_time_quadrature, decay_rate_bound])
    def test_bad_floor_is_named(self, entry, bad):
        with pytest.raises(DomainError, match="^h_floor must be"):
            entry(active(NAVIER), h_floor=bad)

    @pytest.mark.parametrize("floor", [0.5, 0.6])
    @pytest.mark.parametrize(
        "entry",
        [lambda sc, f: simulate(sc, 1.0, h_floor=f), collision_time_quadrature, decay_rate_bound],
        ids=["simulate", "quadrature", "decay_rate"],
    )
    def test_floor_at_or_above_start(self, entry, floor):
        # One floor rule: a floor at or above h0 = 0.5 leaves no run to make.
        with pytest.raises(InvalidRegimeError, match="not above the floor"):
            entry(active(NAVIER), floor)

    def test_radau_failure_carries_the_last_step(self, monkeypatch):
        # Drag that turns to NaN below h = 0.2 fails every Newton iteration
        # whose stages reach it, so the steps halve until they fall below
        # the spacing of floats; the error carries the last accepted step.
        real = dynamics._KappaTable

        def fake(bc, truncation, lam, stops):
            table = real(bc, truncation, lam, stops)
            nan = lambda slope: (np.nan,) * (2 + 2 * slope)
            return lambda h, slope=False: table(h, slope) if h >= 0.2 else nan(slope)

        steps, real_steps = [], _radau.steps

        def recorded(*args):
            for step in real_steps(*args):
                steps.append(step)
                yield step

        monkeypatch.setattr(dynamics, "_KappaTable", fake)
        monkeypatch.setattr(_radau, "steps", recorded)
        with pytest.raises(StiffnessError, match="^implicit integration failed: Required") as exc:
            simulate(active(NAVIER, mass=0.1), t_max=200.0)
        assert exc.value.t == steps[-1].t and exc.value.state == steps[-1].y
        assert 0.2 <= exc.value.state[0] < 0.2 + 1e-9

    def test_inertial_evaluation_budget_reported(self, monkeypatch):
        # A budget of 25 right-hand-side calls is spent within Radau's first
        # steps: the error carries the time and (h, h') there.
        monkeypatch.setattr(dynamics, "_RHS_BUDGET", 25)
        with pytest.raises(StiffnessError, match="evaluation budget 25") as exc:
            simulate(active(NAVIER, mass=0.1), t_max=200.0)
        h, hdot = exc.value.state
        assert 0.0 < exc.value.t < 1e-2
        assert 0.49 < h < 0.5 and hdot < 0.0

    @pytest.mark.parametrize("kw", [{"mass": 1e-300}, {"mass": 0.1, "s0": 1e300}])
    def test_first_step_underflow_is_stiffness(self, kw):
        # Radau's initial step 0.01 d0/d1 underflows to 0; as in scipy, d2
        # is then inf, and the run fails at its start, on the minimum step.
        sc = active(NAVIER, **kw)
        with pytest.raises(StiffnessError) as exc:
            simulate(sc, t_max=10.0)
        assert exc.value.t == 0.0 and exc.value.state == (sc.h0, -sc.s0)

    def test_massless_speed_reversal(self):
        # Without a net inward drive the massless gap does not close: the run
        # ends at its start.
        traj = simulate(active(NAVIER, f_p=0.0), t_max=10.0)
        assert traj.termination is TerminationKind.SPEED_REVERSED
        assert traj.t_end == 0.0 and len(traj.points) == 1

    def test_inertial_pair_at_rest_stays_at_rest(self):
        # Its inertial twin starting at rest is never pushed outward: it sits
        # at h0 until its horizon, on the Radau start from rest.
        traj = simulate(active(NAVIER, f_p=0.0, mass=0.1), t_max=10.0)
        assert traj.termination is TerminationKind.HORIZON_REACHED
        assert traj.t_end == 10.0 and set(traj.data[1]) == {0.5} and set(traj.data[2]) == {0.0}

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

    def test_inertial_drive_lost_on_the_way_in(self, monkeypatch):
        # The same lost drive under inertia: the pair coasts in below h = 0.2,
        # is pushed back out, and the run ends where the speed turns outward.
        real = dynamics._KappaTable

        def fake(bc, truncation, lam, stops):
            table = real(bc, truncation, lam, stops)

            def at(h, slope=False):
                values = table(h, slope)
                return values[: 1 + slope] + (1.5, 0.0)[: 1 + slope] if h < 0.2 else values

            return at

        monkeypatch.setattr(dynamics, "_KappaTable", fake)
        traj = simulate(active(NAVIER, mass=0.1), t_max=200.0)
        assert traj.termination is TerminationKind.SPEED_REVERSED
        assert traj.t_coll is None and 0.19 < traj.min_h < 0.2
        assert traj.points[-1].kappa_prop == 1.5 and traj.points[-1].hdot > 0.0

    def test_rounding_can_lose_the_drive(self):
        # At lam = 1e-9 the series gives 1 - kappa_prop = -4.1e-14 at h = 1e-3:
        # the built-in model alone needs both drive guards.
        sc = active(NAVIER, lam=1e-9)
        with pytest.raises(InvalidRegimeError, match=r"at h = 0\.067"):
            simulate(sc, t_max=1e300)
        # The drive rounds to <= 0 at scattered gaps, so the quadrature's
        # nodes lose it at another gap than the run's edges; it names the
        # largest lost node.
        with pytest.raises(InvalidRegimeError, match=r"at h = 0\.13889"):
            collision_time_quadrature(sc)


def _quad_reference(sc, floor):
    """The time to the floor by scipy's adaptive quad in u = ln h, split at
    the same kinks as collision_time_quadrature, to 1e-13 relative."""
    stops = np.log(_segment_stops(sc, floor))
    return sum(
        quad(lambda u: _dt_du(sc, u), lo, hi, limit=400, epsabs=0.0, epsrel=1e-13)[0]
        for hi, lo in zip(stops, stops[1:])
    )


class TestQuadrature:
    @pytest.mark.parametrize(
        "sc, rel",
        [
            (active(NAVIER), 1e-12),
            (active(BoundaryCondition.navier(1e-3)), 1e-12),
            (forced(NAVIER), 1e-12),
            (active(NO_SLIP), 1e-12),
            # At lam = 0.01 the drive 1 - kappa_prop carries rounding noise
            # of about 1e-9 relative, which also stops quad short of 1e-13.
            pytest.param(
                active(NO_SLIP, lam=0.01),
                1e-8,
                marks=pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning"),
            ),
        ],
        ids=["navier", "navier_1e-3", "passive_navier", "no_slip", "no_slip_lam_0.01"],
    )
    def test_matches_adaptive_quad(self, sc, rel):
        rep = collision_time_quadrature(sc)
        assert rep.time_to_floor == pytest.approx(_quad_reference(sc, rep.h_floor), rel=rel)
        assert rep.abserr < 1e-6 * rep.time_to_floor

    def test_eight_nodes_a_panel(self, monkeypatch):
        # One drag call reads the 8 nodes of each panel, at most 1 wide in
        # ln h: Navier beta = 1e-3 from 0.5 to 1e-9 has 22 panels. abserr
        # comes from those nodes too, and it shows the drive's rounding
        # noise: the rounding of the sum, 3e-15 of the time, where the
        # drive is clean, 1e-9 at no slip with lam = 0.01.
        gaps, real = [], drag.kappa_arrays
        counted = lambda hs, *a, **kw: gaps.append(np.size(hs)) or real(hs, *a, **kw)
        monkeypatch.setattr(drag, "kappa_arrays", counted)
        rep = collision_time_quadrature(active(BoundaryCondition.navier(1e-3)))
        assert gaps == [8 * 22]
        assert rep.abserr < 1e-14 * rep.time_to_floor
        noisy = collision_time_quadrature(active(NO_SLIP, lam=0.01))
        assert 1e-12 * noisy.time_to_floor < noisy.abserr < 1e-6 * noisy.time_to_floor
        assert type(rep.abserr) is type(noisy.abserr) is float

    @pytest.mark.parametrize("width", [0.5, 0.7, 1.0, 2.0])
    def test_abserr_covers_the_error_of_a_clean_integrand(self, width, monkeypatch):
        # With F = 1 and kappa_pass = g(ln h) / h the integrand dt/du is
        # g(u) = 1 / (1 + ((u - c) / width)^2), free of series noise, whose
        # integral is width * atan((u - c) / width); its poles at c +- i
        # width set how fast the Legendre coefficients fall. The rule errs
        # by 5.5e-7 at width 0.5 and by 2.7e-15 at width 2, and abserr reads
        # 1.9, 8.4, 3.1 and 157 times that error at the four widths.
        c, lo, hi = -5.0, math.log(1e-7), math.log(0.5)
        g = lambda hs: 1.0 / (1.0 + ((np.log(hs) - c) / width) ** 2)
        clean = lambda sc, hs, truncation: (np.ones_like(hs), g(hs) / hs, np.zeros_like(hs))
        monkeypatch.setattr(dynamics, "_force_and_coefficients", clean)
        rep = collision_time_quadrature(forced(NO_SLIP), h_floor=1e-7)
        exact = width * (math.atan((hi - c) / width) - math.atan((lo - c) / width))
        assert abs(rep.time_to_floor - exact) <= rep.abserr <= 1e-5 * exact

    def test_matches_simulation(self):
        sc = active(NAVIER)
        rep = collision_time_quadrature(sc)
        traj = simulate(sc, t_max=200.0)
        assert isinstance(rep, QuadratureReport)
        assert rep.time_to_floor == pytest.approx(traj.t_coll, rel=1e-8)
        assert rep.abserr < 1e-6 * rep.time_to_floor
        assert type(rep.abserr) is float  # here the rounding floor is abserr
        assert traj.termination is TerminationKind.COLLISION
        rate = decay_rate_bound(sc, rep.h_floor)
        assert rep.time_to_floor >= np.log(sc.h0 / rep.h_floor) / rate

    def test_splits_at_the_kinks(self):
        # From h0 = 1.01 beta the kink at beta lies 0.01 in ln h below the
        # start: one quad across it lands 9.3e-6 below the run's
        # 45.1804543794, with an error estimate of only 4e-10.
        sc = active(NAVIER, h0=1.01 * NAVIER.beta)
        traj = simulate(sc, t_max=1e3)
        assert traj.termination is TerminationKind.COLLISION
        rep = collision_time_quadrature(sc)
        assert rep.time_to_floor == pytest.approx(traj.t_coll, rel=1e-9, abs=0.0)

    def test_noslip_tail_diverges(self):
        # The time to the floor is at least ln(h0 / floor) / c*, and c* meets
        # the finite lubrication limit, so the time grows without bound as
        # the floor is lowered.
        sc = forced(NO_SLIP, h0=0.3)
        rep = collision_time_quadrature(sc)
        rate = decay_rate_bound(sc, rep.h_floor)
        assert rate * 3.0 * np.pi / (2.0 * sc.f_ext) == pytest.approx(1.0, abs=1e-3)
        assert rep.time_to_floor >= np.log(sc.h0 / rep.h_floor) / rate

    def test_needs_massless_scenario(self):
        with pytest.raises(InvalidRegimeError):
            collision_time_quadrature(forced(NAVIER, mass=0.1))

    def test_floor_must_be_below_start(self):
        with pytest.raises(InvalidRegimeError):
            collision_time_quadrature(active(NAVIER), h_floor=1.0)

    def test_rejects_outward_drive(self):
        with pytest.raises(InvalidRegimeError):
            collision_time_quadrature(active(NAVIER, f_p=0.0))


class TestInertialTable:
    """Inertial runs read one _KappaTable, which interpolates the drag
    through the edges a massless run of the scenario evaluates, and give
    Radau its Jacobian in closed form from the interpolant's derivative;
    both are checked against the public series rhs."""

    @pytest.mark.parametrize(
        "sc",
        [active(NAVIER, mass=0.1), forced(NAVIER, mass=0.1), active(NO_SLIP, mass=0.1, lam=5.0)],
        ids=["active", "passive", "active_no_slip"],
    )
    @pytest.mark.parametrize("h", [0.5, 3e-3, 1e-6])
    def test_jacobian_matches_the_series(self, sc, h):
        # 0.5 is above beta, 3e-3 inside the slip layer of NAVIER (and on the
        # series for no slip), 1e-6 below SERIES_GAP_FLOOR.
        jac = _jacobian(sc, kappa_reader(sc), (h, -0.5))
        np.testing.assert_allclose(jac, self.difference(sc, h), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize(
        "sc",
        [active(NAVIER, mass=0.1), forced(NAVIER, mass=0.1), active(NO_SLIP, mass=0.1, lam=5.0)],
        ids=["active", "passive", "active_no_slip"],
    )
    @pytest.mark.parametrize("h", [0.5, 3e-3, 1e-6])
    def test_series_jacobian_matches_the_series(self, sc, h):
        # At tail_tol = 1e-13 the panels that cannot certify the tolerance
        # give the series, and their slopes still come from the interpolant.
        at = kappa_reader(sc, SeriesTruncation(tail_tol=1e-13))
        jac = _jacobian(sc, at, (h, -0.5))
        np.testing.assert_allclose(jac, self.difference(sc, h), rtol=1e-6, atol=0.0)
        assert at(-1e-3, slope=True)[1::2] == (0.0, 0.0)

    @staticmethod
    def difference(sc, h):
        y = np.array([h, -0.5])
        steps = (1e-5 * h, 1e-5)
        return np.column_stack(
            [(rhs(sc, y + d) - rhs(sc, y - d)) / (2.0 * s) for s, d in zip(steps, np.diag(steps))]
        )

    def test_flat_below_the_gap_clamp(self):
        # A Radau step can reach h <= 0; the coefficients there are those at
        # the clamp, with zero slopes.
        at = kappa_reader(active(NAVIER, mass=0.1))
        kp, dkp, kpr, dkpr = at(-1e-3, slope=True)
        assert dkp == 0.0 and dkpr == 0.0
        assert (kp, kpr) == at(-1e-3) == at(_GAP_CLAMP)

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
        # At tail_tol = 1e-12 some panels give the series: cold and warm
        # caches must still give the same run there too.
        sc = active(NAVIER, mass=0.1, lam=0.7)
        for truncation in (None, SeriesTruncation(tail_tol=1e-12)):
            cache_clear()
            cold = simulate(sc, t_max=20.0, truncation=truncation)
            warm = simulate(sc, t_max=20.0, truncation=truncation)
            assert cold.points == warm.points and len(cold.points) > 10

    def test_reads_outside_the_run(self, monkeypatch):
        # A Radau stage can read below a floor that sits above
        # SERIES_GAP_FLOOR, or above h0, and a step can reach h <= 0 or
        # hand over NaN: each read is served, and none of them raises.
        sc = active(NAVIER, mass=0.1)
        at = kappa_reader(sc, floor=1e-3)
        for h in [9e-4, 5e-4, 2.5e-6, 0.6, 5.0, 1e3]:
            kp, dkp, kpr, dkpr = at(h, slope=True)
            assert kp == pytest.approx(drag.kappa_pass(h, NAVIER), rel=1e-10, abs=0.0)
            assert kpr == pytest.approx(drag.kappa_prop(h, 1.0, NAVIER), rel=1e-10, abs=0.0)
            assert np.isfinite([dkp, dkpr]).all()
        # A gap far out fills one panel's stencil, 8 edges, and no more.
        calls, real = [], drag._drag_sums
        monkeypatch.setattr(drag, "_drag_sums", lambda h, *a: calls.append(h) or real(h, *a))
        at(1e6)
        assert len(calls) == 8
        assert at(0.0) == at(-1.0) == at(_GAP_CLAMP)
        assert all(map(np.isnan, at(np.nan, slope=True)))
        assert all(map(np.isnan, at(np.inf)))

    def test_one_kernel_call_per_edge(self, monkeypatch):
        # A cold no-slip run evaluates each edge it reaches once, both
        # coefficients in one call of the series kernel; the two Chebyshev
        # tables this reader replaced made 383 such calls. Its other calls
        # are its reads on the panels of the last stencil above
        # SERIES_GAP_FLOOR that lie below the stencil's centre, where
        # kappa_prop gives the series, one call per gap read.
        calls, real = [], drag._drag_sums
        monkeypatch.setattr(drag, "_drag_sums", lambda h, *a: calls.append(h) or real(h, *a))
        reads, read = [], _KappaTable.__call__
        spy = lambda at, h, **kw: reads.append(h) or read(at, h, **kw)
        monkeypatch.setattr(_KappaTable, "__call__", spy)
        sc = active(NO_SLIP, mass=0.1)
        cache_clear()
        simulate(sc, t_max=200.0)
        at = kappa_reader(sc)
        lo, hi, n, base, spacing = at.segments[0]
        assert lo == SERIES_GAP_FLOOR
        top = at.edges[base + n - _STENCIL_PANELS // 2]
        edges = set(calls) & set(at.edges.tolist())
        off = set(calls) - edges
        assert len(calls) == len(set(calls))
        assert off == {h for h in reads if SERIES_GAP_FLOOR < h < top} - edges
        assert 0 < len(edges) < 383 and len(off) > 0

    def test_weights_are_the_barycentric_weights(self):
        # The spelled-out r_j = w_j / (t - j), w_j = (-1)^j C(7, j), between
        # the edges; on an edge it raises, and a read there gives the values
        # kept at the edge, with the interpolant's slope.
        for t in [0.25, 3.5, 6.999, 1e-300]:
            want = [(-1) ** j * math.comb(7, j) / (t - j) for j in range(8)]
            assert dynamics._weights(t) == tuple(want)
        for t in [0.0, 3.0, 7.0]:
            with pytest.raises(ZeroDivisionError):
                dynamics._weights(t)
        # The stops are edges exactly: h0, SERIES_GAP_FLOOR and the floor.
        sc = active(NO_SLIP, mass=0.1)
        at = kappa_reader(sc)
        for h, into in [(sc.h0, -1.0), (SERIES_GAP_FLOOR, 1.0), (default_h_floor(NO_SLIP), 1.0)]:
            t, _, (_, _, _, _, _, kappas) = at._locate(h)
            assert t == round(t)
            assert at(h) == at(h, slope=True)[::2] == kappas[round(t)]
            assert at(h) == (drag.kappa_pass(h, NO_SLIP), drag.kappa_prop(h, 1.0, NO_SLIP))
            step = 1e-7 * h * into  # a difference inside the stop's own segment
            difference = (at(h + step)[0] - at(h)[0]) / step
            assert at(h, slope=True)[1] == pytest.approx(difference, rel=1e-5)
        # kappa_prop's difference is taken at h0 only: above SERIES_GAP_FLOOR
        # the reads give the series, whose scatter a difference there shows.
        step = -1e-7 * sc.h0
        difference = (at(sc.h0 + step)[1] - at(sc.h0)[1]) / step
        assert at(sc.h0, slope=True)[3] == pytest.approx(difference, rel=1e-5)

    def test_estimate_is_the_degree_six_difference(self):
        # A panel's estimate is |p7 - p6| at its midpoint in ln kappa, where
        # p6 leaves out the stencil edge farthest from that midpoint; the
        # reference evaluates both in exact rational arithmetic.
        def lagrange(nodes, values, x):
            return sum(
                Fraction(v) * math.prod(Fraction(x - k, j - k) for k in nodes if k != j)
                for j, v in zip(nodes, values)
            )

        at = kappa_reader(active(NO_SLIP, mass=0.1))
        for h in [0.4, 0.499, 3e-6, 2.1e-6]:
            t, _, (_, f_pass, f_prop, _, estimates, _) = at._locate(h)
            mid = Fraction(2 * int(min(max(t, 0.0), 6.5)) + 1, 2)
            keep = [j for j in range(8) if j != (7 if mid < 3.5 else 0)]
            for f, estimate in zip([f_pass, f_prop], estimates):
                p7 = lagrange(range(8), f, mid)
                p6 = lagrange(keep, [f[j] for j in keep], mid)
                assert estimate == pytest.approx(float(abs(p7 - p6)), rel=1e-6, abs=1e-15)


class TestClosedFormNewton:
    """Inertial runs step on _radau, a port of scipy's Radau to a pair of
    floats that solves its 2 x 2 Newton systems with the explicit inverse;
    stock Radau through solve_ivp is the reference."""

    @pytest.mark.parametrize("mu", [_radau.MU_REAL, _radau.MU_COMPLEX], ids=["real", "complex"])
    @pytest.mark.parametrize("h", [0.5, 3e-3, 1e-6])
    def test_matches_a_pivoted_solve(self, h, mu):
        rng = np.random.default_rng(7)
        for sc in (active(NAVIER, mass=0.1), forced(NAVIER, mass=0.1), active(NO_SLIP, mass=0.1)):
            jac = _jacobian(sc, kappa_reader(sc), (h, -0.5))
            for dt in (1e-9, 1e-5, 1e-1, 10.0):
                matrix = mu / dt * np.eye(2) - np.array(jac)
                inverse = _radau.inverse(matrix.tolist(), 0.0, (1.0, 0.0))
                for _ in range(4):
                    b = rng.standard_normal(2)
                    if mu != _radau.MU_REAL:
                        b = b + 1j * rng.standard_normal(2)
                    want = np.linalg.solve(matrix, b)
                    got = np.array(_radau.solve(inverse, b.tolist()))
                    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    # (scenario, bound on the relative difference of t_end from stock Radau):
    # 1e-12 on the reference starts, 10 rtol on the others. Measured with
    # scipy 1.17: 4.3e-14, 1.5e-14, 1.2e-14 and 1.0e-11. The no-slip run
    # with lam = 5 starts at rest, so its first error norm is scaled by atol
    # alone and amplifies rounding. Steps and rhs calls differ by at most
    # 0.7%.
    @pytest.mark.parametrize(
        "sc, bound",
        [
            (active(NAVIER, mass=0.1, s0=1.0), 1e-12),
            (active(NAVIER, mass=0.1), 1e-12),
            (forced(NAVIER, mass=0.1), 1e-7),
            (active(NO_SLIP, mass=0.1, lam=5.0), 1e-7),
        ],
        ids=["test_06", "nominal", "passive", "no_slip_lam5"],
    )
    def test_agrees_with_stock_radau(self, sc, bound, monkeypatch):
        counts, real_steps = {"steps": 0, "nfev": 0}, _radau.steps

        def counted(fun, *args):
            def fun_counted(t, y):
                counts["nfev"] += 1
                return fun(t, y)

            for step in real_steps(fun_counted, *args):
                counts["steps"] += 1
                yield step

        monkeypatch.setattr(_radau, "steps", counted)
        traj = simulate(sc, t_max=200.0)

        # The same reader rhs, Jacobian and events, on stock Radau.
        at = kappa_reader(sc)

        def rate(t, y):
            kp, kpr = at(y[0])
            return np.array(dynamics._inertial_rate(sc, y, dynamics._force(sc, kpr), kp))

        contact = lambda t, y: y[0] - traj.h_floor
        reversal = lambda t, y: y[1] - 1e-12
        contact.terminal, contact.direction = True, -1.0
        reversal.terminal, reversal.direction = True, 1.0
        ref = solve_ivp(
            rate,
            (0.0, 200.0),
            [sc.h0, -sc.s0],
            method="Radau",
            rtol=1e-8,
            atol=1e-12,
            jac=lambda t, y: np.array(_jacobian(sc, at, y)),
            events=(contact, reversal),
        )
        assert ref.status == 1 and len(ref.t_events[0]) == 1
        assert traj.termination in (TerminationKind.COLLISION, TerminationKind.FLOOR_REACHED)
        assert traj.t_end == pytest.approx(ref.t[-1], rel=bound, abs=0.0)
        assert counts["steps"] == pytest.approx(len(ref.t) - 1, rel=0.01)
        assert counts["nfev"] == pytest.approx(ref.nfev, rel=0.01)

    def test_steps_match_stock_radau_on_van_der_pol(self):
        # A stiff problem that shares nothing with the drag: the port takes
        # scipy's steps and calls, and ends where scipy ends. The step times
        # agree to the last bit for 14 steps; then rounding in the error
        # estimate, a difference of nearly equal numbers, moves them apart
        # by up to 1.2e-7, while the end states agree to 2e-16.
        mu = 1000.0
        rate = lambda t, y: (y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0])
        jac = lambda t, y: ((0.0, 1.0), (-2.0 * mu * y[0] * y[1] - 1.0, mu * (1.0 - y[0] ** 2)))
        calls = []
        counted = lambda t, y: calls.append(t) or rate(t, y)
        steps = list(_radau.steps(counted, jac, 0.0, (2.0, 0.0), 3.0, 1e-8, 1e-10))
        ref = solve_ivp(
            lambda t, y: np.array(rate(t, y)),
            (0.0, 3.0),
            [2.0, 0.0],
            method="Radau",
            rtol=1e-8,
            atol=1e-10,
            jac=lambda t, y: np.array(jac(t, y)),
            dense_output=True,
        )
        assert (len(steps), len(calls)) == (len(ref.t) - 1, ref.nfev)
        assert steps[-1].t == 3.0
        np.testing.assert_allclose([s.t for s in steps], ref.t[1:], rtol=1e-6)
        np.testing.assert_allclose(steps[-1].y, ref.y[:, -1], rtol=1e-12)
        middle = steps[len(steps) // 2]
        at = 0.5 * (middle.t_old + middle.t)
        np.testing.assert_allclose(middle(at), ref.sol(at), rtol=1e-6)

    def test_steps_match_stock_radau_from_rest(self):
        # A stiff damped spring at rest under a drive t^6, which leaves the
        # start rate and its first difference below 1e-15 in scale: scipy's
        # initial step then takes 1e-6, not the 1e-4 of its 100 h0 cap, and
        # the port takes scipy's steps and calls from there.
        mu = 1000.0
        rate = lambda t, y: (y[1], -mu * y[1] - y[0] + t**6)
        jac = lambda t, y: ((0.0, 1.0), (-1.0, -mu))
        calls = []
        counted = lambda t, y: calls.append(t) or rate(t, y)
        steps = list(_radau.steps(counted, jac, 0.0, (0.0, 0.0), 3.0, 1e-8, 1e-10))
        ref = solve_ivp(
            lambda t, y: np.array(rate(t, y)),
            (0.0, 3.0),
            [0.0, 0.0],
            method="Radau",
            rtol=1e-8,
            atol=1e-10,
            jac=lambda t, y: np.array(jac(t, y)),
        )
        assert (len(steps), len(calls)) == (len(ref.t) - 1, ref.nfev)
        assert steps[0].t == ref.t[1] == 1e-6
        np.testing.assert_allclose([s.t for s in steps], ref.t[1:], rtol=1e-6)
        np.testing.assert_allclose(steps[-1].y, ref.y[:, -1], rtol=1e-12)

    @pytest.mark.parametrize(
        "matrix",
        [[[1.0, 2.0], [2.0, 4.0]], [[1j, 1.0], [-1.0, 1j]], [[np.nan, 0.0], [0.0, 1.0]]],
        ids=["real", "complex", "nan"],
    )
    def test_singular_matrix_is_a_stiffness_error(self, matrix):
        # Where LAPACK warns of a zero pivot and goes on with infinities, the
        # closed form stops the run with the step's time and state.
        with pytest.raises(StiffnessError, match="^Newton matrix of the implicit step") as exc:
            _radau.inverse(matrix, 0.0, (1.0, 0.0))
        assert exc.value.t == 0.0 and exc.value.state == (1.0, 0.0)
