"""Head-on approach dynamics of the mirror swimmer pair.

The half-gap h(t) obeys the axial force balance on either body,

    m h'' = -kappa_pass(h) h' - F(h),

where F is the net inward forcing: f_p (1 - kappa_prop(h, lam)) for an
active pusher pair, or a constant f_ext for a passive externally pushed
pair. Both coefficients come from drag, which holds the one drag and
propulsion law. The massless limit m = 0 reduces to the algebraic speed law
h' = -F / kappa_pass. kappa_prop < 1 holds in exact arithmetic, but at a
tiny tip offset it can round to one or above, so a massless run checks the
sign of the drive at every node, and the quadrature at 25 gaps first.

Massless scenarios need no time stepping: h' is a function of h alone, so
the elapsed time is the integral of dt/du = -h / h' over u = ln h, taken by
a 5-point Gauss-Lobatto rule on panels at most 0.05 wide in ln h, with
edges at the kinks of the drag model. Every node is known before the first
evaluation, so the panels go in blocks: one array drag call per block, one
product of the nodal rates with the rule's weight vector, and one running
sum of the panel times. One point is recorded per panel edge, a floor run
ends exactly on the floor, and the horizon point comes from one root solve
on the first panel to pass the horizon, after which no block is evaluated.

Two massless results need no run at all. collision_time_quadrature gives
the time to the floor as a direct integral. decay_rate_bound gives the rate
c* = sup F / (h kappa_pass) over [floor, h0], so that h(t) >= h0 exp(-c* t)
by Gronwall: the paper's no-slip result, since c* tends to the finite
lubrication limit 2 F / (3 pi) as the floor is lowered.

Inertial scenarios (m > 0) are stiff: the speed relaxes toward the force
balance on the fast scale m / kappa_pass, which near contact is orders of
magnitude below the approach time. They integrate with an L-stable implicit
Radau method, and the trajectory is densified from the dense interpolant so
the same recording guarantees hold as for the massless path. Each run reads
its coefficients from one drag.kappa_table, whose derivatives give Radau the
Jacobian in closed form; the recorded kappa values come from the same table
and sit within its stated bound of the series. When the table's bound
exceeds tail_tol the whole run reads the series with a finite-difference
Jacobian, as rhs and massless runs always do.
"""

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from . import drag
from .drag import SERIES_GAP_FLOOR, BoundaryCondition
from .errors import DomainError, InvalidRegimeError, StiffnessError
from .series import SeriesTruncation

__all__ = [
    "Mode",
    "TerminationKind",
    "SwimmerScenario",
    "TrajectoryPoint",
    "Trajectory",
    "default_h_floor",
    "rhs",
    "simulate",
    "QuadratureReport",
    "collision_time_quadrature",
    "decay_rate_bound",
]


class Mode(Enum):
    ACTIVE = "active"
    PASSIVE_FORCED = "passive_forced"


class TerminationKind(Enum):
    COLLISION = "collision"
    HORIZON_REACHED = "horizon_reached"
    SPEED_REVERSED = "speed_reversed"
    FLOOR_REACHED = "floor_reached"


@dataclass(frozen=True)
class SwimmerScenario:
    """One head-on encounter.

    h0 is the initial half-gap and s0 = -h'(0) >= 0 the initial approach
    speed (ignored when mass = 0, where the speed is algebraic). Active
    scenarios carry the thrust f_p and tip offset lam; passive ones a
    constant squeezing force f_ext > 0.
    """

    mode: Mode
    bc: BoundaryCondition
    h0: float
    s0: float = 0.0
    mass: float = 0.0
    f_p: float = 1.0
    lam: float = 1.0
    f_ext: float = 0.0

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            raise DomainError(f"mode must be a Mode member, got {self.mode!r}")
        if not np.isfinite(self.h0) or self.h0 <= 0.0:
            raise DomainError(f"initial half-gap must be positive, got {self.h0}")
        if not np.isfinite(self.s0) or self.s0 < 0.0:
            raise DomainError(f"initial approach speed must be >= 0, got {self.s0}")
        if not np.isfinite(self.mass) or self.mass < 0.0:
            raise DomainError(f"mass must be >= 0, got {self.mass}")
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise DomainError(f"tip offset must be positive, got {self.lam}")
        if self.mode is Mode.ACTIVE:
            if not np.isfinite(self.f_p) or self.f_p < 0.0:
                raise DomainError(f"thrust must be >= 0, got {self.f_p}")
        else:
            if not np.isfinite(self.f_ext) or self.f_ext <= 0.0:
                raise DomainError(
                    f"passive scenarios need a positive squeezing force, got {self.f_ext}"
                )


@dataclass(frozen=True)
class TrajectoryPoint:
    """State and coefficients at one recorded point.

    kappa_prop is reported as 0 for passive scenarios, where no propulsion
    factor enters the dynamics.
    """

    t: float
    h: float
    hdot: float
    kappa_pass: float
    kappa_prop: float


@dataclass(frozen=True)
class Trajectory:
    scenario: SwimmerScenario
    h_floor: float
    points: tuple
    termination: TerminationKind
    t_coll: float  # None unless termination is COLLISION

    @property
    def t_end(self):
        return self.points[-1].t

    @property
    def min_h(self):
        return min(p.h for p in self.points)

    def columns(self):
        """Column arrays keyed t, h, hdot, kappa_pass, kappa_prop."""
        names = ("t", "h", "hdot", "kappa_pass", "kappa_prop")
        return {k: np.array([getattr(p, k) for p in self.points]) for k in names}


def default_h_floor(bc):
    """Contact floor below which the gap counts as closed.

    Slip permits an actual finite-time contact, so the slip floor sits far
    below the no-slip stall scale. A no-slip run that reaches its floor ends
    in FLOOR_REACHED, not COLLISION: there the gap only decays exponentially.
    """
    return 1e-9 if bc.slips else 1e-7


_GAP_CLAMP = 1e-15  # no coefficient is read at a smaller gap


def _prop_lam(scenario):
    """drag's lam argument: the tip offset, or None for a passive pair."""
    return scenario.lam if scenario.mode is Mode.ACTIVE else None


def _force(scenario, kpr):
    """Net inward forcing F at propulsion factor(s) kpr: f_p (1 - kpr) or f_ext."""
    return scenario.f_p * (1.0 - kpr) if scenario.mode is Mode.ACTIVE else scenario.f_ext


def _force_and_coefficients(scenario, h, truncation):
    h_eval = max(float(h), _GAP_CLAMP)
    kp = drag.kappa_pass(h_eval, scenario.bc, truncation)
    lam = _prop_lam(scenario)
    kpr = 0.0 if lam is None else drag.kappa_prop(h_eval, lam, scenario.bc, truncation)
    return _force(scenario, kpr), kp, kpr


def _table_terms(scenario, table, h):
    """Force, kappa_pass and kappa_prop at h from a drag.kappa_table, with the
    h-derivatives of the force and of kappa_pass. The gap is clamped as in
    _force_and_coefficients, and the terms are flat below the clamp. A
    passive pair's table gives kappa_prop = 0 with zero slope."""
    h_eval = max(float(h), _GAP_CLAMP)
    kp, dkp, kpr, dkpr = table(h_eval)
    if h_eval != h:
        dkp = dkpr = 0.0
    dforce = -scenario.f_p * dkpr if scenario.mode is Mode.ACTIVE else 0.0
    return _force(scenario, kpr), kp, kpr, dforce, dkp


def _table_jacobian(scenario, table, y):
    """d(rhs)/dy of an inertial scenario in closed form, from a drag.kappa_table."""
    _, kp, _, dforce, dkp = _table_terms(scenario, table, y[0])
    m = scenario.mass
    return np.array([[0.0, 1.0], [-(dkp * y[1] + dforce) / m, -kp / m]])


def rhs(scenario, y, truncation=None):
    """Time derivative of the state.

    State is (h,) for massless scenarios and (h, hdot) otherwise.
    """
    force, kp, _ = _force_and_coefficients(scenario, y[0], truncation)
    if scenario.mass == 0.0:
        return np.array([-force / kp])
    return _inertial_rate(scenario, y, force, kp)


def _inertial_rate(scenario, y, force, kp):
    """The equation of motion m h'' = -kappa_pass h' - F as a first-order
    system in (h, h')."""
    return np.array([y[1], (-kp * y[1] - force) / scenario.mass])


_LN_GAP_CAP = 0.05  # widest panel in ln h, and the inertial point spacing below h = 0.1
_LN_GAP_ONSET = 0.1

# Five-point Gauss-Lobatto nodes on [0, 1]. Both panel ends are nodes, so
# neighbouring panels share them. The rule, exact to degree 7, integrates the
# polynomial through the nodal values, built on the monomials by this matrix.
_LOBATTO_NODES = 0.5 + np.array([-0.5, -np.sqrt(21.0) / 14.0, 0.0, np.sqrt(21.0) / 14.0, 0.5])
_LOBATTO_TO_MONOMIAL = np.linalg.inv(np.vander(_LOBATTO_NODES, increasing=True))
# Its integral over [0, 1] is the dot product of the nodal values with the
# rule's weights.
_LOBATTO_WEIGHTS = np.array([9.0, 49.0, 64.0, 49.0, 9.0]) / 180.0
_BLOCK_PANELS = 32  # panels a massless run evaluates and integrates at once


def simulate(
    scenario,
    t_max,
    h_floor=None,
    rtol=1e-8,
    atol=1e-12,
    truncation=None,
    max_steps=400000,
):
    """Integrate the encounter until contact, reversal, or the time horizon.

    Returns a Trajectory whose termination reports which happened; reaching
    the floor is a COLLISION under slip and FLOOR_REACHED under no slip.
    Identical inputs produce bitwise identical trajectories. max_steps, an
    int >= 1, bounds the number of panels in ln h for massless scenarios,
    and a floor run ends exactly on the floor. rtol and atol must be finite
    and positive; they apply to inertial scenarios only, where max_steps
    bounds the right-hand-side evaluation count at 25 per nominal step and
    the floor event satisfies |h - h_floor| < 1e-10.
    """
    truncation = truncation or SeriesTruncation()
    t_max = float(t_max)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise DomainError(f"time horizon must be positive, got {t_max}")
    floor = default_h_floor(scenario.bc) if h_floor is None else float(h_floor)
    if not np.isfinite(floor) or floor <= 0.0:
        raise DomainError(f"gap floor must be positive, got {floor}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not np.isfinite(tol) or tol <= 0.0:
            raise DomainError(f"{name} must be finite and positive, got {tol}")
    if not isinstance(max_steps, numbers.Integral) or max_steps < 1:
        raise DomainError(f"max_steps must be an integer >= 1, got {max_steps!r}")
    if scenario.h0 <= floor:
        raise InvalidRegimeError(
            f"initial half-gap {scenario.h0} is not above the floor {floor}"
        )
    if scenario.mass != 0.0:
        return _simulate_inertial(scenario, t_max, floor, rtol, atol, truncation, max_steps)
    return _simulate_massless(scenario, t_max, floor, truncation, max_steps)


def _trajectory(scenario, floor, points, termination):
    # Without slip the gap only decays exponentially: its floor is no contact.
    if termination is TerminationKind.COLLISION and not scenario.bc.slips:
        termination = TerminationKind.FLOOR_REACHED
    t_coll = points[-1].t if termination is TerminationKind.COLLISION else None
    return Trajectory(scenario, floor, tuple(points), termination, t_coll)


def _panel_edges(h0, floor, kinks):
    """Edges from h0 down to floor, one at each kink of the drag model in
    between (others, such as a zero beta, are skipped), and no panel wider
    than _LN_GAP_CAP in ln h."""
    stops = [h0, *sorted((k for k in kinks if floor < k < h0), reverse=True), floor]
    edges = [h0]
    for hi, lo in zip(stops, stops[1:]):
        width = np.log(hi / lo)
        n = int(np.ceil(width / _LN_GAP_CAP))
        edges.extend(hi * np.exp(-width * np.arange(1, n) / n))
        edges.append(lo)
    return edges


def _simulate_massless(scenario, t_max, floor, truncation, max_steps):
    """Massless branch of simulate: the elapsed time is the integral of
    dt/du = -h / h' over u = ln h, taken _BLOCK_PANELS panels at a time.

    All nodes of a block are evaluated by one drag call, each panel's time is
    the dot product of its five nodal rates with _LOBATTO_WEIGHTS, and one
    running sum carries t from edge to edge and from block to block. One
    point is recorded per panel edge, and the horizon point is where the
    integral of the first panel to pass t_max reaches it, so the run stops
    after the block that holds the horizon. The earliest panel decides: a
    panel past max_steps is never evaluated, and a lost drive ends the run
    unless an earlier panel reached the horizon.
    """
    lam = _prop_lam(scenario)

    def evaluate(hs):
        kp, kpr = drag.kappa_arrays(np.maximum(hs, _GAP_CLAMP), scenario.bc, truncation, lam=lam)
        return -_force(scenario, kpr) / kp, kp, kpr

    def record(*columns):
        return list(map(TrajectoryPoint, *(np.asarray(c).tolist() for c in columns)))

    h0 = float(scenario.h0)
    hdot, kp, kpr = evaluate(np.array([h0]))
    points = record([0.0], [h0], hdot, kp, kpr)
    if hdot[0] >= 0.0:
        return _trajectory(scenario, floor, points, TerminationKind.SPEED_REVERSED)
    edges = np.array(_panel_edges(h0, floor, (SERIES_GAP_FLOOR, scenario.bc.beta)))
    n_panels = min(len(edges) - 1, max_steps)
    t, rate = 0.0, -h0 / hdot[0]
    for start in range(0, n_panels, _BLOCK_PANELS):
        h_a = edges[start : min(start + _BLOCK_PANELS, n_panels)]
        h_b = edges[start + 1 : start + 1 + len(h_a)]
        width = np.log(h_a / h_b)
        inner = h_a[:, None] * np.exp(-_LOBATTO_NODES[1:-1] * width[:, None])
        hs = np.column_stack([inner, h_b])
        hdot, kp, kpr = evaluate(hs)
        # kappa_prop < 1 only in exact arithmetic: at lam = 1e-9, beta = 0.1,
        # 1 - kappa_prop(1e-3) rounds to -4.1e-14, and a run from h0 = 0.5
        # loses its drive at h = 0.408.
        lost = np.flatnonzero(hdot >= 0.0)
        n_ok = lost[0] // hs.shape[1] if lost.size else len(hs)
        node_rates = -hs[:n_ok] / hdot[:n_ok]
        rates = np.column_stack([np.append(rate, node_rates[:, -1])[:-1], node_rates])
        t_edges = np.cumsum(np.append(t, width[:n_ok] * (rates @ _LOBATTO_WEIGHTS)))[1:]
        past = np.flatnonzero(t_edges > t_max)
        k = past[0] if past.size else n_ok
        points += record(t_edges[:k], h_b[:k], hdot[:k, -1], kp[:k, -1], kpr[:k, -1])
        if past.size:
            t_a = t_edges[k - 1] if k else t
            antiderivative = P.polyint(_LOBATTO_TO_MONOMIAL @ rates[k])
            excess = lambda s: t_a + width[k] * P.polyval(s, antiderivative) - t_max
            # The interpolant's end may round to t_max where the panel sum passed it.
            s = brentq(excess, 0.0, 1.0, xtol=1e-15) if excess(1.0) > 0.0 else 1.0
            h = h_a[k] * np.exp(-s * width[k])
            points += record([t_max], [h], *evaluate(np.array([h])))
            return _trajectory(scenario, floor, points, TerminationKind.HORIZON_REACHED)
        if lost.size:
            h = float(hs.flat[lost[0]])
            raise InvalidRegimeError(f"approach speed is not positive at h = {h}")
        t, rate = float(t_edges[-1]), node_rates[-1, -1]
    if n_panels < len(edges) - 1:
        msg = f"panel budget {max_steps} exhausted at t = {t}"
        raise StiffnessError(msg, t=t, state=edges[n_panels : n_panels + 1])
    return _trajectory(scenario, floor, points, TerminationKind.COLLISION)


def _simulate_inertial(scenario, t_max, floor, rtol, atol, truncation, max_steps):
    """Stiff branch of simulate for m > 0, on an implicit Radau method.

    The speed equation has the fast eigenvalue -kappa_pass / m, which an
    explicit method must resolve for the whole run even though the solution
    hugs the quasi-steady balance; the L-stable method steps on the slow
    manifold instead. The floor and reversal are terminal events, and recorded
    points are densified from the interpolant so consecutive points satisfy
    the same log-gap spacing bound as the massless path.

    The right-hand side, the recorded kappa values and the Jacobian all read
    the run's drag.kappa_table, or the series when it returns None.
    """
    table = drag.kappa_table(scenario.bc, truncation, lam=_prop_lam(scenario))
    if table is None:
        coefficients = lambda h: _force_and_coefficients(scenario, h, truncation)
        jac = None
    else:
        coefficients = lambda h: _table_terms(scenario, table, h)[:3]
        jac = lambda t, y: _table_jacobian(scenario, table, y)

    eval_budget = 25 * max_steps
    evals = 0

    def fun(t, y):
        nonlocal evals
        evals += 1
        if evals > eval_budget:
            raise StiffnessError(
                f"evaluation budget {eval_budget} exhausted at t = {t}",
                t=float(t),
                state=np.asarray(y, dtype=float),
            )
        force, kp, _ = coefficients(y[0])
        return _inertial_rate(scenario, y, force, kp)

    def contact(t, y):
        return y[0] - floor

    contact.terminal = True
    contact.direction = -1.0

    def reversal(t, y):
        # Outward motion clearly above the noise floor of the tolerance.
        return y[1] - atol

    reversal.terminal = True
    reversal.direction = 1.0

    sol = solve_ivp(
        fun,
        (0.0, t_max),
        [scenario.h0, -scenario.s0],
        method="Radau",
        rtol=rtol,
        atol=atol,
        jac=jac,
        dense_output=True,
        events=(contact, reversal),
    )
    if sol.status == -1:
        raise StiffnessError(
            f"implicit integration failed: {sol.message}",
            t=float(sol.t[-1]),
            state=sol.y[:, -1],
        )

    if sol.status == 1 and len(sol.t_events[0]):
        termination = TerminationKind.COLLISION
    elif sol.status == 1:
        termination = TerminationKind.SPEED_REVERSED
    else:
        termination = TerminationKind.HORIZON_REACHED

    def point_at(t, h, hd):
        _, kp, kpr = coefficients(h)
        return TrajectoryPoint(float(t), float(h), float(hd), kp, kpr)

    points = [point_at(sol.t[0], sol.y[0, 0], sol.y[1, 0])]
    for i in range(1, len(sol.t)):
        t0, t1 = sol.t[i - 1], sol.t[i]
        h0v, h1v = sol.y[0, i - 1], sol.y[0, i]
        if min(h0v, h1v) < _LN_GAP_ONSET and h0v > 0.0 and h1v > 0.0:
            n_sub = int(np.ceil(abs(np.log(h0v / h1v)) / _LN_GAP_CAP))
        else:
            n_sub = 1
        for j in range(1, n_sub):
            tj = t0 + (t1 - t0) * j / n_sub
            hj, hdj = sol.sol(tj)
            points.append(point_at(tj, hj, hdj))
        points.append(point_at(t1, sol.y[0, i], sol.y[1, i]))
    return _trajectory(scenario, floor, points, termination)


@dataclass(frozen=True)
class QuadratureReport:
    """Collision-time integral and its near-floor behavior."""

    time_to_floor: float
    abserr: float
    tail_exponent: float
    diverged: bool
    h_floor: float


def _massless_floor(scenario, h_floor, what):
    """The floor of an a priori massless result, checked to lie in (0, h0)."""
    if scenario.mass != 0.0:
        raise InvalidRegimeError(f"{what} needs mass = 0")
    floor = default_h_floor(scenario.bc) if h_floor is None else float(h_floor)
    if not np.isfinite(floor) or floor <= 0.0 or floor >= scenario.h0:
        raise DomainError(f"gap floor must lie in (0, h0), got {floor}")
    return floor


def collision_time_quadrature(scenario, h_floor=None, truncation=None):
    """Time to close the gap from h0 to the floor by direct quadrature.

    Valid for massless scenarios only, where the approach speed is the
    algebraic U(h) = F(h) / kappa_pass(h) and

        T = integral over h in [floor, h0] of dh / U(h).

    The integrand is evaluated on the log-gap substitution, which removes
    most of the near-floor mass. diverged reports whether the local
    power-law exponent of 1 / U at the floor is -0.9 or steeper, the
    signature of a floor-to-contact time that grows without bound as the
    floor is lowered (the no-slip stall); kappa values come from the same
    model as the dynamics, so the report matches what simulate would do.
    """
    floor = _massless_floor(scenario, h_floor, "quadrature form of the collision time")
    truncation = truncation or SeriesTruncation()

    def speed(h):
        force, kp, _ = _force_and_coefficients(scenario, h, truncation)
        return force / kp

    for h in np.geomspace(floor, scenario.h0, 25):
        if speed(h) <= 0.0:
            raise InvalidRegimeError(
                f"approach speed is not positive at h = {h}; no collision course"
            )

    value, abserr = quad(
        lambda u: np.exp(u) / speed(np.exp(u)),
        np.log(floor),
        np.log(scenario.h0),
        limit=400,
        epsabs=0.0,
        epsrel=1e-10,
    )
    inv_u = lambda h: 1.0 / speed(h)
    p = float(
        (np.log(inv_u(floor)) - np.log(inv_u(10.0 * floor)))
        / (np.log(floor) - np.log(10.0 * floor))
    )
    return QuadratureReport(
        time_to_floor=float(value),
        abserr=float(abserr),
        tail_exponent=p,
        diverged=p <= -0.9,
        h_floor=floor,
    )


def decay_rate_bound(scenario, h_floor=None, truncation=None):
    """A priori decay rate c* of a massless run: h(t) >= h0 exp(-c* t).

    The massless speed law gives h' = -F(h) / kappa_pass(h) >= -c* h with

        c* = max(0, sup over [floor, h0] of F(h) / (h kappa_pass(h))),

    so by Gronwall h(t) >= h0 exp(-c* t) for every t at which the gap has
    not passed the floor, with no run needed. Under no slip h kappa_pass
    tends to 3 pi / 2 at contact and c* to 2 F(floor) / (3 pi): the rate
    stays finite as the floor is lowered, so the gap never closes. Under
    slip c* grows as the floor is lowered and bounds runs to that floor only.

    The sup is taken at the panel edges a massless run to the same floor
    evaluates, so after that run every coefficient is a cache hit.
    """
    floor = _massless_floor(scenario, h_floor, "the a priori decay rate")
    hs = np.array(_panel_edges(scenario.h0, floor, (SERIES_GAP_FLOOR, scenario.bc.beta)))
    kp, kpr = drag.kappa_arrays(hs, scenario.bc, truncation, lam=_prop_lam(scenario))
    return max(0.0, float(np.max(_force(scenario, kpr) / (hs * kp))))
