"""Head-on approach dynamics of the mirror swimmer pair.

The half-gap h(t) obeys the axial force balance on either body,

    m h'' = -kappa_pass(h) h' - F(h),

where F is the net inward forcing: f_p (1 - kappa_prop(h, lam)) for an
active pusher pair, or a constant f_ext for a passive externally pushed
pair. Both coefficients come from drag, which holds the one drag and
propulsion law. The massless limit m = 0 reduces to the algebraic speed law
h' = -F / kappa_pass. kappa_prop < 1 holds in exact arithmetic, but at a
tiny tip offset it can round to one or above, so a massless run and the
quadrature check the sign of the drive at every gap they evaluate.

Massless scenarios need no time stepping: h' is a function of h alone, so
the elapsed time is the integral of dt/du = -h / h' over u = ln h, and the
drag is read at the panel edges only. The edges are equispaced in ln h
between the kinks of the drag model, at most 0.05 apart and at least 7
panels to a segment, and each panel integrates the degree-7 polynomial
through 8 edges of its own segment with exact rational weights. Every edge
is known before the first evaluation, so the edges go in blocks: one array
drag call per block, one weighted sum per panel whose 8 edges are in, and
one running sum of the panel times. The first block after h0 holds 32
edges, and each later one reaches as far as the time left could take at
the last edge's rate, since dt/du = h kappa_pass / F falls as the gap
closes: a run that ends well before its horizon makes three drag calls.
One point is recorded per edge, into columns from which Trajectory builds
its TrajectoryPoints only when they are asked for. A floor run ends exactly
on the floor, and the horizon point comes from a bisection on the first
panel to pass the horizon, after which no block is evaluated.

Two massless results need no run at all. collision_time_quadrature gives
the time to the floor as a direct integral. decay_rate_bound gives the rate
c* = sup F / (h kappa_pass) over [floor, h0], so that h(t) >= h0 exp(-c* t)
by Gronwall, and reaching the floor takes at least ln(h0 / floor) / c*: the
paper's no-slip result, since c* tends to the finite lubrication limit
2 F / (3 pi) as the floor is lowered. A massless run, the quadrature and the
bound read the drag at the gaps they integrate, all at or above the floor,
for any floor > 0. simulate and both results take the floor by one rule:
h_floor, or default_h_floor when None, must be a finite positive number,
else a DomainError names it, and a floor at or above h0 is an
InvalidRegimeError.

Inertial scenarios (m > 0) are stiff: the speed relaxes toward the force
balance on the fast scale m / kappa_pass, which near contact is orders of
magnitude below the approach time. They integrate with the L-stable
implicit Radau IIA method of order 5, in the private _radau module: a port
of scipy's Radau to the state (h, h') as a pair of Python floats, whose
Newton systems are 2 x 2 and solved with their explicit inverses. The
trajectory is densified from each step's collocation polynomial so the same
recording guarantees hold as for the massless path. Each run reads its
coefficients from one drag.kappa_table, and the recorded kappa values come
from it too. Where a table's interpolant serves, its derivatives give the
Jacobian in closed form; its stated bound rests on the error measured at 95
check points, and the error between them can exceed it. Where a table
cannot certify tail_tol (or has no range, as kappa_pass at beta >= 100) it
gives the series bit for bit, and the Jacobian's slopes come from a
difference of the series. rhs and the inertial path read the coefficients
at max(h, 1e-15), since a step can reach h <= 0. rtol must be at least 100
eps, the smallest relative tolerance Radau's error control is meant for.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _radau, drag
from .drag import SERIES_GAP_FLOOR, BoundaryCondition
from .errors import DomainError, InvalidRegimeError, StiffnessError
from .geometry import _real

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
    constant squeezing force f_ext > 0. Each numeric field must be a finite
    real number >= 0 (h0, lam, and a passive pair's f_ext > 0), or a
    DomainError names it; it is stored as a float.
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
        if not isinstance(self.bc, BoundaryCondition):
            raise DomainError(f"bc must be a BoundaryCondition, got {self.bc!r}")
        positive = ("h0", "lam", "f_ext") if self.mode is Mode.PASSIVE_FORCED else ("h0", "lam")
        for name in ("h0", "s0", "mass", "f_p", "lam", "f_ext"):
            value = _real(name, getattr(self, name), 0, strict=name in positive)
            object.__setattr__(self, name, value)


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
    """A run's recorded points, stored by column: data holds one tuple of
    floats per TrajectoryPoint field, in the field order. t_end, min_h and
    columns() read the columns, and points, the same record as a tuple of
    TrajectoryPoints, is built on first access."""

    scenario: SwimmerScenario
    h_floor: float
    data: tuple
    termination: TerminationKind
    t_coll: float  # None unless termination is COLLISION

    @functools.cached_property
    def points(self):
        return tuple(map(TrajectoryPoint, *self.data))

    @property
    def t_end(self):
        return self.data[0][-1]

    @property
    def min_h(self):
        return min(self.data[1])

    def columns(self):
        """Column arrays keyed by the TrajectoryPoint fields, in their order."""
        names = [f.name for f in dataclasses.fields(TrajectoryPoint)]
        return {k: np.array(column) for k, column in zip(names, self.data)}


def default_h_floor(bc):
    """Contact floor below which the gap counts as closed.

    Slip permits an actual finite-time contact, so the slip floor sits far
    below the no-slip stall scale. A no-slip run that reaches its floor ends
    in FLOOR_REACHED, not COLLISION: there the gap only decays exponentially.
    """
    return 1e-9 if bc.slips else 1e-7


_GAP_CLAMP = 1e-15  # the smallest gap rhs and inertial runs read, see above


def _prop_lam(scenario):
    """drag's lam argument: the tip offset, or None for a passive pair."""
    return scenario.lam if scenario.mode is Mode.ACTIVE else None


def _force(scenario, kpr):
    """Net inward forcing F at propulsion factor(s) kpr: f_p (1 - kpr) or f_ext."""
    return scenario.f_p * (1.0 - kpr) if scenario.mode is Mode.ACTIVE else scenario.f_ext


def _force_and_coefficients(scenario, hs, truncation):
    """F, kappa_pass and kappa_prop at every gap of the array hs, each an
    array in its shape, from one drag.kappa_arrays call: the one place this
    module reads the series."""
    kp, kpr = drag.kappa_arrays(hs, scenario.bc, truncation, lam=_prop_lam(scenario))
    return np.broadcast_to(_force(scenario, kpr), kp.shape), kp, kpr


def _table_terms(scenario, table, h, slope=False):
    """Force, kappa_pass and kappa_prop at h from a drag.kappa_table, and
    with slope also the h-derivatives of the force and of kappa_pass, which
    only the Jacobian asks for. The gap is clamped at _GAP_CLAMP, and the
    terms are flat below the clamp. A passive pair's table gives kappa_prop
    = 0 with zero slope."""
    h_eval = max(float(h), _GAP_CLAMP)
    if not slope:
        kp, kpr = table(h_eval)
        return _force(scenario, kpr), kp, kpr
    kp, dkp, kpr, dkpr = table(h_eval, slope=True)
    if h_eval != h:
        dkp = dkpr = 0.0
    dforce = -scenario.f_p * dkpr if scenario.mode is Mode.ACTIVE else 0.0
    return _force(scenario, kpr), kp, kpr, dforce, dkp


def _jacobian(scenario, terms, y):
    """d(rhs)/dy of an inertial scenario from the run's terms function,
    _table_terms, with its slopes."""
    _, kp, _, dforce, dkp = terms(y[0], slope=True)
    m = scenario.mass
    return (0.0, 1.0), (-(dkp * y[1] + dforce) / m, -kp / m)


def rhs(scenario, y, truncation=None):
    """Time derivative of the state.

    State is (h,) for massless scenarios and (h, hdot) otherwise.
    """
    force, kp, _ = _force_and_coefficients(scenario, [max(y[0], _GAP_CLAMP)], truncation)
    if scenario.mass == 0.0:
        return -force / kp
    return np.array(_inertial_rate(scenario, y, force.item(), kp.item()))


def _inertial_rate(scenario, y, force, kp):
    """The equation of motion m h'' = -kappa_pass h' - F as a first-order
    system in (h, h'), a pair of floats."""
    return y[1], (-kp * y[1] - force) / scenario.mass


_LN_GAP_CAP = 0.05  # widest panel in ln h, and the inertial point spacing below h = 0.1
_LN_GAP_ONSET = 0.1

# A massless panel integrates the degree-7 polynomial through 8 consecutive
# edges of its own segment, which are equispaced in ln h, so a segment needs
# at least _STENCIL_PANELS panels.
_STENCIL_PANELS = 7


def _stencil_tables():
    """The Lagrange basis on the edges 0, ..., 7 in units of the edge spacing,
    built in exact integer arithmetic and rounded once.

    Returns (to_monomial, weights): to_monomial[k, j] is the x^k coefficient
    of basis polynomial j, for the horizon point inside a panel, and
    weights[r, j] is its integral over [r, r + 1]. Row 3 of weights serves
    every panel with three edges on either side. Each entry is one division
    of two integers, which Python rounds correctly.
    """
    nodes = range(_STENCIL_PANELS + 1)
    lcm = math.lcm(*(k + 1 for k in nodes))  # clears the 1 / (k + 1) of x^k's integral
    to_monomial = np.empty((len(nodes), len(nodes)))
    weights = np.empty((_STENCIL_PANELS, len(nodes)))
    for j in nodes:
        coef, scale = [1], 1  # basis j is sum_k coef[k] x^k / scale
        for i in nodes:
            if i != j:  # times (x - i) / (j - i)
                coef = [a - i * b for a, b in zip([0] + coef, coef + [0])]
                scale *= j - i
        to_monomial[:, j] = [c / scale for c in coef]
        for r in range(_STENCIL_PANELS):
            num = sum(
                c * ((r + 1) ** (k + 1) - r ** (k + 1)) * (lcm // (k + 1))
                for k, c in enumerate(coef)
            )
            weights[r, j] = num / (lcm * scale)
    return to_monomial, weights


_STENCIL_TO_MONOMIAL, _STENCIL_WEIGHTS = _stencil_tables()
_BLOCK_EDGES = 32  # edges a massless run evaluates with one drag call


# Right-hand-side calls an inertial run may make before it fails with a
# StiffnessError instead of stepping on without end.
_RHS_BUDGET = 10_000_000
# The smallest rtol of an inertial run, 100 eps = 2.2e-14, where scipy's Radau
# also draws the line: a tighter one asks for local errors that rounding in
# the step itself already exceeds.
_RTOL_MIN = 100 * _radau.EPS


def simulate(scenario, t_max, h_floor=None, rtol=1e-8, atol=1e-12, truncation=None):
    """Integrate the encounter until contact, reversal, or the time horizon.

    Returns a Trajectory whose termination reports which happened; reaching
    the floor is a COLLISION under slip and FLOOR_REACHED under no slip.
    Identical inputs produce bitwise identical trajectories. A massless floor
    run ends exactly on the floor, and a massless run's panel count is fixed
    by h0, the floor and beta: below 29 200 for any float inputs. rtol and
    atol apply to inertial scenarios only. There the right-hand side may be
    called _RHS_BUDGET times, and the floor event satisfies
    |h - h_floor| < 1e-10.

    t_max, h_floor, rtol and atol must be finite positive numbers and rtol
    at least 100 eps = 2.2e-14, or a DomainError names the setting; a floor
    at or above h0 is an InvalidRegimeError.
    """
    t_max = _positive("t_max", t_max)
    floor = _floor(scenario, h_floor)
    rtol, atol = _rtol(rtol), _positive("atol", atol)
    if scenario.mass != 0.0:
        return _simulate_inertial(scenario, t_max, floor, rtol, atol, truncation)
    return _simulate_massless(scenario, t_max, floor, truncation)


def _positive(name, value):
    """value as a float, checked to be a finite real number > 0."""
    return _real(name, value, 0, strict=True)


def _rtol(value):
    """rtol as _positive checks it, and at least _RTOL_MIN."""
    rtol = _positive("rtol", value)
    if rtol < _RTOL_MIN:
        raise DomainError(f"rtol must be at least 100 eps = {_RTOL_MIN!r}, got {value!r}")
    return rtol


def _floor(scenario, h_floor):
    """The gap floor of a run or an a priori result: h_floor, or the model's
    default when None, checked to lie below h0. Every entry point that takes
    a scenario reaches this first, so a scenario that is not a
    SwimmerScenario is a DomainError naming it."""
    if not isinstance(scenario, SwimmerScenario):
        raise DomainError(f"scenario must be a SwimmerScenario, got {scenario!r}")
    floor = default_h_floor(scenario.bc) if h_floor is None else _positive("h_floor", h_floor)
    if scenario.h0 <= floor:
        raise InvalidRegimeError(
            f"initial half-gap {scenario.h0} is not above the floor {floor}"
        )
    return floor


def _trajectory(scenario, floor, columns, termination):
    """The Trajectory of a run from its columns, one sequence of floats per
    TrajectoryPoint field."""
    # Without slip the gap only decays exponentially: its floor is no contact.
    if termination is TerminationKind.COLLISION and not scenario.bc.slips:
        termination = TerminationKind.FLOOR_REACHED
    data = tuple(map(tuple, columns))
    t_coll = data[0][-1] if termination is TerminationKind.COLLISION else None
    return Trajectory(scenario, floor, data, termination, t_coll)


def _segment_stops(scenario, floor):
    """h0, the kinks of the drag model strictly between floor and h0
    (SERIES_GAP_FLOOR, and beta under slip), and floor, in descending order."""
    kinks = (SERIES_GAP_FLOOR, scenario.bc.beta)
    h0 = scenario.h0
    return [h0, *sorted((k for k in kinks if floor < k < h0), reverse=True), floor]


def _panel_edges(stops):
    """Edges through the descending stops of _segment_stops, equispaced in
    ln h between consecutive stops with no panel wider than _LN_GAP_CAP and
    at least _STENCIL_PANELS panels a segment. Also returns, for each panel,
    the first of the 8 edges of its stencil: centred on the panel, and moved
    inward near the segment's ends so that no stencil crosses a kink."""
    edges, stencils, first = [stops[:1]], [], 0  # first: the edge index of hi
    for hi, lo in zip(stops, stops[1:]):
        width = np.log(hi / lo)
        n = max(int(np.ceil(width / _LN_GAP_CAP)), _STENCIL_PANELS)
        offsets = np.clip(np.arange(n) - _STENCIL_PANELS // 2, 0, n - _STENCIL_PANELS)
        stencils.append(first + offsets)
        edges += [hi * np.exp(-width * np.arange(1, n) / n), [lo]]
        first += n
    return np.concatenate(edges), np.concatenate(stencils)


def _simulate_massless(scenario, t_max, floor, truncation):
    """Massless branch of simulate: the elapsed time is the integral of
    dt/du = -h / h' over u = ln h, with the drag read at the panel edges only.

    The edges go in blocks through one drag call each, and the drive is
    checked at each edge. The first block after h0 holds _BLOCK_EDGES edges.
    Each later one holds at least as many, and as many as the time left to
    t_max takes at the last edge's rate over the widest panel, plus one
    stencil. dt/du = h kappa_pass / F falls as the gap closes under both
    drag laws, so no panel past the last edge takes longer than that, and
    the horizon lies about that far on or further. The block size only
    decides how many edges one drag call reads, never which panel ends the
    run. A panel is integrated once the 8 edges of its stencil are
    evaluated: its time is the dot product of their rates with its row of
    _STENCIL_WEIGHTS, and one running sum carries t from edge to edge and
    from block to block. One point is recorded per edge, in columns, and the
    horizon point is where the stencil polynomial of the first panel to pass
    t_max reaches it, so the run stops after the block that completes that
    panel's stencil. The earliest panel decides: a lost drive ends the run
    unless a panel whose stencil lies before it reached the horizon.
    """
    def evaluate(hs):
        force, kp, kpr = _force_and_coefficients(scenario, hs, truncation)
        return -force / kp, kp, kpr

    columns = [[] for _ in dataclasses.fields(TrajectoryPoint)]

    def record(*values):
        for column, value in zip(columns, values):
            column += np.asarray(value).tolist()

    edges, stencils = _panel_edges(_segment_stops(scenario, floor))
    hdot, kp, kpr, rate = (np.empty_like(edges) for _ in range(4))
    hdot[:1], kp[:1], kpr[:1] = evaluate(edges[:1])
    record([0.0], edges[:1], hdot[:1], kp[:1], kpr[:1])
    if hdot[0] >= 0.0:
        return _trajectory(scenario, floor, columns, TerminationKind.SPEED_REVERSED)
    rate[0] = -edges[0] / hdot[0]
    n_panels = len(stencils)
    rows = np.arange(n_panels) - stencils
    needed = stencils + _STENCIL_PANELS  # the last edge each panel reads
    width = np.log(edges[:-1] / edges[1:])
    t, done, valid, size = 0.0, 0, 1, _BLOCK_EDGES
    while done < n_panels:
        block = slice(valid, int(min(valid + size, needed[-1] + 1)))
        hdot[block], kp[block], kpr[block] = evaluate(edges[block])
        # kappa_prop < 1 only in exact arithmetic: at lam = 1e-9, beta = 0.1,
        # 1 - kappa_prop(1e-3) rounds to -4.1e-14, and a run from h0 = 0.5
        # loses its drive at h = 0.067.
        lost = block.start + np.flatnonzero(hdot[block] >= 0.0)
        valid = lost[0] if lost.size else block.stop
        rate[block.start : valid] = -edges[block.start : valid] / hdot[block.start : valid]
        ready = int(np.searchsorted(needed, valid))  # panels whose edges are all valid
        taps = rate[stencils[done:ready, None] + np.arange(_STENCIL_PANELS + 1)]
        panel_t = width[done:ready] * np.sum(_STENCIL_WEIGHTS[rows[done:ready]] * taps, axis=1)
        t_edges = np.cumsum(np.append(t, panel_t))
        past = np.flatnonzero(t_edges[1:] > t_max)
        k = past[0] if past.size else ready - done
        got = slice(done + 1, done + 1 + k)
        record(t_edges[1 : k + 1], edges[got], hdot[got], kp[got], kpr[got])
        if past.size:
            from numpy.polynomial import polynomial as P  # only horizon runs load it

            j, t_a = done + k, t_edges[k]
            antiderivative = P.polyint(_STENCIL_TO_MONOMIAL @ rate[stencils[j] : needed[j] + 1])
            start = P.polyval(rows[j], antiderivative)
            excess = lambda s: (
                t_a + width[j] * (P.polyval(rows[j] + s, antiderivative) - start) - t_max
            )
            # The interpolant's end may round to t_max where the panel sum passed it.
            s = _bisect(excess) if excess(1.0) > 0.0 else 1.0
            h = edges[j] * np.exp(-s * width[j])
            record([t_max], [h], *evaluate(np.array([h])))
            return _trajectory(scenario, floor, columns, TerminationKind.HORIZON_REACHED)
        if lost.size:
            raise InvalidRegimeError(f"approach speed is not positive at h = {edges[lost[0]]}")
        t, done = float(t_edges[-1]), ready
        # The panels the time left needs if each took the last edge's rate
        # over the widest panel: no panel past that edge takes longer.
        ahead = (t_max - t) / (rate[valid - 1] * _LN_GAP_CAP)
        size = max(_BLOCK_EDGES, ahead + _STENCIL_PANELS)
    return _trajectory(scenario, floor, columns, TerminationKind.COLLISION)


def _bisect(f):
    """The root in [0, 1] of f, with f(0) <= 0 < f(1), to a bracket 1e-15 wide."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0.0 else (mid, hi)
    return 0.5 * (lo + hi)


def _simulate_inertial(scenario, t_max, floor, rtol, atol, truncation):
    """Stiff branch of simulate for m > 0, on the implicit Radau IIA method.

    The speed equation has the fast eigenvalue -kappa_pass / m, which an
    explicit method must resolve for the whole run even though the solution
    hugs the quasi-steady balance; the L-stable method steps on the slow
    manifold instead. The floor and reversal are terminal events, checked at
    each accepted step with solve_ivp's sign rule and located on the step's
    collocation polynomial, from which the recorded points are also
    densified, so consecutive points satisfy the same log-gap spacing bound
    as the massless path.

    The right-hand side, the recorded kappa values and the Jacobian all read
    the run's drag.kappa_table; only the Jacobian asks it for slopes.
    """
    table = drag.kappa_table(scenario.bc, truncation, lam=_prop_lam(scenario))
    terms = functools.partial(_table_terms, scenario, table)

    evals = 0

    def fun(t, y):
        nonlocal evals
        evals += 1
        if evals > _RHS_BUDGET:
            raise StiffnessError(
                f"evaluation budget {_RHS_BUDGET} exhausted at t = {t}", t=t, state=y
            )
        force, kp, _ = terms(y[0])
        return _inertial_rate(scenario, y, force, kp)

    def point_at(t, y):
        _, kp, kpr = terms(y[0])
        return t, y[0], y[1], kp, kpr

    # solve_ivp's two terminal events, each signed to fire on a step that
    # takes it from <= 0 to >= 0: the gap falls through the floor, or the
    # speed turns outward clearly above the noise floor of the tolerance.
    events = (
        (TerminationKind.COLLISION, lambda y: floor - y[0]),
        (TerminationKind.SPEED_REVERSED, lambda y: y[1] - atol),
    )
    y = (float(scenario.h0), -float(scenario.s0))
    points = [point_at(0.0, y)]
    termination = TerminationKind.HORIZON_REACHED
    jac = lambda t, y: _jacobian(scenario, terms, y)
    for step in _radau.steps(fun, jac, 0.0, y, t_max, rtol, atol):
        t0, t1, y1 = step.t_old, step.t, step.y
        roots = []
        for kind, event in events:
            if event(step.y_old) <= 0.0 <= event(y1):
                s = _bisect(lambda s: event(step(t0 + s * (t1 - t0))))
                roots.append((t0 + s * (t1 - t0), kind))
        if roots:
            t1, termination = min(roots, key=lambda root: root[0])
            y1 = step(t1)
        h0v, h1v = step.y_old[0], y1[0]
        n_sub = 1
        if min(h0v, h1v) < _LN_GAP_ONSET and h0v > 0.0 and h1v > 0.0:
            n_sub = math.ceil(abs(math.log(h0v / h1v)) / _LN_GAP_CAP)
        for j in range(1, n_sub):
            tj = t0 + (t1 - t0) * j / n_sub
            points.append(point_at(tj, step(tj)))
        points.append(point_at(t1, y1))
        if roots:
            break
    return _trajectory(scenario, floor, zip(*points), termination)


@dataclass(frozen=True)
class QuadratureReport:
    """Collision-time integral from h0 down to h_floor by the 8-node rule.
    abserr sums over the panels the size of its difference from the 6-node
    rule: an error estimate, not a bound, that also shows drive noise."""

    time_to_floor: float
    abserr: float
    h_floor: float


def _massless_floor(scenario, h_floor, what):
    """The floor of an a priori massless result, as _floor checks it."""
    floor = _floor(scenario, h_floor)
    if scenario.mass != 0.0:
        raise InvalidRegimeError(f"{what} needs mass = 0")
    return floor


def collision_time_quadrature(scenario, h_floor=None, truncation=None):
    """Time to close the gap from h0 to the floor by direct quadrature.

    Valid for massless scenarios only, where the approach speed is the
    algebraic U(h) = F(h) / kappa_pass(h) and

        T = integral over h in [floor, h0] of dh / U(h).

    The integrand is taken in u = ln h, which removes most of the near-floor
    mass. Each segment between the kinks of the drag model, where a massless
    run's segments also end, is cut into equal panels at most 1 wide in u,
    each integrated by the 8-node Gauss-Legendre rule and, for abserr, by
    the 6-node rule. All nodes go through one drag call. They lie inside the
    panels, off a massless run's edges, so the two share only the drag model
    and the kinks. A node where the speed is not positive is an
    InvalidRegimeError naming the largest such gap. The time to one floor
    cannot tell a stall from a slow collision; decay_rate_bound can, since
    T >= ln(h0 / floor) / c* and c* stays finite as the floor is lowered
    only when the gap never closes.
    """
    from numpy.polynomial.legendre import leggauss  # kept out of the package's import

    floor = _massless_floor(scenario, h_floor, "quadrature form of the collision time")
    stops = np.log(_segment_stops(scenario, floor))
    edges = np.concatenate(
        [np.linspace(hi, lo, math.ceil(hi - lo) + 1)[:-1] for hi, lo in zip(stops, stops[1:])]
        + [stops[-1:]]
    )
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[:-1] - edges[1:]) / 2
    (x8, w8), (x6, w6) = leggauss(8), leggauss(6)
    hs = np.exp(mid[:, None] + half[:, None] * np.concatenate([x8, x6]))
    force, kp, _ = _force_and_coefficients(scenario, hs, truncation)
    speed = force / kp
    stalled = hs[speed <= 0.0]
    if stalled.size:
        raise InvalidRegimeError(
            f"approach speed is not positive at h = {stalled.max()}; no collision course"
        )
    dt = half[:, None] * hs / speed
    fine, coarse = dt[:, :8] @ w8, dt[:, 8:] @ w6  # each panel by both rules
    return QuadratureReport(float(fine.sum()), float(np.abs(fine - coarse).sum()), floor)


def decay_rate_bound(scenario, h_floor=None, truncation=None):
    """A priori decay rate c* of a massless run: h(t) >= h0 exp(-c* t).

    The massless speed law gives h' = -F(h) / kappa_pass(h) >= -c* h with

        c* = max(0, sup over [floor, h0] of F(h) / (h kappa_pass(h))),

    so by Gronwall h(t) >= h0 exp(-c* t) for every t at which the gap has
    not passed the floor, with no run needed, and the time to the floor is
    at least ln(h0 / floor) / c*. Under no slip h kappa_pass tends to
    3 pi / 2 at contact and c* to 2 F(floor) / (3 pi): the rate stays finite
    as the floor is lowered, so the gap never closes. Under slip c* grows as
    the floor is lowered and bounds runs to that floor only.

    The sup is taken at the panel edges a massless run to the same floor
    evaluates, so after that run every coefficient is a cache hit.
    """
    floor = _massless_floor(scenario, h_floor, "the a priori decay rate")
    hs, _ = _panel_edges(_segment_stops(scenario, floor))
    force, kp, _ = _force_and_coefficients(scenario, hs, truncation)
    return max(0.0, float(np.max(force / (hs * kp))))
