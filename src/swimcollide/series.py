"""Stream-function series for two no-slip unit spheres in mirror translation.

The axisymmetric Stokes flow around the mirror pair is expanded in bipolar
coordinates as

    psi(zeta, eta) = (cosh zeta - cos eta)^(-3/2)
                     * sum_{n>=1} U_n(zeta) C_{n+1}^{(-1/2)}(cos eta)

with mode profiles

    U_n(zeta) = b_n sinh((m - 1) zeta) + d_n sinh((m + 1) zeta),   m = n + 1/2.

Velocities follow from the stream function through

    u_z = (1 / rho) d(psi)/d(rho),      u_rho = -(1 / rho) d(psi)/d(z),

and the coefficients are those of unit speed: the upper sphere moves up the
axis at speed 1 and its mirror image down, so the spheres recede and the gap
2 h opens at rate 2. Drag and the propulsion factor are both per unit speed,
and every other speed is a multiple of this flow. With this orientation
every mode profile is positive on the axis segment above the upper sphere,
and the sinh-only profile enforces the mirror condition psi = 0 on the
midplane zeta = 0.

The closed coefficient solution is evaluated through exact rearrangements
that avoid the catastrophic cancellation the textbook expressions suffer once
exp(-2 m alpha) drops below machine precision. The coefficients and the force
terms share one scaled form of the mode denominator S_m (_pair_gap_sum);
tests/test_series.py checks both term by term against the direct expressions
on each side of the Taylor crossover, and the drag against the textbook
Stimson-Jeffery series. The term kernel slices read-only tables, built once at
import, of the mode orders and of the Taylor monomials m^p - m. Its Taylor
rows are a prefix of the orders, since 2 m alpha rises with m, and it masks
overflowing profile terms only where a sinh can overflow. Every term equals
the one the direct expressions give, bit for bit. Every adaptive sum doubles
its mode count in one loop (_converge) and raises TruncationError at
HARD_MODE_CAP. The drag sums start at a count predicted from their decay rate
(_start_count): one pass suffices.

The sums refuse a gap below SERIES_GAP_FLOOR, the package's one gap floor;
drag continues the coefficients below it.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, RegionError, SingularityError, TruncationError
from .geometry import BipolarFrame, _is_real, axis_zeta, frame_from_gap, tip_height

__all__ = [
    "HARD_MODE_CAP",
    "SERIES_GAP_FLOOR",
    "SeriesTruncation",
    "SeriesSolution",
    "solve_coefficients",
    "mode_profile",
    "mode_profile_via_source",
    "NonpenetrationReport",
    "nonpenetration_report",
    "stream_function",
    "axis_velocity",
    "passive_drag",
    "propulsion_drag",
]

# Doubling the mode count stops here; a series that has not converged by then
# raises TruncationError instead of silently returning a bad sum.
HARD_MODE_CAP = 2**14

# Below this half-gap the converged series needs more modes than the hard cap
# allows (a tip offset approaching zero needs about 23 / alpha of them), so
# drag continues with the proven asymptotic laws: kappa_pass ~ 1/h for no
# slip, and kappa_prop frozen (it varies by parts in 1e4 over two decades).
SERIES_GAP_FLOOR = 2e-6

# Crossover between the Taylor evaluation of the mode denominator and the
# exponentially scaled closed form. Both are accurate near the crossover.
_S_TAYLOR_CUT = 0.7

_TAYLOR_P = np.arange(3, 24, 2)
_TAYLOR_FACT = np.array([math.factorial(p) for p in _TAYLOR_P], dtype=float)

# Below this (m + 1) |zeta| every sinh of a mode profile stays under 1e152, so
# U_n cannot overflow for coefficients under 1e155; those of a gap the series
# accepts are many orders smaller.
_SINH_SAFE = 350.0

_START_K_FORCE, _START_K_AXIS = 1.4, 1.6  # start constants, see _start_count
# The least first mode count of any sum: solve_coefficients starts here, and
# a drag sum at its predicted count when that is larger.
_N_START = 20


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation request: the relative tail tolerance every sum meets. The
    first mode count is not a request: each sum starts at _N_START or, for a
    drag sum, at its predicted count when that is larger."""

    tail_tol: float = 1e-10

    def __post_init__(self):
        tail_tol = self.tail_tol
        if not (_is_real(tail_tol) and math.isfinite(tail_tol) and 0.0 < tail_tol <= 1e-2):
            raise DomainError(f"tail_tol must lie in (0, 1e-2], got {tail_tol!r}")


@dataclass(frozen=True)
class SeriesSolution:
    """Converged unit-speed coefficient set for one frame.

    b and d hold the mode coefficients for n = 1 .. n_modes. tail_estimate is
    the relative tail bound of the surface profile sum that the adaptive loop
    achieved; it is conservative for every evaluation point in the fluid.
    """

    frame: BipolarFrame
    b: np.ndarray
    d: np.ndarray
    tail_estimate: float
    requested: SeriesTruncation

    @property
    def n_modes(self):
        return len(self.b)


def _read_only(table):
    table.flags.writeable = False
    return table


# Read-only mode tables, sliced by every sum, with the exact values the
# index-only expressions give per call. _INDEX[j] = j and _ORDERS[j] = j + 1/2
# for j = 0 .. HARD_MODE_CAP + 1, so modes 1 .. N read n as _INDEX[1:N+1] and
# n + 1 as _INDEX[2:N+2], and m - 1, m, m + 1 as _ORDERS[:N], _ORDERS[1:N+1],
# _ORDERS[2:N+2]. _M_SQ and _M_SQ_MINUS_1 hold m^2 and m^2 - 1 from n = 1.
_INDEX = _read_only(np.arange(HARD_MODE_CAP + 2, dtype=float))
_ORDERS = _read_only(_INDEX + 0.5)
_M_SQ = _read_only(_ORDERS[1:-1] ** 2)
_M_SQ_MINUS_1 = _read_only(_M_SQ - 1.0)


def _half_orders(n_count):
    """Mode index n = 1 .. n_count and the half-integer order m = n + 1/2, as
    read-only views of the mode tables."""
    return _INDEX[1 : n_count + 1], _ORDERS[1 : n_count + 1]


def _taylor_monomials(m):
    """The rows m^p - m, p = 3, 5, .., 23, of the Taylor block of S_m."""
    m = m[:, None]
    return m**_TAYLOR_P - m


def _taylor_table():
    """Read-only Taylor rows of SERIES_GAP_FLOOR, where alpha is smallest, so
    no gap the series accepts has more rows with 2 m alpha < _S_TAYLOR_CUT."""
    _, m = _half_orders(HARD_MODE_CAP)
    x = m * (2.0 * frame_from_gap(SERIES_GAP_FLOOR).alpha)
    return _read_only(_taylor_monomials(m[: np.searchsorted(x, _S_TAYLOR_CUT)]))


_TAYLOR_MONOMIALS = _taylor_table()


def _pair_gap_sum(n_count, alpha):
    """S_m = 2 [sinh(2 m alpha) - m sinh(2 alpha)] for the first n_count orders
    as (s, k, E): S_m = s for the first k orders and S_m = s / E after them.

    E = exp(-2 m alpha) is returned because every caller's numerator needs it
    too. For small x = 2 m alpha the two sinh terms cancel to O((2 alpha)^3);
    there s is the positive Taylor series S_m = 2 sum_p (2 alpha)^p (m^p - m) / p!
    over p = 3, 5, .., 23 (order 25 adds under 1e-27). x rises with m, so these
    are the first k orders, those with x < _S_TAYLOR_CUT. For large x,
    S_m = exp(2 m alpha) s with the reduced factor s = 1 - E^2 - 2 m sinh(2 alpha) E,
    so a caller multiplies its numerator by E instead of dividing by a huge S_m.
    """
    _, m = _half_orders(n_count)
    # m (2 alpha) is 2 m alpha bit for bit: doubling is exact. The same holds
    # for m (2 sinh(2 alpha)) below. E underflows to 0 from x = 746 on, so it
    # needs no clamp of x.
    x = m * (2.0 * alpha)
    k = int(np.searchsorted(x, _S_TAYLOR_CUT))
    E = np.exp(np.negative(x, out=x), out=x)
    s = np.empty_like(E)
    if k:
        y = 2.0 * alpha
        rows = (
            _TAYLOR_MONOMIALS[:k]
            if k <= len(_TAYLOR_MONOMIALS)
            else _taylor_monomials(m[:k])  # a gap below the series floor
        )
        s[:k] = rows @ (2.0 * y**_TAYLOR_P / _TAYLOR_FACT)
    s_far, E_far = s[k:], E[k:]
    np.square(E_far, out=s_far)
    np.subtract(1.0, s_far, out=s_far)
    cross = m[k:] * (2.0 * np.sinh(2.0 * alpha))
    cross *= E_far
    s_far -= cross
    return s, k, E


def _mode_factor(frame, n_count):
    """E and the shared factor c^2 k_n / S_m, k_n = n (n + 1) / sqrt(2), both
    owned by the caller."""
    n, _ = _half_orders(n_count)
    s, k, E = _pair_gap_sum(n_count, frame.alpha)
    q = n * frame.c**2
    q *= _INDEX[2 : n_count + 2]  # n + 1
    q /= np.sqrt(2.0)
    q[k:] *= E[k:]
    q /= s
    return E, q


def _coefficient_arrays(frame, n_count):
    """Mode coefficients (b, d) for n = 1 .. n_count, cancellation free.

    Exact rearrangement of the closed boundary-condition solution with
    E = exp(-2 m alpha):

        b_n = c^2 k_n (E + 1 + m (e^(2 alpha) - 1)) / ((m - 1) S_m)
        d_n = -c^2 k_n (E + 1 + m (1 - e^(-2 alpha))) / ((m + 1) S_m)

    Every factor is evaluated without subtracting nearly equal exponentials.
    """
    al = frame.alpha
    _, m = _half_orders(n_count)
    E, q = _mode_factor(frame, n_count)
    E += 1.0
    b = m * (np.exp(2.0 * al) - 1.0)
    b += E
    b *= q
    b /= _ORDERS[:n_count]  # m - 1
    d = m * (1.0 - np.exp(-2.0 * al))
    d += E
    d *= q
    d /= _ORDERS[2 : n_count + 2]  # m + 1
    np.negative(d, out=d)
    return b, d


def _force_terms(frame, n_count):
    """Per-mode terms of the axial force sum, equal to b_n + d_n exactly.

    Combined before subtraction:

        b_n + d_n = 2 c^2 k_n (E + 1 + 2 m^2 sinh^2(alpha) + m sinh(2 alpha))
                    / (S_m (m^2 - 1))

    so every term is positive.
    """
    al = frame.alpha
    _, m = _half_orders(n_count)
    num, q = _mode_factor(frame, n_count)
    num += 1.0
    part = _M_SQ[:n_count] * (2.0 * np.sinh(al) ** 2)  # 2 m^2 sinh^2, bit for bit
    num += part
    np.multiply(m, np.sinh(2.0 * al), out=part)
    num += part
    q *= 2.0
    q *= num
    q /= _M_SQ_MINUS_1[:n_count]
    return q


def _profiles_at(b, d, zeta):
    """U_n(zeta) for all stored modes, with overflow-safe tail handling.

    Modes deep in the tail underflow to b = d = 0 while sinh overflows; the
    product is a true zero and is written as such. The guard runs only where
    a sinh can overflow, (m + 1) |zeta| >= _SINH_SAFE for the last mode.
    """
    n_count = len(b)
    guard = (n_count + 1.5) * abs(zeta) >= _SINH_SAFE
    with np.errstate(over="ignore", invalid="ignore") if guard else nullcontext():
        u = _ORDERS[:n_count] * zeta  # (m - 1) zeta
        np.sinh(u, out=u)
        u *= b
        v = _ORDERS[2 : n_count + 2] * zeta  # (m + 1) zeta
        np.sinh(v, out=v)
        v *= d
        u += v
    return np.where(np.isfinite(u), u, 0.0) if guard else u


def _tail_ratio(terms):
    """Relative geometric tail bound of a nonnegative term sequence, infinite
    for a window of fewer than two terms, which has no ratio to extrapolate."""
    if len(terms) < 2:
        return math.inf
    total = float(np.sum(terms))
    if total == 0.0 or terms[-1] == 0.0:
        return 0.0  # all zero, or underflowed inside the window: tail negligible
    r = min(float(terms[-1] / terms[-2]), 0.99) if terms[-2] > 0.0 else 0.0
    return float(terms[-1]) * r / (1.0 - r) / total


def _converge(n_start, tail_tol, evaluate, what):
    """Double the mode count from n_start until the series tail meets tail_tol.

    evaluate(n_count) returns (result, terms) for the first n_count modes;
    the relative tail of |terms| decides convergence. Returns the converged
    (result, tail) and raises TruncationError, naming the sum by `what`, once
    HARD_MODE_CAP modes are not enough.
    """
    n_count = n_start
    while True:
        result, terms = evaluate(n_count)
        tail = _tail_ratio(np.abs(terms))
        if tail <= tail_tol:
            return result, tail
        if n_count >= HARD_MODE_CAP:
            raise TruncationError(
                f"{what} tail {tail:.3e} above tolerance {tail_tol:.3e} "
                f"at the mode cap {HARD_MODE_CAP}",
                residual=tail,
                n_modes=n_count,
            )
        n_count = min(2 * n_count, HARD_MODE_CAP)


def _start_count(k, rate, truncation):
    """First mode count ceil(k ln(1 / tail_tol) / rate), clamped to [_N_START,
    HARD_MODE_CAP], of a drag sum whose terms decay like exp(-rate n). Each k
    is the least whose first pass meets the default tail test and lies within
    5e-13 of the converged sum for gaps 2e-6 .. 10 and tip offsets to 100
    (1.36 force, 1.58 axis), rounded up."""
    n = math.ceil(k * math.log(1.0 / truncation.tail_tol) / rate)
    return min(max(n, _N_START), HARD_MODE_CAP)


def _require_gap(h):
    if not np.isfinite(h) or h <= 0.0:
        raise DomainError(f"half-gap must be finite and positive, got {h}")
    if h < SERIES_GAP_FLOOR:
        raise DomainError(
            f"half-gap {h} is below the series floor {SERIES_GAP_FLOOR}; "
            "use an asymptotic continuation instead"
        )


def solve_coefficients(frame, truncation=None):
    """Solve the unit-speed no-slip conditions for the mode coefficients,
    adaptively.

    Starts at _N_START modes and doubles until the relative tail of the
    surface profile sum sum_n |U_n(alpha)| falls below tail_tol. The surface
    is the slowest-converging evaluation curve in the closed fluid domain,
    so the same coefficient set is adequate everywhere else.
    """
    truncation = truncation or SeriesTruncation()
    _require_gap(frame.h)

    def evaluate(n_count):
        b, d = _coefficient_arrays(frame, n_count)
        return (b, d), _profiles_at(b, d, frame.alpha)

    (b, d), tail = _converge(_N_START, truncation.tail_tol, evaluate, "surface profile")
    return SeriesSolution(frame=frame, b=b, d=d, tail_estimate=tail, requested=truncation)


def _source_array(frame, n_count):
    """Source strengths G_n, n = 1 .. n_count, tying the two coefficient
    families together.

    For each mode the boundary conditions force

        b_n = G_n - d_n sinh((m + 1) alpha) / sinh((m - 1) alpha)

    with a strictly positive G_n. Evaluated through the exponential identity

        (m + 1) e^(-(m-1) alpha) - (m - 1) e^(-(m+1) alpha)
            = 2 e^(-m alpha) (m sinh(alpha) + cosh(alpha))

    which keeps all factors positive. Past overflow G_n is written as 0.
    """
    al = frame.alpha
    _, m = _half_orders(n_count)
    pref = frame.c**2 / np.sqrt(2.0) * (m**2 - 0.25) / (m**2 - 1.0)
    core = np.exp(-m * al) * (m * np.sinh(al) + np.cosh(al))
    with np.errstate(over="ignore"):
        den = np.sinh((m - 1.0) * al)
    out = pref * core / den
    return np.where(np.isfinite(out), out, 0.0)


def _sinh_ratio(m, alpha):
    """sinh((m+1) alpha) / sinh((m-1) alpha) without overflow."""
    num = -np.expm1(-2.0 * (m + 1.0) * alpha)
    den = -np.expm1(-2.0 * (m - 1.0) * alpha)
    return np.exp(2.0 * alpha) * num / den


def _check_mode_args(solution, n, zeta):
    """Validated (n, zeta) of a single-mode profile request."""
    if not (_is_real(n) and math.isfinite(n) and n == int(n) and 1 <= n <= solution.n_modes):
        raise DomainError(f"mode index n must be an integer in [1, {solution.n_modes}], got {n!r}")
    if not (_is_real(zeta) and math.isfinite(zeta) and zeta >= 0.0):
        raise DomainError(f"zeta must be finite and >= 0, got {zeta!r}")
    return int(n), float(zeta)


def mode_profile(solution, n, zeta):
    """U_n(zeta) from the stored (b_n, d_n) pair."""
    n, zeta = _check_mode_args(solution, n, zeta)
    return float(_profiles_at(solution.b[:n], solution.d[:n], zeta)[-1])


def mode_profile_via_source(solution, n, zeta):
    """U_n(zeta) assembled from the source strength instead of b_n.

    Algebraically identical to mode_profile when the coefficients satisfy the
    boundary conditions; comparing the two routes is the standing consistency
    check on the coefficient solution.
    """
    n, zeta = _check_mode_args(solution, n, zeta)
    frame = solution.frame
    m = n + 0.5
    g = _source_array(frame, n)[-1]
    ratio = float(_sinh_ratio(np.array([m]), frame.alpha)[0])
    d = solution.d[n - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        u = g * np.sinh((m - 1.0) * zeta) + d * (
            np.sinh((m + 1.0) * zeta) - ratio * np.sinh((m - 1.0) * zeta)
        )
    return float(u) if np.isfinite(u) else 0.0


@dataclass(frozen=True)
class NonpenetrationReport:
    """Per-solution summary of the coefficient coupling identity."""

    n_modes: int
    max_residual: float


def nonpenetration_report(solution):
    """Largest relative residual of b_n = G_n - d_n sinh ratio over all modes,
    each mode's residual taken relative to the largest of its three terms;
    modes whose terms have all underflowed to zero are skipped."""
    frame = solution.frame
    n_count = solution.n_modes
    _, m = _half_orders(n_count)
    g = _source_array(frame, n_count)
    term = solution.d * _sinh_ratio(m, frame.alpha)
    lhs = solution.b
    scale = np.maximum.reduce([np.abs(lhs), np.abs(g), np.abs(term)])
    live = scale > 0.0
    residual = np.abs(lhs - (g - term))[live] / scale[live]
    return NonpenetrationReport(
        n_modes=n_count, max_residual=float(np.max(residual, initial=0.0))
    )


def stream_function(solution, point):
    """psi at a bipolar point on the fluid side (zeta <= alpha).

    Starts at the solution's mode count and extends it automatically if the
    local tail estimate is above the solution's tolerance, and raises
    TruncationError only at the hard cap. psi vanishes identically on the
    midplane zeta = 0.
    """
    zeta = float(point.zeta)
    eta = float(point.eta)
    frame = solution.frame
    if not (np.isfinite(zeta) and np.isfinite(eta)):
        raise DomainError(f"non-finite bipolar point ({zeta}, {eta})")
    if zeta < 0.0 or eta < 0.0 or eta > np.pi:
        raise DomainError(f"bipolar point ({zeta}, {eta}) outside the upper domain")
    if zeta > frame.alpha * (1.0 + 1e-12):
        raise RegionError(f"zeta = {zeta} lies inside the sphere (alpha = {frame.alpha})")
    if zeta == 0.0 and eta == 0.0:
        raise SingularityError("(0, 0) is the point at infinity")

    def evaluate(n_count):
        b, d = _coefficient_arrays(frame, n_count)
        terms = _profiles_at(b, d, zeta) * geometry.gegenbauer_minus_half(n_count, np.cos(eta))
        return terms, terms

    terms, _ = _converge(
        solution.n_modes, solution.requested.tail_tol, evaluate, "stream function"
    )
    den = np.cosh(zeta) - np.cos(eta)
    return float(den ** (-1.5) * np.sum(terms))


def _axis_sum(frame, zeta0, tail_tol, n_start):
    """Adaptive evaluation of sqrt(2) sinh(zeta0/2) / c^2 sum_n U_n(zeta0).

    The per-mode terms decay like exp(-m (2 alpha - zeta0)), so the loop is
    keyed to the actual evaluation point rather than the slower surface
    criterion; near-contact tip evaluations stay inside the mode cap that
    the surface sum would bust.
    """

    def evaluate(n_count):
        u = _profiles_at(*_coefficient_arrays(frame, n_count), zeta0)
        return u, u

    u, _ = _converge(n_start, tail_tol, evaluate, "axis velocity")
    return float(np.sqrt(2.0) * np.sinh(zeta0 / 2.0) / frame.c**2 * np.sum(u))


def axis_velocity(solution, z0):
    """Axial velocity u_z on the symmetry axis at height z0 > 1 + h.

    On the axis the Gegenbauer factor degenerates and the series collapses to

        u_z(z0) = sqrt(2) sinh(zeta0 / 2) / c^2 * sum_n U_n(zeta0)

    with zeta0 the axis coordinate of z0. The sum converges for every
    z0 > 1 + h (zeta0 < 2 alpha); physical fluid points have z0 > 2 + h, and
    the band in between is the analytic continuation of the exterior flow
    through the sphere surface. Positive: receding spheres drag the axis
    fluid upward above them.
    """
    frame = solution.frame
    z0 = float(z0)
    if not np.isfinite(z0) or z0 <= 1.0 + frame.h:
        raise DomainError(
            f"axis series needs z0 > 1 + h = {1.0 + frame.h}, got {z0}"
        )
    zeta0 = axis_zeta(frame, z0)
    return _axis_sum(frame, zeta0, solution.requested.tail_tol, solution.n_modes)


def passive_drag(h, truncation=None):
    """Drag coefficient of the mirror pair: axial force magnitude on either
    sphere per unit translation speed, from the force sum

        kappa(h) = (2 sqrt(2) pi / c) sum_n (b_n + d_n).

    The per-mode terms are combined before subtraction so the sum stays
    positive and fully conditioned down to the smallest supported gaps.
    Diverges like 1/h as h -> 0 and approaches the isolated-sphere value
    6 pi as h -> infinity.
    """
    truncation = truncation or SeriesTruncation()
    h = float(h)
    _require_gap(h)
    frame = frame_from_gap(h)

    def evaluate(n_count):
        t = _force_terms(frame, n_count)
        return t, t

    n_start = _start_count(_START_K_FORCE, 2.0 * frame.alpha, truncation)
    t, _ = _converge(n_start, truncation.tail_tol, evaluate, "force sum")
    return float(2.0 * np.sqrt(2.0) * np.pi / frame.c * np.sum(t))


def propulsion_drag(h, lam, truncation=None):
    """Propulsion reduction factor kappa_prop(h, lam) in (0, 1).

    By the reciprocal relation between the propulsion problem and the mirror
    translation flow, the fraction of the point-force thrust cancelled by the
    presence of the bodies equals the axis velocity of the unit-speed
    translation flow at the force location:

        kappa_prop = u_z(tip),   tip = 2 + h + lam.

    Approaches 1 as lam -> 0 (the force point merges with the no-slip
    surface) and 0 as lam -> infinity.
    """
    truncation = truncation or SeriesTruncation()
    h = float(h)
    _require_gap(h)
    frame = frame_from_gap(h)
    zeta0 = axis_zeta(frame, tip_height(h, lam))
    n_start = _start_count(_START_K_AXIS, 2.0 * frame.alpha - zeta0, truncation)
    return _axis_sum(frame, zeta0, truncation.tail_tol, n_start)

