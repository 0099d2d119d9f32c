"""Stream-function series for two no-slip unit spheres in mirror translation.

The axisymmetric Stokes flow around the mirror pair is expanded in bipolar
coordinates as

    psi(zeta, eta) = (cosh zeta - cos eta)^(-3/2)
                     * sum_{n>=1} U_n(zeta) C_{n+1}^{(-1/2)}(cos eta)

with mode profiles

    U_n(zeta) = b_n sinh((m - 1) zeta) + d_n sinh((m + 1) zeta),   m = n + 1/2.

Velocities follow from the stream function through

    u_z = (1 / rho) d(psi)/d(rho),      u_rho = -(1 / rho) d(psi)/d(z),

and the boundary speed w_bc is the signed axial velocity of the upper sphere:
w_bc > 0 means the spheres recede and the gap 2 h opens at rate 2 w_bc. With
this orientation every mode profile is positive on the axis segment above the
upper sphere when w_bc > 0, and the sinh-only profile enforces the mirror
condition psi = 0 on the midplane zeta = 0.

The closed coefficient solution is evaluated through exact rearrangements
that avoid the catastrophic cancellation the textbook expressions suffer once
exp(-2 m alpha) drops below machine precision. The coefficients and the force
terms share one scaled form of the mode denominator S_m (_pair_gap_sum);
tests/test_series.py checks both term by term against the direct expressions
on each side of the Taylor crossover, and the drag against the textbook
Stimson-Jeffery series. Every adaptive sum doubles its mode count in one loop
(_converge) and raises TruncationError at HARD_MODE_CAP. The drag sums start
at a count predicted from their decay rate (_start_count): one pass suffices.

The sums refuse a gap below SERIES_GAP_FLOOR, the package's one gap floor;
drag continues the coefficients below it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, RegionError, SingularityError, TruncationError
from .geometry import BipolarFrame, axis_zeta, frame_from_gap, tip_height

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

_START_K_FORCE, _START_K_AXIS = 1.4, 1.6  # start constants, see _start_count


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation request: the smallest first mode count (the drag sums start
    at their predicted count when larger) and the relative tail tolerance."""

    n_max: int = 20
    tail_tol: float = 1e-10

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise DomainError(f"n_max must be a positive integer, got {self.n_max}")
        if self.n_max > HARD_MODE_CAP:
            raise DomainError(f"n_max exceeds the hard cap {HARD_MODE_CAP}")
        if not np.isfinite(self.tail_tol) or not 0.0 < self.tail_tol <= 1e-2:
            raise DomainError(f"tail_tol must lie in (0, 1e-2], got {self.tail_tol}")


@dataclass(frozen=True)
class SeriesSolution:
    """Converged coefficient set for one (frame, w_bc) pair.

    b and d hold the mode coefficients for n = 1 .. n_modes. tail_estimate is
    the relative tail bound of the surface profile sum that the adaptive loop
    achieved; it is conservative for every evaluation point in the fluid.
    """

    frame: BipolarFrame
    w_bc: float
    b: np.ndarray
    d: np.ndarray
    tail_estimate: float
    requested: SeriesTruncation

    @property
    def n_modes(self):
        return len(self.b)


def _half_orders(n_count):
    """Mode index n = 1 .. n_count and the half-integer order m = n + 1/2."""
    n = np.arange(1, n_count + 1, dtype=float)
    return n, n + 0.5


def _pair_gap_sum(m, alpha):
    """S_m = 2 [sinh(2 m alpha) - m sinh(2 alpha)] as (s, scale, E), S_m = s / scale.

    E = exp(-2 m alpha) is returned because every caller's numerator needs it
    too. For small 2 m alpha the two sinh terms cancel to O((2 alpha)^3);
    there s is the positive Taylor series S_m = 2 sum_p (2 alpha)^p (m^p - m) / p!
    over p = 3, 5, .., 23 (order 25 adds under 1e-27) and scale = 1. For large
    2 m alpha, S_m = exp(2 m alpha) s with the reduced factor
    s = 1 - E^2 - 2 m sinh(2 alpha) E, and scale = E, so a caller multiplies
    its numerator by scale instead of dividing by a huge S_m.
    """
    x = 2.0 * m * alpha
    E = np.exp(-np.minimum(x, 1500.0))
    s = 1.0 - E**2 - 2.0 * m * np.sinh(2.0 * alpha) * E
    taylor = x < _S_TAYLOR_CUT
    scale = np.where(taylor, 1.0, E)
    if np.any(taylor):
        mt, y = m[taylor, None], 2.0 * alpha
        s[taylor] = (mt**_TAYLOR_P - mt) @ (2.0 * y**_TAYLOR_P / _TAYLOR_FACT)
    return s, scale, E


def _mode_factor(frame, w_bc, n_count):
    """m, E and the shared factor w c^2 k_n / S_m, k_n = n (n + 1) / sqrt(2)."""
    n, m = _half_orders(n_count)
    s, scale, E = _pair_gap_sum(m, frame.alpha)
    return m, E, w_bc * frame.c**2 * n * (n + 1.0) / np.sqrt(2.0) * scale / s


def _coefficient_arrays(frame, w_bc, n_count):
    """Mode coefficients (b, d) for n = 1 .. n_count, cancellation free.

    Exact rearrangement of the closed boundary-condition solution with
    E = exp(-2 m alpha):

        b_n = w c^2 k_n (E + 1 + m (e^(2 alpha) - 1)) / ((m - 1) S_m)
        d_n = -w c^2 k_n (E + 1 + m (1 - e^(-2 alpha))) / ((m + 1) S_m)

    Every factor is evaluated without subtracting nearly equal exponentials.
    """
    al = frame.alpha
    m, E, q = _mode_factor(frame, w_bc, n_count)
    b = q * (E + 1.0 + m * (np.exp(2.0 * al) - 1.0)) / (m - 1.0)
    d = -q * (E + 1.0 + m * (1.0 - np.exp(-2.0 * al))) / (m + 1.0)
    return b, d


def _force_terms(frame, w_bc, n_count):
    """Per-mode terms of the axial force sum, equal to b_n + d_n exactly.

    Combined before subtraction:

        b_n + d_n = 2 w c^2 k_n (E + 1 + 2 m^2 sinh^2(alpha) + m sinh(2 alpha))
                    / (S_m (m^2 - 1))

    so every term is positive for w > 0.
    """
    al = frame.alpha
    m, E, q = _mode_factor(frame, w_bc, n_count)
    num = E + 1.0 + 2.0 * m**2 * np.sinh(al) ** 2 + m * np.sinh(2.0 * al)
    return 2.0 * q * num / (m**2 - 1.0)


def _profiles_at(b, d, zeta):
    """U_n(zeta) for all stored modes, with overflow-safe tail handling.

    Modes deep in the tail underflow to b = d = 0 while sinh overflows; the
    product is a true zero and is written as such.
    """
    n_count = len(b)
    _, m = _half_orders(n_count)
    with np.errstate(over="ignore", invalid="ignore"):
        u = b * np.sinh((m - 1.0) * zeta) + d * np.sinh((m + 1.0) * zeta)
    return np.where(np.isfinite(u), u, 0.0)


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
    """First mode count ceil(k ln(1 / tail_tol) / rate), clamped to [n_max,
    HARD_MODE_CAP], of a drag sum whose terms decay like exp(-rate n). Each k
    is the least whose first pass meets the default tail test and lies within
    5e-13 of the converged sum for gaps 2e-6 .. 10 and tip offsets to 100
    (1.36 force, 1.58 axis), rounded up."""
    n = math.ceil(k * math.log(1.0 / truncation.tail_tol) / rate)
    return min(max(n, truncation.n_max), HARD_MODE_CAP)


def _require_gap(h):
    if not np.isfinite(h) or h <= 0.0:
        raise DomainError(f"half-gap must be finite and positive, got {h}")
    if h < SERIES_GAP_FLOOR:
        raise DomainError(
            f"half-gap {h} is below the series floor {SERIES_GAP_FLOOR}; "
            "use an asymptotic continuation instead"
        )


def solve_coefficients(frame, w_bc, truncation=None):
    """Solve the no-slip conditions for the mode coefficients, adaptively.

    Starts at truncation.n_max modes and doubles until the relative tail of
    the surface profile sum sum_n |U_n(alpha)| falls below tail_tol. The
    surface is the slowest-converging evaluation curve in the closed fluid
    domain, so the same coefficient set is adequate everywhere else.
    """
    truncation = truncation or SeriesTruncation()
    _require_gap(frame.h)
    w_bc = float(w_bc)
    if not np.isfinite(w_bc):
        raise DomainError(f"boundary speed must be finite, got {w_bc}")

    def evaluate(n_count):
        b, d = _coefficient_arrays(frame, w_bc, n_count)
        return (b, d), _profiles_at(b, d, frame.alpha)

    (b, d), tail = _converge(
        truncation.n_max, truncation.tail_tol, evaluate, "surface profile"
    )
    return SeriesSolution(
        frame=frame, w_bc=w_bc, b=b, d=d, tail_estimate=tail, requested=truncation
    )


def _source_array(frame, n_count):
    """Source strengths G_n, n = 1 .. n_count, tying the two coefficient
    families together.

    For each mode the boundary conditions force

        b_n = w_bc G_n - d_n sinh((m + 1) alpha) / sinh((m - 1) alpha)

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
    if int(n) != n or n < 1 or n > solution.n_modes:
        raise DomainError(
            f"mode index must be an integer in [1, {solution.n_modes}], got {n}"
        )
    zeta = float(zeta)
    if not np.isfinite(zeta) or zeta < 0.0:
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")
    return int(n), zeta


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
        u = solution.w_bc * g * np.sinh((m - 1.0) * zeta) + d * (
            np.sinh((m + 1.0) * zeta) - ratio * np.sinh((m - 1.0) * zeta)
        )
    return float(u) if np.isfinite(u) else 0.0


@dataclass(frozen=True)
class NonpenetrationReport:
    """Per-solution summary of the coefficient coupling identity."""

    n_modes: int
    max_residual: float
    max_residual_unscaled: float


def nonpenetration_report(solution):
    """Relative residual of b_n = w_bc G_n - d_n sinh ratio over all modes.

    max_residual uses the boundary-speed-scaled source w_bc G_n, the form the
    coefficients actually satisfy; max_residual_unscaled drops the w_bc
    factor and is reported for contrast (it is O(1) whenever w_bc != 1).
    """
    frame = solution.frame
    n_count = solution.n_modes
    _, m = _half_orders(n_count)
    g = _source_array(frame, n_count)
    ratio = _sinh_ratio(m, frame.alpha)
    term = solution.d * ratio

    def max_rel(source_scale):
        lhs = solution.b
        rhs = source_scale * g - term
        scale = np.maximum.reduce(
            [np.abs(lhs), np.abs(source_scale * g), np.abs(term)]
        )
        live = scale > 0.0
        if not np.any(live):
            return 0.0
        return float(np.max(np.abs(lhs - rhs)[live] / scale[live]))

    return NonpenetrationReport(
        n_modes=n_count,
        max_residual=max_rel(solution.w_bc),
        max_residual_unscaled=max_rel(1.0),
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
        b, d = _coefficient_arrays(frame, solution.w_bc, n_count)
        terms = _profiles_at(b, d, zeta) * geometry.gegenbauer_minus_half(n_count, np.cos(eta))
        return terms, terms

    terms, _ = _converge(
        solution.n_modes, solution.requested.tail_tol, evaluate, "stream function"
    )
    den = np.cosh(zeta) - np.cos(eta)
    return float(den ** (-1.5) * np.sum(terms))


def _axis_sum(frame, w_bc, zeta0, tail_tol, n_start):
    """Adaptive evaluation of sqrt(2) sinh(zeta0/2) / c^2 sum_n U_n(zeta0).

    The per-mode terms decay like exp(-m (2 alpha - zeta0)), so the loop is
    keyed to the actual evaluation point rather than the slower surface
    criterion; near-contact tip evaluations stay inside the mode cap that
    the surface sum would bust.
    """

    def evaluate(n_count):
        u = _profiles_at(*_coefficient_arrays(frame, w_bc, n_count), zeta0)
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
    through the sphere surface. Positive for w_bc > 0: receding spheres drag
    the axis fluid upward above them.
    """
    frame = solution.frame
    z0 = float(z0)
    if not np.isfinite(z0) or z0 <= 1.0 + frame.h:
        raise DomainError(
            f"axis series needs z0 > 1 + h = {1.0 + frame.h}, got {z0}"
        )
    zeta0 = axis_zeta(frame, z0)
    return _axis_sum(
        frame, solution.w_bc, zeta0, solution.requested.tail_tol, solution.n_modes
    )


def passive_drag(h, truncation=None):
    """Drag coefficient of the mirror pair: axial force magnitude on either
    sphere per unit translation speed, from the force sum

        kappa(h) = (2 sqrt(2) pi / c) sum_n (b_n + d_n)   evaluated at w_bc = 1.

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
        t = _force_terms(frame, 1.0, n_count)
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

        kappa_prop = u_z(tip; w_bc = 1),   tip = 2 + h + lam.

    Approaches 1 as lam -> 0 (the force point merges with the no-slip
    surface) and 0 as lam -> infinity.
    """
    truncation = truncation or SeriesTruncation()
    h = float(h)
    _require_gap(h)
    frame = frame_from_gap(h)
    zeta0 = axis_zeta(frame, tip_height(h, lam))
    n_start = _start_count(_START_K_AXIS, 2.0 * frame.alpha - zeta0, truncation)
    return _axis_sum(frame, 1.0, zeta0, truncation.tail_tol, n_start)

