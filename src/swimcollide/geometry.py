"""Axisymmetric bipolar coordinates for a mirror pair of unit spheres.

The two spheres have radius 1, their centers sit on the z axis at
(0, 0, +-(1 + h)), and the surface-to-surface gap across the z = 0 midplane
is 2 h. In the meridional (rho, z) half-plane the bipolar map is

    z   = c sinh(zeta) / (cosh(zeta) - cos(eta))
    rho = c sin(eta)   / (cosh(zeta) - cos(eta))

with foci at (0, +-c). The upper sphere is the coordinate surface
zeta = alpha where cosh(alpha) = 1 + h and c = sinh(alpha); the midplane is
zeta = 0, the z axis is eta = 0 (beyond the foci) and eta = pi (between
them). Only the upper half-space z >= 0 is represented; the lower half
follows by mirror symmetry.

Also provides the axis height of the propulsion point force behind the upper
sphere, the Legendre recurrence, and the one Gegenbauer(-1/2) kernel, which
gives the angular factors of every stream-function mode as one array.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegionError, SingularityError

__all__ = [
    "BipolarFrame",
    "AxisymPoint",
    "BipolarPoint",
    "frame_from_gap",
    "to_bipolar",
    "from_bipolar",
    "axis_zeta",
    "tip_height",
    "legendre_values",
    "gegenbauer_minus_half",
]


def _is_real(value):
    # The type test first: isinstance against an abstract class is slow.
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _real(name, value, lo=-math.inf, hi=math.inf, strict=False, whole=False):
    """value as a float, checked to be a real number that is not a bool, is
    finite, lies in [lo, hi] ((lo, hi] when strict) and, when whole, is a
    whole number. Anything else is a DomainError whose message starts with
    name: the one rule for every number the public API takes. An int too
    large for a float counts as not finite."""
    if _is_real(value):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if (
            math.isfinite(number)
            and (lo < number if strict else lo <= number)
            and number <= hi
            and (not whole or number == int(number))
        ):
            return number
    if hi < math.inf:
        span = f" in {'(' if strict else '['}{lo!r}, {hi!r}]"
    else:
        span = f" {'>' if strict else '>='} {lo!r}" if lo > -math.inf else ""
    kind = "an integer" if whole else "a finite real number"
    raise DomainError(f"{name} must be {kind}{span}, got {value!r}")


@dataclass(frozen=True)
class BipolarFrame:
    """Frozen geometry of one gap value: cosh(alpha) = 1 + h, c = sinh(alpha)."""

    h: float
    alpha: float
    c: float


@dataclass(frozen=True)
class AxisymPoint:
    """Meridional point: cylindrical radius rho >= 0 and height z."""

    rho: float
    z: float


@dataclass(frozen=True)
class BipolarPoint:
    """Bipolar point: zeta >= 0 (upper half-space), eta in [0, pi]."""

    zeta: float
    eta: float


def frame_from_gap(h):
    """Build the bipolar frame for half-gap h > 0.

    alpha is computed as log1p(h + sqrt(h (2 + h))) and c as sqrt(h (2 + h)),
    both exact rearrangements that stay accurate for h near zero where the
    naive arccosh(1 + h) loses half the digits.
    """
    h = _real("h, the half-gap,", h, 0, strict=True)
    c = float(np.sqrt(h * (2.0 + h)))
    alpha = float(np.log1p(h + c))
    return BipolarFrame(h=h, alpha=alpha, c=c)


def to_bipolar(frame, point):
    """Map a meridional point in the closed upper half-space to (zeta, eta).

    Uses the complex logarithm zeta + i eta = log((rho + i(z + c)) / (rho + i(z - c))),
    which is branch-safe for z >= 0. The focus (0, c) is a coordinate
    singularity and is rejected.
    """
    rho = _real("rho", point.rho, 0)
    z = _real("z", point.z)
    if z < 0.0:
        raise RegionError(
            f"z = {z} is in the lower half-space; map its mirror image instead"
        )
    c = frame.c
    if rho == 0.0 and z == c:
        raise SingularityError("the focus (0, c) has no bipolar image")
    w = np.log((rho + 1j * (z + c)) / (rho + 1j * (z - c)))
    zeta = float(w.real)
    eta = float(w.imag)
    # Round-off can push eta a few ulp outside [0, pi]; clamp, do not wrap.
    eta = min(max(eta, 0.0), np.pi)
    zeta = max(zeta, 0.0)
    return BipolarPoint(zeta=zeta, eta=eta)


def from_bipolar(frame, point):
    """Map (zeta, eta) back to the meridional half-plane.

    (0, 0) is the point at infinity and is rejected.
    """
    zeta = _real("zeta", point.zeta, 0)
    eta = _real("eta", point.eta, 0, math.pi)
    if zeta == 0.0 and eta == 0.0:
        raise SingularityError("(zeta, eta) = (0, 0) is the point at infinity")
    den = np.cosh(zeta) - np.cos(eta)
    return AxisymPoint(
        rho=float(frame.c * np.sin(eta) / den),
        z=float(frame.c * np.sinh(zeta) / den),
    )


def axis_zeta(frame, z0):
    """zeta of the on-axis point (0, z0) above the upper focus (eta = 0 branch).

    Requires z0 > c. On the axis the map reduces to
    zeta = log((z0 + c) / (z0 - c)).
    """
    z0 = _real("z0", z0, frame.c, strict=True)
    return float(np.log((z0 + frame.c) / (z0 - frame.c)))


def tip_height(h, lam):
    """Height of the upper propulsion point: rear pole plus offset lam.

    The upper body occupies c z in [h, 2 + h] on the axis, so its rear pole is
    at z = 2 + h and the point force sits outside both spheres for any lam > 0.
    """
    h = _real("h, the half-gap,", h, 0, strict=True)
    return 2.0 + h + _real("lam, the tip offset,", lam, 0, strict=True)


def legendre_values(n_max, x):
    """Legendre polynomials P_0(x) .. P_n_max(x) by the three-term recurrence.

    Returns an array of length n_max + 1. Requires |x| <= 1.
    """
    n_max = int(_real("n_max", n_max, 0, whole=True))
    x = _real("x", x, -1, 1)
    p = np.empty(n_max + 1)
    p[0] = 1.0
    if n_max == 0:
        return p
    p[1] = x
    for n in range(1, n_max):
        p[n + 1] = ((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1)
    return p


def gegenbauer_minus_half(n_count, x):
    """Gegenbauer polynomials C_{n+1}^{(-1/2)}(x) for n = 1 .. n_count.

    Evaluated through the stable Legendre difference
    C_{n+1}^{(-1/2)}(x) = (P_{n-1}(x) - P_{n+1}(x)) / (2 n + 1),
    which vanishes at x = +-1 for every n.
    """
    n_count = int(_real("n_count, the mode count,", n_count, 1, whole=True))
    p = legendre_values(n_count + 1, x)
    n = np.arange(1, n_count + 1)
    return (p[:n_count] - p[2:]) / (2 * n + 1)
