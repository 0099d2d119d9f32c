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
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name, value, least):
    """value as an int, checked to be a whole number >= least; a bool, a
    non-number, NaN or an infinity is a DomainError naming it."""
    if not (_is_real(value) and math.isfinite(value) and value == int(value) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise DomainError(f"half-gap must be finite and positive, got {h}")
    c = float(np.sqrt(h * (2.0 + h)))
    alpha = float(np.log1p(h + c))
    return BipolarFrame(h=h, alpha=alpha, c=c)


def to_bipolar(frame, point):
    """Map a meridional point in the closed upper half-space to (zeta, eta).

    Uses the complex logarithm zeta + i eta = log((rho + i(z + c)) / (rho + i(z - c))),
    which is branch-safe for z >= 0. The focus (0, c) is a coordinate
    singularity and is rejected.
    """
    rho = float(point.rho)
    z = float(point.z)
    if not (np.isfinite(rho) and np.isfinite(z)):
        raise DomainError(f"non-finite point ({rho}, {z})")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
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
    zeta = float(point.zeta)
    eta = float(point.eta)
    if not (np.isfinite(zeta) and np.isfinite(eta)):
        raise DomainError(f"non-finite bipolar point ({zeta}, {eta})")
    if zeta < 0.0:
        raise DomainError(f"zeta must be >= 0 for the upper half-space, got {zeta}")
    if eta < 0.0 or eta > np.pi:
        raise DomainError(f"eta must lie in [0, pi], got {eta}")
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
    z0 = float(z0)
    if not np.isfinite(z0) or z0 <= frame.c:
        raise DomainError(f"axis point needs z0 > c = {frame.c}, got {z0}")
    return float(np.log((z0 + frame.c) / (z0 - frame.c)))


def tip_height(h, lam):
    """Height of the upper propulsion point: rear pole plus offset lam.

    The upper body occupies c z in [h, 2 + h] on the axis, so its rear pole is
    at z = 2 + h and the point force sits outside both spheres for any lam > 0.
    """
    for name, value in (("h, the half-gap", h), ("lam, the tip offset", lam)):
        if not (_is_real(value) and math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be a finite real number > 0, got {value!r}")
    return 2.0 + float(h) + float(lam)


def legendre_values(n_max, x):
    """Legendre polynomials P_0(x) .. P_n_max(x) by the three-term recurrence.

    Returns an array of length n_max + 1. Requires |x| <= 1.
    """
    n_max = _count("n_max", n_max, 0)
    x = float(x)
    if not np.isfinite(x) or abs(x) > 1.0:
        raise DomainError(f"argument must lie in [-1, 1], got {x}")
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
    n_count = _count("n_count, the mode count,", n_count, 1)
    p = legendre_values(n_count + 1, x)
    n = np.arange(1, n_count + 1)
    return (p[:n_count] - p[2:]) / (2 * n + 1)
