"""Gap-dependent drag and propulsion coefficients under both wall models.

The near-contact behavior of the pair drag decides whether the swimmers can
touch. Under the no-slip condition the exact series applies at every gap the
mode cap can resolve and grows like 1/h, which is what forbids contact in
finite time. A Navier slip length beta > 0 cuts that divergence off below
h = beta, where lubrication theory replaces 1/h by the integrable
(1/beta) log(beta/h) law. The blended model used here keeps the no-slip law
kappa_ns for h >= beta and switches to

    kappa(h) = kappa_ns(beta) * (1 + log(beta / h)),   h < beta,

which is continuous at h = beta by construction and reduces to kappa_ns as
beta -> 0. kappa_ns is the exact series down to SERIES_GAP_FLOOR and its
1/h continuation below it, so every slip length, however small, has a value.

The propulsion factor kappa_prop is the paper's, from the Lorentz reciprocal
theorem on the no-slip series (series.propulsion_drag), for both wall models.
A gap's coefficients are tagged EXACT_SERIES iff both come from a converged
series at that gap, which is iff h >= max(beta, SERIES_GAP_FLOOR).

Every series value is memoized on (gap, offset, truncation); the cache is a
pure lookup and never changes results.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .series import SeriesTruncation, passive_drag, propulsion_drag

__all__ = [
    "SERIES_GAP_FLOOR",
    "BoundaryCondition",
    "Provenance",
    "DragCoefficients",
    "kappa_pass",
    "kappa_prop",
    "kappa_arrays",
    "net_propulsion",
    "coefficients",
    "cache_clear",
]

# Below this half-gap the converged series needs more modes than the hard cap
# allows (the worst case, a tip offset approaching zero, needs about
# 23 / alpha of them), so the coefficients continue with their proven
# asymptotic laws: kappa_pass ~ 1/h for no slip, and kappa_prop frozen at its
# floor value (it varies by parts in 1e4 across two decades of h there).
SERIES_GAP_FLOOR = 2e-6


class Provenance(Enum):
    """How a coefficient value was produced."""

    EXACT_SERIES = "exact_series"
    ASYMPTOTIC_MODEL = "asymptotic_model"


@dataclass(frozen=True)
class BoundaryCondition:
    """Wall model on the sphere surfaces: 'no_slip' or 'navier' with length beta.

    beta = 0 under 'navier' is allowed and follows the no-slip code path
    exactly.
    """

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("no_slip", "navier"):
            raise DomainError(f"unknown boundary condition kind {self.kind!r}")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise DomainError(f"slip length must be finite and >= 0, got {self.beta}")
        if self.kind == "no_slip" and self.beta != 0.0:
            raise DomainError("no_slip takes no slip length")

    @classmethod
    def no_slip(cls):
        return cls(kind="no_slip")

    @classmethod
    def navier(cls, beta):
        return cls(kind="navier", beta=float(beta))

    @property
    def slips(self):
        return self.kind == "navier" and self.beta > 0.0


@dataclass(frozen=True)
class DragCoefficients:
    """Coefficient pair at one gap, tagged with how it was obtained."""

    h: float
    kappa_pass: float
    kappa_prop: float
    provenance: Provenance


def _trunc_key(truncation):
    truncation = truncation or SeriesTruncation()
    return truncation.n_max, truncation.tail_tol


@lru_cache(maxsize=262144)
def _series_pass(h, n_max, tail_tol):
    return passive_drag(h, SeriesTruncation(n_max=n_max, tail_tol=tail_tol))


@lru_cache(maxsize=262144)
def _series_prop(h, lam, n_max, tail_tol):
    return propulsion_drag(h, lam, SeriesTruncation(n_max=n_max, tail_tol=tail_tol))


def cache_clear():
    """Drop all memoized coefficient values (results are unaffected)."""
    _series_pass.cache_clear()
    _series_prop.cache_clear()


def _require_positive_gap(h):
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise DomainError(f"half-gap must be finite and positive, got {h}")
    return h


def _series_edge(bc):
    """The gap below which kappa_pass leaves the exact series."""
    return max(bc.beta, SERIES_GAP_FLOOR)


def _below_edge(anchor, h, beta):
    """kappa_pass below the series edge, for one gap or an array of them:
    kappa_ns(g) * (1 + log(g / h)) with g = max(h, beta), which is the
    slip-layer log law below beta. anchor is the series at the edge, which is
    kappa_ns there; below SERIES_GAP_FLOOR kappa_ns continues as 1/h."""
    if beta >= SERIES_GAP_FLOOR:  # the edge is beta, so g = beta
        return anchor * (1.0 + np.log(beta / h))
    g = np.maximum(h, beta)
    return anchor * SERIES_GAP_FLOOR / g * (1.0 + np.log(g / h))


def kappa_pass(h, bc, truncation=None):
    """Pair drag coefficient at half-gap h under the given wall model."""
    h = _require_positive_gap(h)
    n_max, tail_tol = _trunc_key(truncation)
    edge = _series_edge(bc)
    if h >= edge:
        return _series_pass(h, n_max, tail_tol)
    return float(_below_edge(_series_pass(edge, n_max, tail_tol), h, bc.beta))


def kappa_prop(h, lam, bc, truncation=None):
    """Propulsion reduction factor at half-gap h: the no-slip series under
    both wall models (slip enters it only at O(beta)), frozen at its value
    at SERIES_GAP_FLOOR below the floor."""
    h = _require_positive_gap(h)
    n_max, tail_tol = _trunc_key(truncation)
    return _series_prop(max(h, SERIES_GAP_FLOOR), float(lam), n_max, tail_tol)


def kappa_arrays(hs, bc, truncation=None, lam=None):
    """kappa_pass and kappa_prop at every gap of the array hs, in its shape.

    Each value equals the one kappa_pass or kappa_prop returns for that gap:
    gaps at or above the series edge go one by one through the same memoized
    series, the gaps below it take the same continuation in one array
    expression, and the propulsion factor comes from the same memoized series
    once per gap. lam = None, as for a passive pair, which has no
    propulsion factor, gives kappa_prop = 0 without evaluating anything.
    """
    hs = np.asarray(hs, dtype=float)
    if not np.all(np.isfinite(hs) & (hs > 0.0)):
        raise DomainError("half-gaps must be finite and positive")
    n_max, tail_tol = _trunc_key(truncation)
    edge = _series_edge(bc)
    above = hs >= edge
    kp = np.empty_like(hs)
    kp[above] = [_series_pass(h, n_max, tail_tol) for h in hs[above].tolist()]
    if not above.all():
        anchor = _series_pass(edge, n_max, tail_tol)
        kp[~above] = _below_edge(anchor, hs[~above], bc.beta)
    if lam is None:
        return kp, np.zeros_like(hs)
    floored = np.maximum(hs, SERIES_GAP_FLOOR).ravel().tolist()
    kpr = [_series_prop(h, float(lam), n_max, tail_tol) for h in floored]
    return kp, np.array(kpr).reshape(hs.shape)


def net_propulsion(h, lam, f_p, bc, truncation=None):
    """Net inward thrust f_p (1 - kappa_prop), the drive left after the
    backflow each swimmer's forcing induces at its partner is paid for."""
    f_p = float(f_p)
    if not np.isfinite(f_p) or f_p < 0.0:
        raise DomainError(f"thrust magnitude must be >= 0, got {f_p}")
    return f_p * (1.0 - kappa_prop(h, lam, bc, truncation))


def coefficients(h, lam, bc, truncation=None):
    """Both coefficients at one gap with a combined provenance tag.

    The tag is EXACT_SERIES only when both came from a converged series
    evaluation at the actual gap, which is at or above the series edge.
    """
    h = _require_positive_gap(h)
    exact = h >= _series_edge(bc)
    return DragCoefficients(
        h=h,
        kappa_pass=kappa_pass(h, bc, truncation),
        kappa_prop=kappa_prop(h, lam, bc, truncation),
        provenance=Provenance.EXACT_SERIES if exact else Provenance.ASYMPTOTIC_MODEL,
    )
