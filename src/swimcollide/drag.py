"""Gap-dependent drag and propulsion coefficients under both wall models.

The near-contact behavior of the pair drag decides whether the swimmers can
touch. Under the no-slip condition the exact series applies at every gap the
mode cap can resolve and grows like 1/h, which is what forbids contact in
finite time. A Navier slip length beta > 0 cuts that divergence off below
h = beta, where lubrication theory replaces 1/h by the integrable
(1/beta) log(beta/h) law. The blended model used here keeps the exact series
for h >= beta and switches to

    kappa(h) = kappa_series(beta) * (1 + log(beta / h)),   h < beta,

which is continuous at h = beta by construction and reduces to the pure
series as beta -> 0.

Every value is memoized on (gap, offset, model, truncation); the cache is a
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
    "kappa_pass_provenance",
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
    """The gap below which kappa_pass leaves the exact series: the slip
    length under slip, SERIES_GAP_FLOOR otherwise."""
    return bc.beta if bc.slips else SERIES_GAP_FLOOR


def _below_edge(anchor, edge, h, slips):
    """kappa_pass below the series edge, for one gap or an array of them: the
    slip-layer log law under slip, the 1/h lubrication law otherwise."""
    if slips:
        return anchor * (1.0 + np.log(edge / h))
    return anchor * edge / h


def kappa_pass(h, bc, truncation=None):
    """Pair drag coefficient at half-gap h under the given wall model."""
    h = _require_positive_gap(h)
    n_max, tail_tol = _trunc_key(truncation)
    edge = _series_edge(bc)
    if h >= edge:
        return _series_pass(h, n_max, tail_tol)
    return float(_below_edge(_series_pass(edge, n_max, tail_tol), edge, h, bc.slips))


def kappa_pass_provenance(h, bc):
    h = _require_positive_gap(h)
    if h >= _series_edge(bc):
        return Provenance.EXACT_SERIES
    return Provenance.ASYMPTOTIC_MODEL


def _default_prop_model(h, lam, bc, truncation):
    # Slip enters the propulsion factor only at O(beta); the no-slip value is
    # used for both wall models. Below the series floor the factor is frozen.
    n_max, tail_tol = _trunc_key(truncation)
    return _series_prop(max(h, SERIES_GAP_FLOOR), float(lam), n_max, tail_tol)


def kappa_prop(h, lam, bc, truncation=None, model=None):
    """Propulsion reduction factor at half-gap h.

    model, when given, must be a callable (h, lam, bc, truncation) -> float
    and replaces the built-in evaluation; the hook exists so a slip-corrected
    propulsion model can be swapped in without touching the dynamics.
    """
    h = _require_positive_gap(h)
    fn = model or _default_prop_model
    return float(fn(h, lam, bc, truncation))


def kappa_arrays(hs, bc, truncation=None, lam=None, model=None):
    """kappa_pass and kappa_prop at every gap of the array hs, in its shape.

    Each value equals the one kappa_pass or kappa_prop returns for that gap:
    gaps at or above the series edge go one by one through the same memoized
    series, the gaps below it take the same continuation in one array
    expression, and the propulsion factor comes from model (or the built-in
    series) once per gap. lam = None, as for a passive pair, which has no
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
        kp[~above] = _below_edge(anchor, edge, hs[~above], bc.slips)
    if lam is None:
        return kp, np.zeros_like(hs)
    fn = model or _default_prop_model
    kpr = [float(fn(h, lam, bc, truncation)) for h in hs.ravel().tolist()]
    return kp, np.array(kpr).reshape(hs.shape)


def net_propulsion(h, lam, f_p, bc, truncation=None, model=None):
    """Net inward thrust f_p (1 - kappa_prop), the drive left after the
    backflow each swimmer's forcing induces at its partner is paid for."""
    f_p = float(f_p)
    if not np.isfinite(f_p) or f_p < 0.0:
        raise DomainError(f"thrust magnitude must be >= 0, got {f_p}")
    return f_p * (1.0 - kappa_prop(h, lam, bc, truncation, model))


def coefficients(h, lam, bc, truncation=None, model=None):
    """Both coefficients at one gap with a combined provenance tag.

    The tag is EXACT_SERIES only when every ingredient came from a converged
    series evaluation at the actual gap.
    """
    h = _require_positive_gap(h)
    kp = kappa_pass(h, bc, truncation)
    kpr = kappa_prop(h, lam, bc, truncation, model)
    prov = kappa_pass_provenance(h, bc)
    if model is None and h < SERIES_GAP_FLOOR:
        prov = Provenance.ASYMPTOTIC_MODEL
    return DragCoefficients(h=h, kappa_pass=float(kp), kappa_prop=float(kpr), provenance=prov)
