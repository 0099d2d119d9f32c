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
beta -> 0. kappa_ns is the exact series down to SERIES_GAP_FLOOR, the floor
of the series re-exported here, and its 1/h continuation below it, so every
slip length, however small, has a value.

The propulsion factor kappa_prop is the paper's, from the Lorentz reciprocal
theorem on the no-slip series (series.propulsion_drag), for both wall models.
A gap's coefficients are tagged EXACT_SERIES iff both come from a converged
series at that gap, which is iff h >= max(beta, SERIES_GAP_FLOOR).

Every series value is memoized on (gap, offset, truncation), at most 262144
per coefficient; the memo is a pure lookup and never changes results. A miss
at a gap fills every value missing there from one call of the series kernel
(series._drag_sums): kappa_pass where the wall model reads the series at
that gap, and kappa_prop. Inside _sharing, which the sweep command enters
with the tip offsets of its grid, a kappa_prop miss also fills each of those
offsets that the memo lacks at that gap, in the same call. kappa_arrays is
the one reader of the memo: it alone turns series values into kappa_pass and
kappa_prop, and kappa_pass, kappa_prop and coefficients are its values at
one gap. Massless runs, rhs, the quadrature, the decay-rate bound and the
drag command all read the series through it, and inertial runs through
dynamics._KappaTable, which interpolates its values at the edges of a
massless run. _provenance is the one provenance rule, of coefficients and
of the drag command's table.
"""

import threading
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, TruncationError
from .geometry import _is_real, _real
from .series import SERIES_GAP_FLOOR, _drag_sums, _truncation, _value
# The per-sum views, kept importable from here for callers that wrap them.
from .series import passive_drag, propulsion_drag  # noqa: F401

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


class Provenance(Enum):
    """How a coefficient value was produced."""

    EXACT_SERIES = "exact_series"
    ASYMPTOTIC_MODEL = "asymptotic_model"


@dataclass(frozen=True)
class BoundaryCondition:
    """Wall model on the sphere surfaces: 'no_slip' or 'navier' with length beta.

    beta = 0 under 'navier' is allowed and follows the no-slip code path
    exactly. beta must be a finite real number >= 0, not a bool or a string,
    or a DomainError names it; it is stored as a float.
    """

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("no_slip", "navier"):
            raise DomainError(f"unknown boundary condition kind {self.kind!r}")
        object.__setattr__(self, "beta", _real("beta, the slip length,", self.beta, 0))
        if self.kind == "no_slip" and self.beta != 0.0:
            raise DomainError(f"no_slip takes no slip length, got beta = {self.beta!r}")

    @classmethod
    def no_slip(cls):
        return cls(kind="no_slip")

    @classmethod
    def navier(cls, beta):
        return cls(kind="navier", beta=beta)

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


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo:
    """Series values of one coefficient by family and gap: the family is the
    truncation, and for kappa_prop the tip offset with it. It holds at most
    maxsize values, the oldest making room, and cache_info() and
    cache_clear() are functools.lru_cache's: each lookup is one hit or one
    miss, and a value stored without a lookup counts as neither."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self):
        with self.lock:
            self.families, self.currsize, self.hits, self.misses = {}, 0, 0, 0

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize, self.currsize)

    def family(self, key):
        """The values of one family, a dict by gap that store() fills."""
        table = self.families.get(key)
        if table is None:
            with self.lock:
                table = self.families.setdefault(key, {})
        return table

    def count(self, lookups, missing):
        """Count lookups, of which the first lookup of each missing gap is a
        miss, as a later one is a hit once the caller stores the value."""
        with self.lock:
            self.misses += missing
            self.hits += lookups - missing

    def store(self, table, h, value):
        """value, kept in a family's table at gap h."""
        with self.lock:
            if self.currsize >= self.maxsize:
                oldest = next(t for t in self.families.values() if t)
                del oldest[next(iter(oldest))]
                self.currsize -= 1
            self.currsize += h not in table
            table[h] = value
        return value


_series_pass, _series_prop = _Memo(262144), _Memo(262144)

# The tip offsets of a sweep, shared while _sharing is active.
_SHARED_LAMS = ContextVar("shared_lams", default=())


@contextmanager
def _sharing(lams):
    """Within it, a kappa_prop miss at a gap also evaluates, in the same
    kernel call, each of the tip offsets lams, as floats, that the memo lacks
    at that gap. The sweep command enters it for its grid."""
    token = _SHARED_LAMS.set(tuple(dict.fromkeys(lams)))
    try:
        yield
    finally:
        _SHARED_LAMS.reset(token)


def _fill(h, truncation, passes=None, lam=None, props=None):
    """One kernel call at gap h: kappa_pass into the family table passes
    unless it is None, kappa_prop(lam) into props unless it is None, and
    under _sharing, with kappa_prop, every shared tip offset whose table
    lacks h. Returns the two values, None where not asked for. A sum that
    reaches the mode cap raises its TruncationError when it is one asked
    for; a shared one is not stored."""
    lams, tables = (), []
    if props is not None:
        lams = (lam,)
        for other in _SHARED_LAMS.get():
            table = _series_prop.family((other, truncation))
            if other != lam and h not in table:
                lams += (other,)
                tables.append(table)
    kpass, kprops = _drag_sums(h, passes is not None, lams, truncation)
    if passes is not None:
        kpass = _series_pass.store(passes, h, _value(kpass))
    if props is None:
        return kpass, None
    for table, value in zip(tables, kprops[1:]):
        if not isinstance(value, TruncationError):
            _series_prop.store(table, h, value)
    return kpass, _series_prop.store(props, h, _value(kprops[0]))


def _missing(memo, table, gaps):
    """The values of a family table at gaps, None where missing, and the
    missing gaps in order, each once, counted as memo lookups."""
    values = [table.get(h) for h in gaps]
    missing = {}
    if None in values:
        missing = dict.fromkeys(h for h, value in zip(gaps, values) if value is None)
    memo.count(len(gaps), len(missing))
    return values, missing


def _series_values(pass_gaps, prop_gaps, lam, truncation):
    """kappa_pass at each of pass_gaps and kappa_prop(lam) at each of
    prop_gaps, as two lists, from the memos, with one _fill per gap where
    either misses."""
    passes = props = None
    kp, kpr, pass_missing, prop_missing = [], [], {}, {}
    if pass_gaps:
        passes = _series_pass.family(truncation)
        kp, pass_missing = _missing(_series_pass, passes, pass_gaps)
    if prop_gaps:
        props = _series_prop.family((lam, truncation))
        kpr, prop_missing = _missing(_series_prop, props, prop_gaps)
    if not (pass_missing or prop_missing):
        return kp, kpr
    # Each missing gap's entry becomes its value.
    for h in {**pass_missing, **prop_missing}:
        want_pass, want_prop = h in pass_missing, h in prop_missing
        kpass, kprop = _fill(
            h, truncation, passes if want_pass else None, lam, props if want_prop else None
        )
        if want_pass:
            pass_missing[h] = kpass
        if want_prop:
            prop_missing[h] = kprop
    return (
        [pass_missing[h] if value is None else value for h, value in zip(pass_gaps, kp)],
        [prop_missing[h] if value is None else value for h, value in zip(prop_gaps, kpr)],
    )


def cache_clear():
    """Drop all memoized coefficient values (results are unaffected)."""
    _series_pass.cache_clear()
    _series_prop.cache_clear()


def _series_edge(bc):
    """The gap below which kappa_pass leaves the exact series. Every public
    function here reaches this, so a bc that is not a BoundaryCondition is a
    DomainError naming it."""
    if not isinstance(bc, BoundaryCondition):
        raise DomainError(f"bc must be a BoundaryCondition, got {bc!r}")
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


def _tip_offset(lam):
    """lam as a float, checked to be a finite real number > 0."""
    return _real("lam, the tip offset,", lam, 0, strict=True)


def _gap_error(shown):
    """The DomainError for a gap that is not a finite real number > 0, in the
    words geometry._real gives it at every scalar entry point."""
    return DomainError(f"h, the half-gap, must be a finite real number > 0, got {shown!r}")


def kappa_pass(h, bc, truncation=None):
    """Pair drag coefficient at half-gap h under the given wall model."""
    return kappa_arrays([h], bc, truncation)[0].item()


def kappa_prop(h, lam, bc, truncation=None):
    """Propulsion reduction factor at half-gap h: the no-slip series under
    both wall models (slip enters it only at O(beta)), frozen at its value
    at SERIES_GAP_FLOOR below the floor. lam is required."""
    return kappa_arrays([h], bc, truncation, _tip_offset(lam))[1].item()


def kappa_arrays(hs, bc, truncation=None, lam=None):
    """kappa_pass and kappa_prop at every gap of the array hs, in its shape.

    This is the one reader of the memoized series: kappa_pass, kappa_prop and
    coefficients are views of it at one gap. Gaps at or above the series edge
    read the memoized series, the gaps below it take the _below_edge
    continuation in one array expression, and the propulsion factor reads
    the memoized series once per gap, at max(h, SERIES_GAP_FLOOR); where
    either misses at a gap, one kernel call fills both. lam = None, as for a
    passive pair, which has no
    propulsion factor, gives kappa_prop = 0 without evaluating anything.
    A gap that is not a finite real number > 0, a bool, string or other
    non-number anywhere in a list, and a ragged nesting of lists are a
    DomainError worded as frame_from_gap words a bad gap. So is a lam that
    is not a finite real number > 0, under its own name.
    """
    try:
        array = np.asarray(hs)
    except ValueError:  # a ragged nesting, such as [0.5, [1.0]]
        raise _gap_error(hs) from None
    # numpy turns a bool among numbers into a number, so the elements of a
    # list are checked one by one; an ndarray's dtype speaks for them all.
    given = None if isinstance(hs, np.ndarray) else np.asarray(hs, dtype=object)
    if array.dtype.kind not in "iuf" or (given is not None and not all(map(_is_real, given.flat))):
        raise _gap_error(array.tolist() if given is None else given.tolist())
    hs = array.astype(float, copy=False)
    lam = None if lam is None else _tip_offset(lam)
    bad = array[~(np.isfinite(hs) & (hs > 0.0))]  # shown in the type given
    if bad.size:
        raise _gap_error(bad[0].item())
    truncation = _truncation(truncation)
    edge = _series_edge(bc)
    above = hs >= edge
    pass_gaps = hs[above].tolist()
    below = len(pass_gaps) < hs.size
    if below:
        pass_gaps.append(edge)  # the anchor of the continuation
    prop_gaps = [] if lam is None else np.maximum(hs, SERIES_GAP_FLOOR).ravel().tolist()
    kp_series, kpr = _series_values(pass_gaps, prop_gaps, lam, truncation)
    kp = np.empty_like(hs)
    if below:
        kp[~above] = _below_edge(kp_series.pop(), hs[~above], bc.beta)
    kp[above] = kp_series
    if lam is None:
        return kp, np.zeros_like(hs)
    return kp, np.array(kpr).reshape(hs.shape)


def net_propulsion(h, lam, f_p, bc, truncation=None):
    """Net inward thrust f_p (1 - kappa_prop), the drive left after the
    backflow each swimmer's forcing induces at its partner is paid for."""
    f_p = _real("f_p, the thrust magnitude,", f_p, 0)
    return f_p * (1.0 - kappa_prop(h, lam, bc, truncation))


def _provenance(h, bc):
    """The Provenance of the coefficients at gap h under bc: EXACT_SERIES
    when both come from a converged series evaluation at h itself, which is
    iff h is at or above the series edge."""
    exact = h >= _series_edge(bc)
    return Provenance.EXACT_SERIES if exact else Provenance.ASYMPTOTIC_MODEL


def coefficients(h, lam, bc, truncation=None):
    """Both coefficients at one gap with a combined provenance tag."""
    (kp,), (kpr,) = kappa_arrays([h], bc, truncation, lam)
    h = float(h)
    return DragCoefficients(h, kp.item(), kpr.item(), _provenance(h, bc))
