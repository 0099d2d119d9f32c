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
one gap. Massless runs, rhs, the quadrature, the decay-rate bound, the drag
command and the sweep columns all read the series through it.

kappa_table is the one other path. It serves inertial runs, whose Radau
steps ask for the coefficients thousands of times at gaps that never
repeat, and for their slopes at each Jacobian. It tabulates ln kappa_pass on
[series edge, TABLE_TOP] and ln kappa_prop on [SERIES_GAP_FLOOR, TABLE_TOP]
as Chebyshev interpolants in ln h through the memoized series, with a bound
measured against the series at build time, and gives the h-derivatives the
Jacobian needs. A table whose bound exceeds tail_tol, or whose range is
empty, gives the memoized series instead, as every table does above
TABLE_TOP, with slopes from a difference of the series that only the
Jacobian pays for. Only inertial simulate uses the tables.
"""

import math
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
    "kappa_table",
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


def _series_at(h, lam, truncation):
    """_series_values at one gap: kappa_pass for lam None, else
    kappa_prop(lam)."""
    if lam is None:
        table = _series_pass.family(truncation)
        value = table.get(h)
        _series_pass.count(1, value is None)
        return _fill(h, truncation, passes=table)[0] if value is None else value
    table = _series_prop.family((lam, truncation))
    value = table.get(h)
    _series_prop.count(1, value is None)
    return _fill(h, truncation, lam=lam, props=table)[1] if value is None else value


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


def _below_edge_slope(anchor, h, beta):
    """d/dh of _below_edge at one gap below the series edge."""
    return -anchor * max(beta, SERIES_GAP_FLOOR) / (max(h, beta) * h)


TABLE_TOP = 100.0  # the tables end here; larger gaps go to the series
_TABLE_NODES = 96  # Chebyshev nodes, so the interpolant has degree 95
_TABLE_TAIL = 8  # trailing coefficients whose summed size enters the bound
_TABLE_K = np.arange(_TABLE_NODES)
_TABLE_THETA = np.pi * (_TABLE_K + 0.5) / _TABLE_NODES
# Values at the first-kind nodes x_j = cos(theta_j) to coefficients (the
# discrete cosine transform, with the constant term halved).
_TABLE_DCT = (2.0 / _TABLE_NODES) * np.cos(np.outer(_TABLE_K, _TABLE_THETA))
_TABLE_DCT[0] *= 0.5
# Angles of the points where the bound is measured: the n - 1 extrema of
# T_n, which interleave the nodes.
_TABLE_CHECK = np.pi * np.arange(1, _TABLE_NODES) / _TABLE_NODES


class _ChebyshevTable:
    """ln series(h) on [lo, hi] as a degree-95 Chebyshev interpolant in u = ln h.

    series(h) gives kappa at one gap. The interpolant and its derivative sit
    side by side in one (n x 2) matrix, so an evaluation is one row of
    T_k(x) = cos(k acos x) times it. bound is the larger of the measured
    relative error at the interleaved check points and the summed size of
    the last _TABLE_TAIL coefficients, or inf for an empty range (lo >= hi).
    A table whose bound exceeds tail_tol serves the series at every gap
    >= lo, as every table does from hi up.
    """

    def __init__(self, series, lo, hi, tail_tol):
        self.series, self.lo, self.hi = series, lo, hi
        self.bound = math.inf
        if lo < hi:
            self.mid, self.half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
            at = lambda x: np.log([series(h) for h in np.exp(self.mid + self.half * x).tolist()])
            c = _TABLE_DCT @ at(np.cos(_TABLE_THETA))
            self.matrix = np.column_stack([c, np.append(np.polynomial.chebyshev.chebder(c), 0.0)])
            fit = np.cos(np.outer(_TABLE_CHECK, _TABLE_K)) @ c
            measured = np.max(np.abs(np.expm1(fit - at(np.cos(_TABLE_CHECK)))))
            self.bound = float(max(measured, np.sum(np.abs(c[-_TABLE_TAIL:]))))
        if self.bound > tail_tol:
            self.hi = lo

    def __call__(self, h, slope=False):
        """(kappa,) at one gap h >= lo, or (kappa, dkappa/dh) with slope, as
        Python floats: the table's strictly inside it; the series at lo (with
        the table's end slope) and from hi up (with a difference of the
        series, paid only when slope is asked for)."""
        if h >= self.hi:
            kappa = self.series(h)
            return (kappa, self._series_slope(h)) if slope else (kappa,)
        x = max((math.log(h) - self.mid) / self.half, -1.0)
        g, dg = (np.cos(_TABLE_K * math.acos(x)) @ self.matrix).tolist()
        kappa = self.series(h) if h == self.lo else math.exp(g)
        return (kappa, kappa * dg / (self.half * h)) if slope else (kappa,)

    def _series_slope(self, h):
        """dkappa/dh at h >= lo from the series: a central difference over
        1e-4 h, one-sided where it would read below lo."""
        step = 1e-4 * h
        if h - step >= self.lo:
            return (self.series(h + step) - self.series(h - step)) / (2.0 * step)
        return (self.series(h + step) - self.series(self.lo)) / (h + step - self.lo)


def kappa_table(bc, truncation=None, lam=None):
    """kappa_pass and kappa_prop at one gap, with their h-derivatives on
    request, from Chebyshev tables of the series built for one run.

    ln kappa_pass is tabulated on [series edge, TABLE_TOP] and ln kappa_prop
    on [SERIES_GAP_FLOOR, TABLE_TOP], each by _ChebyshevTable from the
    memoized series. Each table decides alone whether its interpolant
    serves: one whose bound exceeds tail_tol, or whose range is empty (an
    edge at or above TABLE_TOP), gives the series from its low end up; the
    choice depends on the inputs alone. This returns at(h, slope=False),
    giving (kappa_pass, kappa_prop), or with slope (kappa_pass,
    dkappa_pass/dh, kappa_prop, dkappa_prop/dh). Strictly inside a serving
    table the values are the table's, within its bound of the series; at
    its ends, above TABLE_TOP and in a table that does not serve they are
    the series. Below the edge kappa_pass takes the _below_edge
    continuation, and below SERIES_GAP_FLOOR kappa_prop stays frozen.
    lam = None, as for a passive pair, builds no kappa_prop table and gives
    kappa_prop = 0.
    """
    truncation = _truncation(truncation)
    lam = None if lam is None else _tip_offset(lam)
    edge = _series_edge(bc)
    pass_series = lambda h: _series_at(h, None, truncation)
    pass_table = _ChebyshevTable(pass_series, edge, TABLE_TOP, truncation.tail_tol)
    prop_table = None
    if lam is not None:
        prop_series = lambda h: _series_at(h, lam, truncation)
        prop_table = _ChebyshevTable(prop_series, SERIES_GAP_FLOOR, TABLE_TOP, truncation.tail_tol)
    anchor = pass_series(edge)

    def at(h, slope=False):
        if h >= edge:
            kp = pass_table(h, slope)
        else:
            kp = (float(_below_edge(anchor, h, bc.beta)),)
            kp += (_below_edge_slope(anchor, h, bc.beta),) if slope else ()
        if prop_table is None:
            return kp + (0.0, 0.0)[: 1 + slope]
        if h < SERIES_GAP_FLOOR:
            return kp + (prop_series(SERIES_GAP_FLOOR), 0.0)[: 1 + slope]
        return kp + prop_table(h, slope)

    return at


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


def coefficients(h, lam, bc, truncation=None):
    """Both coefficients at one gap with a combined provenance tag.

    The tag is EXACT_SERIES only when both came from a converged series
    evaluation at the actual gap, which is at or above the series edge.
    """
    (kp,), (kpr,) = kappa_arrays([h], bc, truncation, lam)
    h = float(h)
    exact = h >= _series_edge(bc)
    return DragCoefficients(
        h=h,
        kappa_pass=kp.item(),
        kappa_prop=kpr.item(),
        provenance=Provenance.EXACT_SERIES if exact else Provenance.ASYMPTOTIC_MODEL,
    )
