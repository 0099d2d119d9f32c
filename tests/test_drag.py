"""Wall models, the blended drag law, the coefficient cache and the
coefficient reader of inertial runs."""

import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swimcollide import drag
from swimcollide.drag import (
    SERIES_GAP_FLOOR,
    BoundaryCondition,
    Provenance,
    cache_clear,
    _series_pass,
    _series_prop,
    coefficients,
    kappa_arrays,
    kappa_pass,
    kappa_prop,
    net_propulsion,
)
from swimcollide.dynamics import (
    Mode,
    SwimmerScenario,
    _KappaTable,
    _segment_stops,
    default_h_floor,
    simulate,
)
from swimcollide.errors import DomainError
from swimcollide.geometry import frame_from_gap
from swimcollide.series import SeriesTruncation, passive_drag, propulsion_drag

NO_SLIP = BoundaryCondition.no_slip()
NAVIER = BoundaryCondition.navier(0.1)
TINY = BoundaryCondition.navier(1e-12)  # a slip length below the series floor
STOPS = [0.5, SERIES_GAP_FLOOR, 1e-7]  # the segment stops of a no-slip run from 0.5


class TestBoundaryCondition:
    def test_constructors(self):
        assert NO_SLIP.kind == "no_slip" and NO_SLIP.beta == 0.0
        assert NAVIER.kind == "navier" and NAVIER.beta == 0.1
        assert NAVIER.slips and not NO_SLIP.slips
        assert not BoundaryCondition.navier(0.0).slips

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "slippery"},
            {"kind": "navier", "beta": -0.1},
            {"kind": "navier", "beta": float("inf")},
            {"kind": "no_slip", "beta": 0.2},
            {"kind": "navier", "beta": "0.1"},
            {"kind": "navier", "beta": None},
            {"kind": "navier", "beta": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError, match="beta" if "beta" in kwargs else None):
            BoundaryCondition(**kwargs)

    @pytest.mark.parametrize("beta", ["0.1", None, True])
    def test_navier_does_not_coerce(self, beta):
        with pytest.raises(DomainError, match="^beta"):
            BoundaryCondition.navier(beta)


class TestPassiveBlend:
    def test_matches_series_above_slip_length(self):
        for h in (0.1, 0.5, 2.0):
            assert kappa_pass(h, NAVIER) == pytest.approx(
                passive_drag(h), rel=1e-14
            )

    def test_continuous_at_slip_length(self):
        beta = NAVIER.beta
        above = kappa_pass(beta * (1.0 + 1e-9), NAVIER)
        below = kappa_pass(beta * (1.0 - 1e-9), NAVIER)
        assert below == pytest.approx(above, rel=1e-7)

    def test_logarithmic_below_slip_length(self):
        # In the slip-regularized regime the drag grows like log(beta / h)
        # with the slope set by the anchor value at h = beta.
        anchor = kappa_pass(NAVIER.beta, NAVIER)
        hs = np.geomspace(1e-6, 1e-2, 9)
        ks = np.array([kappa_pass(h, NAVIER) for h in hs])
        slope = np.polyfit(np.log(1.0 / hs), ks, 1)[0]
        assert slope == pytest.approx(anchor, rel=1e-12)

    def test_zero_slip_length_is_no_slip(self):
        zero = BoundaryCondition.navier(0.0)
        for h in (1e-7, 1e-3, 0.5):
            assert kappa_pass(h, zero) == kappa_pass(h, NO_SLIP)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    def test_small_slip_limit_recovers_no_slip(self, h):
        tiny = BoundaryCondition.navier(1e-12)
        rel = abs(kappa_pass(h, tiny) - kappa_pass(h, NO_SLIP)) / kappa_pass(
            h, NO_SLIP
        )
        assert rel < 1e-8

    @pytest.mark.parametrize("kink", [TINY.beta, SERIES_GAP_FLOOR], ids=["beta", "floor"])
    def test_continuous_below_the_floor(self, kink):
        # Under a slip length below the series floor the no-slip continuation
        # carries the drag down to beta, and the log law takes over there.
        above = kappa_pass(kink * (1.0 + 1e-9), TINY)
        below = kappa_pass(kink * (1.0 - 1e-9), TINY)
        assert below == pytest.approx(above, rel=1e-7)
        anchor = kappa_pass(SERIES_GAP_FLOOR, NO_SLIP) * SERIES_GAP_FLOOR / TINY.beta
        assert kappa_pass(TINY.beta / 10.0, TINY) == pytest.approx(
            anchor * (1.0 + np.log(10.0)), rel=1e-12
        )

    def test_slip_reduces_drag_in_the_gap(self):
        assert kappa_pass(1e-4, NAVIER) < kappa_pass(1e-4, NO_SLIP)

    def test_no_slip_continuation_below_floor(self):
        floor = SERIES_GAP_FLOOR
        anchor = kappa_pass(floor, NO_SLIP)
        assert kappa_pass(floor / 10.0, NO_SLIP) == pytest.approx(
            anchor * 10.0, rel=1e-12
        )
        # Continuous across the floor.
        assert kappa_pass(floor * (1.0 - 1e-12), NO_SLIP) == pytest.approx(
            anchor, rel=1e-9
        )

    def test_provenance(self):
        # kappa_pass is exact at and above the series edge max(beta, floor),
        # and a model just below it.
        def tag(h, bc):
            return coefficients(h, 1.0, bc).provenance

        exact, model = Provenance.EXACT_SERIES, Provenance.ASYMPTOTIC_MODEL
        assert tag(NAVIER.beta, NAVIER) is exact
        assert tag(NAVIER.beta * (1.0 - 1e-9), NAVIER) is model
        assert tag(SERIES_GAP_FLOOR, NO_SLIP) is exact
        assert tag(SERIES_GAP_FLOOR * (1.0 - 1e-9), NO_SLIP) is model
        assert tag(SERIES_GAP_FLOOR, TINY) is exact
        assert tag(TINY.beta * 10.0, TINY) is model

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(DomainError):
            kappa_pass(0.0, NO_SLIP)


class TestPropulsionFactor:
    def test_frozen_below_floor(self):
        at_floor = kappa_prop(SERIES_GAP_FLOOR, 1.0, NO_SLIP)
        assert kappa_prop(SERIES_GAP_FLOOR / 100.0, 1.0, NO_SLIP) == at_floor

    def test_same_for_both_wall_models(self):
        assert kappa_prop(0.1, 1.0, NAVIER) == kappa_prop(0.1, 1.0, NO_SLIP)

    @given(
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_net_propulsion_nonnegative(self, h, lam, f_p):
        drive = net_propulsion(h, lam, f_p, NO_SLIP)
        assert drive >= 0.0
        assert drive == pytest.approx(
            f_p * (1.0 - kappa_prop(h, lam, NO_SLIP)), rel=1e-12
        )

    def test_net_propulsion_rejects_negative_thrust(self):
        with pytest.raises(DomainError, match="thrust"):
            net_propulsion(0.5, 1.0, -1.0, NO_SLIP)


def bad_gap(shown):
    """The whole message of the DomainError for the gap shown, as a regex."""
    return f"^{re.escape(f'h, the half-gap, must be a finite real number > 0, got {shown!r}')}$"


class TestInputTypes:
    """The public drag functions take real numbers only, as SwimmerScenario
    does: a bool, a string or a missing value is a DomainError naming the
    argument, never coerced."""

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: kappa_pass(h, NO_SLIP),
            lambda h: kappa_prop(h, 1.0, NO_SLIP),
            lambda h: net_propulsion(h, 1.0, 1.0, NO_SLIP),
            lambda h: coefficients(h, 1.0, NO_SLIP),
            lambda h: kappa_arrays([h], NO_SLIP),
        ],
        ids=["kappa_pass", "kappa_prop", "net_propulsion", "coefficients", "kappa_arrays"],
    )
    def test_gap(self, call, bad):
        # Each entry point passes the one gap on to kappa_arrays as [h].
        with pytest.raises(DomainError, match=bad_gap([bad])):
            call(bad)

    @pytest.mark.parametrize("hs", [[0.5, True], (True,), [[0.5, False]], [1, True]])
    def test_bool_among_gaps(self, hs):
        # numpy would turn these lists into numbers: [0.5, True] into [0.5, 1.0].
        with pytest.raises(DomainError, match=bad_gap(list(hs))):
            kappa_arrays(hs, NO_SLIP)

    @pytest.mark.parametrize("hs", [[0.5, [1.0]], [[0.5], [1.0, 2.0]], ([0.5, 1.0], 2.0)])
    def test_ragged_gaps(self, hs):
        # numpy refuses these lists with a ValueError of its own.
        with pytest.raises(DomainError, match=bad_gap(hs)):
            kappa_arrays(hs, NO_SLIP)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 0, -2])
    def test_gap_rule_reads_as_at_the_frame(self, bad):
        # kappa_arrays used to word the rule its own way ("half-gap must be
        # finite and positive"), so one bad gap read differently by entry point.
        with pytest.raises(DomainError) as at_frame:
            frame_from_gap(bad)
        for call in (
            lambda: kappa_pass(bad, NO_SLIP),
            lambda: kappa_arrays(np.array([1, 2, bad]), NO_SLIP),
        ):
            with pytest.raises(DomainError, match=bad_gap(bad)) as caught:
                call()
            assert str(caught.value) == str(at_frame.value)

    @pytest.mark.parametrize("bad", [None, True, "1", float("nan"), float("inf"), 0.0, -1.0])
    def test_kappa_prop_requires_a_tip_offset(self, bad):
        with pytest.raises(DomainError, match="^lam, the tip offset, must be"):
            kappa_prop(0.5, bad, NO_SLIP)

    @pytest.mark.parametrize("bad", [True, "1", float("nan")])
    @pytest.mark.parametrize(
        "call",
        [
            lambda lam: kappa_arrays([0.5], NO_SLIP, lam=lam),
            lambda lam: coefficients(0.5, lam, NO_SLIP),
            lambda lam: _KappaTable(NO_SLIP, None, lam, STOPS),
        ],
        ids=["kappa_arrays", "coefficients", "kappa_table"],
    )
    def test_tip_offset_when_given(self, call, bad):
        with pytest.raises(DomainError, match="^lam, the tip offset, must be"):
            call(bad)

    @pytest.mark.parametrize("bad", ["no_slip", None, 0.1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda bc: kappa_pass(0.5, bc),
            lambda bc: kappa_prop(0.5, 1.0, bc),
            lambda bc: net_propulsion(0.5, 1.0, 1.0, bc),
            lambda bc: coefficients(0.5, 1.0, bc),
            lambda bc: kappa_arrays([0.5], bc),
            lambda bc: _KappaTable(bc, None, None, STOPS),
        ],
        ids=[
            "kappa_pass",
            "kappa_prop",
            "net_propulsion",
            "coefficients",
            "kappa_arrays",
            "kappa_table",
        ],
    )
    def test_boundary_condition(self, call, bad):
        with pytest.raises(DomainError, match="^bc must be a BoundaryCondition, got"):
            call(bad)

    @pytest.mark.parametrize("bad", [0, 1e-8, "1e-8", False])
    @pytest.mark.parametrize(
        "call",
        [
            lambda tr: kappa_pass(0.5, NO_SLIP, tr),
            lambda tr: kappa_prop(0.5, 1.0, NO_SLIP, tr),
            lambda tr: net_propulsion(0.5, 1.0, 1.0, NO_SLIP, tr),
            lambda tr: coefficients(0.5, 1.0, NO_SLIP, tr),
            lambda tr: kappa_arrays([0.5], NO_SLIP, tr),
            lambda tr: _KappaTable(NO_SLIP, tr, None, STOPS),
        ],
        ids=[
            "kappa_pass",
            "kappa_prop",
            "net_propulsion",
            "coefficients",
            "kappa_arrays",
            "kappa_table",
        ],
    )
    def test_truncation(self, call, bad):
        # A falsy value used to select the default, a number to fail with an
        # AttributeError on tail_tol.
        message = "^truncation must be a SeriesTruncation or None, got"
        with pytest.raises(DomainError, match=message):
            call(bad)

    @pytest.mark.parametrize("bad", [True, "2", None, float("nan"), float("inf"), -1.0])
    def test_thrust(self, bad):
        with pytest.raises(DomainError, match="^f_p, the thrust magnitude, must be"):
            net_propulsion(0.5, 1.0, bad, NO_SLIP)

    def test_numpy_and_integer_values_are_real(self):
        assert kappa_pass(np.float64(0.5), NO_SLIP) == kappa_pass(0.5, NO_SLIP)
        assert kappa_pass(1, NO_SLIP) == kappa_pass(1.0, NO_SLIP)
        assert kappa_prop(0.5, np.int64(1), NO_SLIP) == kappa_prop(0.5, 1.0, NO_SLIP)
        assert net_propulsion(0.5, 1.0, 2, NO_SLIP) == net_propulsion(0.5, 1.0, 2.0, NO_SLIP)


class TestCoefficients:
    def test_combined_provenance(self):
        assert coefficients(0.5, 1.0, NAVIER).provenance is Provenance.EXACT_SERIES
        assert (
            coefficients(0.01, 1.0, NAVIER).provenance
            is Provenance.ASYMPTOTIC_MODEL
        )
        assert coefficients(0.01, 1.0, NO_SLIP).provenance is Provenance.EXACT_SERIES
        assert (
            coefficients(SERIES_GAP_FLOOR / 2.0, 1.0, NO_SLIP).provenance
            is Provenance.ASYMPTOTIC_MODEL
        )

    def test_fields(self):
        c = coefficients(0.5, 1.0, NO_SLIP)
        assert c.h == 0.5
        assert c.kappa_pass == kappa_pass(0.5, NO_SLIP)
        assert c.kappa_prop == kappa_prop(0.5, 1.0, NO_SLIP)


class TestArrays:
    # Nodes on both sides of beta = 0.1, of the series floor and of beta = 1e-12.
    HS = np.array(
        [
            2.0,
            0.5,
            0.1 * (1.0 + 1e-9),
            0.1,
            0.1 * (1.0 - 1e-9),
            1e-3,
            SERIES_GAP_FLOOR * (1.0 + 1e-9),
            SERIES_GAP_FLOOR,
            SERIES_GAP_FLOOR * (1.0 - 1e-9),
            1e-9,
            1e-12 * (1.0 + 1e-9),
            1e-13,
        ]
    )

    @pytest.mark.parametrize(
        "bc", [NO_SLIP, NAVIER, TINY], ids=["no_slip", "navier", "tiny_navier"]
    )
    def test_match_the_scalar_coefficients(self, bc):
        cache_clear()
        kp, kpr = kappa_arrays(self.HS.reshape(3, 4), bc, lam=0.7)
        assert kp.shape == kpr.shape == (3, 4)
        want_kp = [kappa_pass(h, bc) for h in self.HS]
        want_kpr = [kappa_prop(h, 0.7, bc) for h in self.HS]
        assert kp.ravel().tolist() == want_kp
        assert kpr.ravel().tolist() == want_kpr

    def test_no_propulsion_factor_without_lam(self):
        _, kpr = kappa_arrays(self.HS, NAVIER)
        assert np.all(kpr == 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan")])
    def test_rejects_nonpositive_gaps(self, bad):
        with pytest.raises(DomainError):
            kappa_arrays(np.array([0.5, bad]), NO_SLIP)


class TestCache:
    def test_memoization_is_transparent(self):
        cache_clear()
        cold = kappa_pass(0.321, NO_SLIP)
        warm = kappa_pass(0.321, NO_SLIP)
        cache_clear()
        recold = kappa_pass(0.321, NO_SLIP)
        assert cold == warm == recold

    def test_thread_safety(self):
        cache_clear()
        hs = np.geomspace(1e-3, 1.0, 40)
        expected = [kappa_pass(h, NO_SLIP) for h in hs]
        cache_clear()

        def worker(h):
            return kappa_pass(h, NO_SLIP)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                got = list(pool.map(worker, hs))
                assert got == expected

    @staticmethod
    def count_kernel_calls(monkeypatch):
        calls = []
        kernel = drag._drag_sums

        def counting(h, force, lams, truncation):
            calls.append((h, force, lams))
            return kernel(h, force, lams, truncation)

        monkeypatch.setattr(drag, "_drag_sums", counting)
        return calls

    def test_both_coefficients_from_one_kernel_call(self, monkeypatch):
        # Above beta a gap needs both coefficients, below it only kappa_prop,
        # and the continuation needs kappa_pass at beta, its anchor.
        cache_clear()
        calls = self.count_kernel_calls(monkeypatch)
        kappa_arrays([0.5, 0.05], NAVIER, lam=0.7)
        assert calls == [(0.5, True, (0.7,)), (0.1, True, ()), (0.05, False, (0.7,))]
        assert _series_pass.cache_info()[:2] == (0, 2)
        assert _series_prop.cache_info()[:2] == (0, 2)
        kappa_arrays([0.5, 0.05, 0.5], NAVIER, lam=0.7)
        assert len(calls) == 3
        # Each value and the anchor is one lookup, now a hit.
        assert _series_pass.cache_info().hits == 3 and _series_prop.cache_info().hits == 3

    def test_sharing_fills_every_tip_offset_of_a_miss(self, monkeypatch):
        hs = [0.5, 0.05, 1e-5]
        cache_clear()
        want = {lam: kappa_arrays(hs, NAVIER, lam=lam) for lam in (0.3, 0.7, 2.0)}
        cache_clear()
        calls = self.count_kernel_calls(monkeypatch)
        with drag._sharing([0.3, 0.7, 2.0]):
            got = {lam: kappa_arrays(hs, NAVIER, lam=lam) for lam in (0.7, 0.3, 2.0)}
        shared = (0.7, 0.3, 2.0)
        assert calls == [
            (0.5, True, shared),
            (0.1, True, ()),
            (0.05, False, shared),
            (1e-5, False, shared),
        ]
        for lam in want:
            assert np.array_equal(got[lam][0], want[lam][0])
            assert np.array_equal(got[lam][1], want[lam][1])
        # The first call's 3 gaps missed; the other tip offsets found them.
        assert _series_prop.cache_info()[:2] == (6, 3)
        assert _series_prop.cache_info().currsize == 9
        # Outside the context, a miss evaluates its own tip offset only.
        kappa_arrays([0.2], NAVIER, lam=0.3)
        assert calls[-1] == (0.2, True, (0.3,))

    def test_a_shared_sum_at_the_mode_cap_is_not_kept(self, monkeypatch):
        # At tail_tol = 1e-14 the floor is beyond the cap for lam = 1e-3 but
        # not for lam = 1: the run that asked for lam = 1 gets its value.
        truncation = SeriesTruncation(tail_tol=1e-14)
        cache_clear()
        with drag._sharing([1e-3, 1.0]):
            kpr = kappa_prop(SERIES_GAP_FLOOR, 1.0, NO_SLIP, truncation)
        assert kpr == propulsion_drag(SERIES_GAP_FLOOR, 1.0, truncation)
        assert _series_prop.cache_info().currsize == 1

    def test_the_memo_keeps_its_bound(self, monkeypatch):
        monkeypatch.setattr(_series_pass, "maxsize", 3)
        cache_clear()
        hs = [0.5, 0.4, 0.3, 0.2, 0.1]
        want = [passive_drag(h) for h in hs]
        assert kappa_arrays(hs, NO_SLIP)[0].tolist() == want
        assert _series_pass.cache_info() == (0, 5, 3, 3)
        # The oldest values made room: the newest are still there.
        kappa_arrays([0.1, 0.2, 0.3], NO_SLIP)
        assert _series_pass.cache_info().hits == 3


def kappa_reader(bc, truncation=None, lam=None, h0=100.0):
    """The coefficient reader of an inertial run from h0 down to bc's default
    floor, which dynamics builds for every inertial run."""
    sc = SwimmerScenario(mode=Mode.ACTIVE, bc=bc, h0=h0)
    return _KappaTable(bc, truncation, lam, _segment_stops(sc, default_h_floor(bc)))


def _lebesgue(r):
    """The largest sum_j |l_j(t)| of the Lagrange basis on the edges 0, ...,
    7 over the panel [r, r + 1]: the factor by which an interpolant on that
    panel can carry a scatter in the edge values."""
    basis = lambda t, j: math.prod((t - i) / (j - i) for i in range(8) if i != j)
    return max(sum(abs(basis(t, j)) for j in range(8)) for t in np.linspace(r, r + 1.0, 201))


LEBESGUE = np.array([_lebesgue(r) for r in range(7)])  # 6.93 at the ends, 1.49 centred


def scatter(values):
    """The series' scatter in ln kappa over a run of gaps evenly spaced in
    ln h: the largest residual of a value against the least-squares
    polynomial of degree 8 through it and its 20 nearest neighbours."""
    vander = np.vander(np.arange(-10.0, 11.0) / 10.0, 9)
    residual = np.eye(21)[10] - (vander @ np.linalg.pinv(vander))[10]
    return np.abs(np.convolve(np.log(values), residual[::-1], mode="valid")).max()


class TestKappaTable:
    """The reader of an inertial run against the series, from h0 = 100 down,
    on 2001 gaps per scenario. Its stated error in ln kappa is the panel's
    estimate plus (Lebesgue constant of the panel + 1) times the series'
    scatter: the interpolant carries the scatter of its edge values
    amplified by at most the Lebesgue constant, and the series at the gap
    adds its own. Each worst error is also held to that of the Chebyshev
    tables the reader replaced on the same gaps, or for kappa_prop to the
    1.6e-11 they were credited with where that is larger."""

    TAIL_TOL = SeriesTruncation().tail_tol
    # The worst kappa_prop error of the replaced tables on these gaps, and
    # the 1.6e-11 they were credited with on fewer gaps.
    TABLE_PROP = {0.01: 3.0e-11, 1.0: 1.52e-11, 5.0: 1.14e-11, 100.0: 1.47e-11}
    TABLE_CREDIT = 1.6e-11

    @staticmethod
    def interior(lo):
        """2001 gaps strictly inside [lo, 100], evenly spaced in ln h."""
        return np.geomspace(lo, 100.0, 2003)[1:-1]

    def check_against_series(self, at, column, series, hs):
        """Values and slopes of one coefficient (column 0 kappa_pass, 1
        kappa_prop) against series, an array function of the gaps."""
        reads = np.array([at(h, slope=True) for h in hs.tolist()])
        values, slopes = reads[:, 2 * column], reads[:, 2 * column + 1]
        exact = series(hs)
        assert np.all(np.abs(values / exact - 1.0) <= self.TAIL_TOL)
        located = [at._locate(h) for h in hs.tolist()]
        estimates = np.array([record[4][column] for _, _, record in located])
        panels = np.array([min(int(t), 6) for t, _, _ in located])
        stated = estimates + (LEBESGUE[panels] + 1.0) * scatter(exact)
        error = np.abs(np.log(values) - np.log(exact))
        assert np.all(error <= stated)
        step = 1e-4 * hs
        difference = (series(hs + step) - series(hs - step)) / (2.0 * step)
        # The slope is compared on the scale kappa / h of d kappa / d ln h:
        # where kappa_prop is nearly flat, at the smallest gaps, its slope
        # is 1e-7 of that scale and a difference quotient of the series
        # is all rounding there.
        assert np.all(np.abs(slopes - difference) * hs <= 1e-6 * exact)
        return error

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1])
    def test_kappa_pass_matches_the_series(self, beta):
        bc = BoundaryCondition.navier(beta)
        at = kappa_reader(bc)
        hs = self.interior(max(beta, SERIES_GAP_FLOOR))
        assert all(at(h, slope=True)[2:] == (0.0, 0.0) for h in hs[::100].tolist())
        error = self.check_against_series(at, 0, lambda h: kappa_arrays(h, bc)[0], hs)
        # The worst error of the Chebyshev table this reader replaced, on
        # 2001 gaps of the same range, was 4.76e-13 (no slip).
        assert error.max() < 4.74e-13

    @pytest.mark.parametrize("lam", [0.01, 1.0, 5.0, 100.0])
    def test_kappa_prop_matches_the_series(self, lam):
        at = kappa_reader(NO_SLIP, lam=lam)
        hs = self.interior(SERIES_GAP_FLOOR)
        series = lambda h: kappa_arrays(h, NO_SLIP, lam=lam)[1]
        error = self.check_against_series(at, 1, series, hs)
        # Measured: 2.65e-11, 1.35e-11, 1.04e-11 and 1.51e-11. At lam = 0.01
        # the series alone scatters by 2.1e-11 here.
        assert error.max() <= max(self.TABLE_PROP[lam], self.TABLE_CREDIT)

    @pytest.mark.parametrize("lam", [0.01, 100.0])
    def test_kappa_prop_reads_the_series_at_the_bottom(self, lam):
        # On the three panels of the last stencil above SERIES_GAP_FLOOR
        # that lie below its centre kappa_prop gives the series, bit for
        # bit, where the interpolant would carry up to 6.9 times the
        # series' scatter; kappa_pass stays interpolated there.
        at = kappa_reader(NO_SLIP, lam=lam)
        lo, hi, n, base, spacing = at.segments[0]
        assert lo == SERIES_GAP_FLOOR
        for h in np.geomspace(lo, at.edges[base + n - 3], 9)[1:].tolist():
            certified = at._locate(h)[2][3]
            assert certified == [True, False]
            assert at(h)[1] == kappa_prop(h, lam, NO_SLIP)
        assert at._locate(at.edges[base + n - 3] * 1.01)[2][3] == [True, True]

    def test_tight_tolerance_takes_the_series(self):
        # At tail_tol = 1e-13 the panels whose estimate exceeds it give the
        # series, bit for bit; the others stay within their estimate.
        tight = SeriesTruncation(tail_tol=1e-13)
        sc = SwimmerScenario(mode=Mode.ACTIVE, bc=NAVIER, h0=0.5, mass=0.1)
        traj = simulate(sc, t_max=1.0, truncation=tight)
        at = _KappaTable(NAVIER, tight, 1.0, _segment_stops(sc, default_h_floor(NAVIER)))
        uncertified = 0
        assert len(traj.points) > 2
        for p in traj.points:
            certified = at._locate(p.h)[2][3]
            assert (p.kappa_pass, p.kappa_prop) == at(p.h)
            if not certified[0]:
                assert p.kappa_pass == kappa_pass(p.h, NAVIER, tight)
            if not certified[1]:
                assert p.kappa_prop == kappa_prop(p.h, 1.0, NAVIER, tight)
            uncertified += not all(certified)
        assert uncertified > 0

    @pytest.mark.parametrize("bc", [NO_SLIP, NAVIER, TINY])
    def test_ends_and_outside_give_the_series_or_continuation(self, bc):
        at = kappa_reader(bc, lam=1.0, h0=0.5)
        edge = max(bc.beta, SERIES_GAP_FLOOR)
        # The stops are edges: at the series edge and at h0 the values are
        # the series', kept at the edge, as is kappa_prop at SERIES_GAP_FLOOR.
        for h in [edge, 0.5]:
            assert at(h) == at(h, slope=True)[::2] == (kappa_pass(h, bc), kappa_prop(h, 1.0, bc))
        assert at(SERIES_GAP_FLOOR)[1] == kappa_prop(SERIES_GAP_FLOOR, 1.0, bc)
        # Above h0 the grid goes on: the values are the interpolant's.
        for h in [0.75, 150.0]:
            kp, kpr = at(h)
            assert kp == pytest.approx(kappa_pass(h, bc), rel=self.TAIL_TOL, abs=0.0)
            assert kpr == pytest.approx(kappa_prop(h, 1.0, bc), rel=self.TAIL_TOL, abs=0.0)
        # Below the edge kappa_pass is the closed form, in math.log where
        # kappa_arrays uses numpy's log: the two agree to 2 ulps.
        ulps = lambda a, b: abs(a - b) / math.ulp(b)
        for h in [edge / 3.0, SERIES_GAP_FLOOR / 7.0, 1e-12]:
            assert at(h)[0] == at(h, slope=True)[0]
            assert ulps(at(h)[0], kappa_pass(h, bc)) <= 2
        # Below SERIES_GAP_FLOOR kappa_prop is frozen, with zero slope.
        for h in [SERIES_GAP_FLOOR / 7.0, 1e-12]:
            assert at(h)[1] == at(h, slope=True)[2] == kappa_prop(h, 1.0, bc)
            assert at(h, slope=True)[3] == 0.0

    def test_no_range_above_the_top(self):
        # A slip length above h0 leaves kappa_pass no grid inside [floor,
        # h0]: every gap below beta takes the continuation, and a gap above
        # beta reads the grid continued up from h0, whose panels across
        # the kink cannot certify tail_tol and give the series.
        bc = BoundaryCondition.navier(100.0)
        at = kappa_reader(bc, h0=0.5)
        cache_clear()
        for h in [50.0, 1.0, 0.5, SERIES_GAP_FLOOR / 7.0]:
            assert at(h) == at(h, slope=True)[::2]
            assert abs(at(h)[0] - kappa_pass(h, bc)) <= 2 * math.ulp(kappa_pass(h, bc))
            assert at(h)[1] == 0.0
        # Only the anchor at beta was evaluated.
        assert _series_pass.cache_info().misses == 1
        # The panel across beta gives the series; the one above it serves.
        for h in [100.0, 101.0]:
            assert at(h) == at(h, slope=True)[::2] == (kappa_pass(h, bc), 0.0)
        assert at(150.0)[0] == pytest.approx(kappa_pass(150.0, bc), rel=self.TAIL_TOL, abs=0.0)

    @pytest.mark.parametrize("tail_tol", [None, 1e-13], ids=["above_the_top", "fallback"])
    def test_values_read_the_series_once(self, tail_tol):
        truncation = SeriesTruncation(tail_tol=tail_tol) if tail_tol else SeriesTruncation()
        at = kappa_reader(NO_SLIP, truncation, lam=1.0, h0=0.5)
        if tail_tol is None:
            # A gap far above h0 fills its own panel's 8 edges and no more.
            cache_clear()
            kp, kpr = at(1e4)
            assert _series_pass.cache_info().misses == _series_prop.cache_info().misses == 8
            assert kp == pytest.approx(kappa_pass(1e4, NO_SLIP), rel=self.TAIL_TOL, abs=0.0)
            return
        # On a panel whose kappa_pass cannot certify the tolerance, a read
        # costs one kernel call at h, which fills both coefficients there,
        # once its block is filled; the slope comes from the interpolant, at
        # no more cost.
        h = 0.37
        at(h)
        assert at._locate(h)[2][3] == [False, True]
        cache_clear()
        values = at(h)
        assert _series_pass.cache_info().misses == _series_prop.cache_info().misses == 1
        assert values[0] == kappa_pass(h, NO_SLIP, truncation)
        assert values[1] == pytest.approx(kappa_prop(h, 1.0, NO_SLIP, truncation), rel=1e-13)
        assert all(np.isfinite(at(h, slope=True)))
        assert _series_pass.cache_info().misses == _series_prop.cache_info().misses == 1
