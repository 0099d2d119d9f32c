"""Wall models, the blended drag law, the coefficient cache and the
Chebyshev coefficient tables."""

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
    TABLE_TOP,
    _series_pass,
    _series_prop,
    coefficients,
    kappa_arrays,
    kappa_pass,
    kappa_prop,
    kappa_table,
    net_propulsion,
)
from swimcollide.errors import DomainError
from swimcollide.geometry import frame_from_gap
from swimcollide.series import SeriesTruncation, passive_drag, propulsion_drag

NO_SLIP = BoundaryCondition.no_slip()
NAVIER = BoundaryCondition.navier(0.1)
TINY = BoundaryCondition.navier(1e-12)  # a slip length below the series floor


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
            lambda lam: kappa_table(NO_SLIP, lam=lam),
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
            lambda bc: kappa_table(bc),
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
            lambda tr: kappa_table(NO_SLIP, tr),
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


class TestKappaTable:
    TAIL_TOL = SeriesTruncation().tail_tol

    @staticmethod
    def interior(lo):
        """101 gaps strictly inside [lo, TABLE_TOP], evenly spaced in ln h."""
        return np.geomspace(lo, TABLE_TOP, 103)[1:-1]

    def check_against_series(self, series, values, slopes, hs):
        for h, value, slope in zip(hs, values, slopes):
            exact = series(h)
            assert abs(value / exact - 1.0) <= self.TAIL_TOL
            step = 1e-4 * h
            difference = (series(h + step) - series(h - step)) / (2.0 * step)
            # The slope is compared on the scale kappa / h of d kappa / d ln h:
            # where kappa_prop is nearly flat, at the smallest gaps, its slope
            # is 1e-7 of that scale and a difference quotient of the series
            # is all rounding there.
            assert abs(slope - difference) * h <= 1e-6 * exact

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1])
    def test_kappa_pass_matches_the_series(self, beta):
        bc = BoundaryCondition.navier(beta)
        at = kappa_table(bc)
        hs = self.interior(max(beta, SERIES_GAP_FLOOR))
        kp, dkp, kpr, dkpr = np.array([at(h, slope=True) for h in hs]).T
        assert np.all(kpr == 0.0) and np.all(dkpr == 0.0)
        self.check_against_series(passive_drag, kp, dkp, hs)

    @pytest.mark.parametrize("lam", [0.01, 1.0, 5.0, 100.0])
    def test_kappa_prop_matches_the_series(self, lam):
        at = kappa_table(NO_SLIP, lam=lam)
        hs = self.interior(SERIES_GAP_FLOOR)
        _, _, kpr, dkpr = np.array([at(h, slope=True) for h in hs]).T
        self.check_against_series(lambda h: propulsion_drag(h, lam), kpr, dkpr, hs)

    def test_tight_tolerance_takes_the_series(self):
        # At tail_tol = 1e-13 the degree-95 tables cannot certify the
        # tolerance, so an inertial run reads the series bit for bit.
        from swimcollide.dynamics import Mode, SwimmerScenario, simulate

        tight = SeriesTruncation(tail_tol=1e-13)
        sc = SwimmerScenario(mode=Mode.ACTIVE, bc=NAVIER, h0=0.5, mass=0.1)
        traj = simulate(sc, t_max=1.0, truncation=tight)
        assert len(traj.points) > 2
        for p in traj.points:
            assert p.kappa_pass == kappa_pass(p.h, NAVIER, tight)
            assert p.kappa_prop == kappa_prop(p.h, 1.0, NAVIER, tight)

    @pytest.mark.parametrize("bc", [NO_SLIP, NAVIER, TINY])
    def test_ends_and_outside_give_the_series_or_continuation(self, bc):
        at = kappa_table(bc, lam=1.0)
        edge = max(bc.beta, SERIES_GAP_FLOOR)
        outside = [TABLE_TOP, 150.0, SERIES_GAP_FLOOR / 7.0]
        for h in [edge, edge / 3.0] + outside:
            assert at(h)[0] == at(h, slope=True)[0] == kappa_pass(h, bc)
        for h in [SERIES_GAP_FLOOR] + outside:
            assert at(h)[1] == at(h, slope=True)[2] == kappa_prop(h, 1.0, bc)

    def test_no_range_above_the_top(self):
        # A slip length at TABLE_TOP leaves kappa_pass no range to tabulate:
        # the table gives the series from the edge up and the continuation
        # below it.
        bc = BoundaryCondition.navier(TABLE_TOP)
        at = kappa_table(bc)
        for h in [TABLE_TOP, 150.0, 50.0, 1.0, SERIES_GAP_FLOOR / 7.0]:
            assert at(h) == at(h, slope=True)[::2] == (kappa_pass(h, bc), 0.0)

    @pytest.mark.parametrize("tail_tol", [None, 1e-13], ids=["above_the_top", "fallback"])
    def test_values_read_the_series_once(self, tail_tol):
        # Where a table gives the series, a read without slopes costs one
        # series evaluation per coefficient, at h; only a slope request
        # pays for the difference, which never reads below the table.
        truncation = SeriesTruncation(tail_tol=tail_tol) if tail_tol else SeriesTruncation()
        at = kappa_table(NO_SLIP, truncation, lam=1.0)
        h = 150.0 if tail_tol is None else 0.37
        cache_clear()
        values = at(h)
        assert _series_pass.cache_info().misses == _series_prop.cache_info().misses == 1
        series = kappa_pass(h, NO_SLIP, truncation), kappa_prop(h, 1.0, NO_SLIP, truncation)
        assert values == series
        if tail_tol:
            for h in [SERIES_GAP_FLOOR, SERIES_GAP_FLOOR * (1.0 + 1e-6)]:
                assert all(np.isfinite(at(h, slope=True)))
