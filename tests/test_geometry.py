"""Bipolar frame, coordinate maps, the propulsion tip, and the polynomial
building blocks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_legendre

from swimcollide.errors import DomainError, RegionError, SingularityError
from swimcollide.geometry import (
    AxisymPoint,
    BipolarPoint,
    axis_zeta,
    frame_from_gap,
    from_bipolar,
    gegenbauer_minus_half,
    legendre_values,
    tip_height,
    to_bipolar,
)

gaps = st.floats(min_value=1e-6, max_value=50.0)


class TestFrame:
    def test_half_gap_frame_matches_closed_forms(self):
        fr = frame_from_gap(0.5)
        # c^2 = h (2 + h) and cosh(alpha) = 1 + h, both exact relations.
        assert fr.c == pytest.approx(math.sqrt(1.25), rel=1e-15)
        assert fr.alpha == pytest.approx(math.acosh(1.5), rel=1e-15)

    @given(gaps)
    def test_hyperbolic_identities(self, h):
        fr = frame_from_gap(h)
        assert math.cosh(fr.alpha) == pytest.approx(1.0 + h, rel=1e-12)
        assert math.sinh(fr.alpha) == pytest.approx(fr.c, rel=1e-12)

    def test_tiny_gap_retains_precision(self):
        # log1p-based construction: alpha ~ sqrt(2 h) must not lose digits.
        fr = frame_from_gap(1e-12)
        assert fr.alpha == pytest.approx(math.sqrt(2e-12), rel=1e-6)

    @pytest.mark.parametrize("h", [0.0, -0.5, "x", True, pytest.param(10**400, id="10**400")])
    def test_gap_must_be_positive(self, h):
        # An int too large for a float used to escape as an OverflowError.
        with pytest.raises(DomainError, match="^h, the half-gap, must be a finite real number > 0"):
            frame_from_gap(h)


class TestCoordinateMaps:
    def test_sphere_surface_is_unit_sphere(self):
        fr = frame_from_gap(0.5)
        for eta in np.linspace(0.0, math.pi, 23):
            p = from_bipolar(fr, BipolarPoint(fr.alpha, eta))
            r = math.hypot(p.rho, p.z - (1.0 + fr.h))
            assert r == pytest.approx(1.0, abs=1e-13)

    def test_pole_points(self):
        fr = frame_from_gap(0.3)
        near = from_bipolar(fr, BipolarPoint(fr.alpha, math.pi))
        far = from_bipolar(fr, BipolarPoint(fr.alpha, 0.0))
        assert near.z == pytest.approx(fr.h, abs=1e-13)
        assert near.rho == pytest.approx(0.0, abs=1e-13)
        assert far.z == pytest.approx(2.0 + fr.h, abs=1e-12)

    def test_midplane_maps_to_zeta_zero(self):
        fr = frame_from_gap(0.7)
        q = to_bipolar(fr, AxisymPoint(0.9, 0.0))
        assert q.zeta == pytest.approx(0.0, abs=1e-14)

    @given(
        gaps,
        st.floats(min_value=1e-3, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_roundtrip(self, h, rho, z):
        fr = frame_from_gap(h)
        q = to_bipolar(fr, AxisymPoint(rho, z))
        back = from_bipolar(fr, q)
        scale = 1.0 + abs(rho) + abs(z)
        assert back.rho == pytest.approx(rho, abs=1e-9 * scale)
        assert back.z == pytest.approx(z, abs=1e-9 * scale)

    def test_rejects_negative_radius(self):
        fr = frame_from_gap(0.5)
        with pytest.raises(DomainError):
            to_bipolar(fr, AxisymPoint(-0.1, 1.0))

    def test_rejects_non_finite_radius(self):
        fr = frame_from_gap(0.5)
        with pytest.raises(DomainError, match=r"^rho must be a finite real number >= 0, got inf$"):
            to_bipolar(fr, AxisymPoint(math.inf, 1.0))

    @pytest.mark.parametrize(
        "zeta, eta", [(-0.1, 1.0), (0.5, math.pi + 0.1), (math.nan, 1.0), (True, 1.0)]
    )
    def test_from_bipolar_rejects_points_outside_the_domain(self, zeta, eta):
        with pytest.raises(DomainError):
            from_bipolar(frame_from_gap(0.5), BipolarPoint(zeta, eta))

    def test_rejects_lower_half_space(self):
        fr = frame_from_gap(0.5)
        with pytest.raises(RegionError):
            to_bipolar(fr, AxisymPoint(0.5, -1.0))

    def test_focus_is_singular(self):
        fr = frame_from_gap(0.5)
        with pytest.raises(SingularityError):
            to_bipolar(fr, AxisymPoint(0.0, fr.c))
        with pytest.raises(SingularityError):
            from_bipolar(fr, BipolarPoint(0.0, 0.0))


class TestAxisZeta:
    def test_rear_pole_maps_to_alpha(self):
        # z = 2 + h sits on the sphere surface, so its axis coordinate is
        # exactly the surface value.
        for h in (0.01, 0.3, 2.0):
            fr = frame_from_gap(h)
            assert axis_zeta(fr, 2.0 + h) == pytest.approx(fr.alpha, rel=1e-12)

    @given(gaps, st.floats(min_value=1e-3, max_value=30.0))
    def test_matches_full_map_on_axis(self, h, dz):
        fr = frame_from_gap(h)
        z0 = fr.c + dz
        q = to_bipolar(fr, AxisymPoint(0.0, z0))
        assert axis_zeta(fr, z0) == pytest.approx(q.zeta, rel=1e-10)

    def test_requires_point_above_focus(self):
        fr = frame_from_gap(0.5)
        with pytest.raises(DomainError):
            axis_zeta(fr, fr.c)


class TestTipGeometry:
    @given(
        st.floats(min_value=1e-4, max_value=10.0),
        st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_tip_sits_behind_rear_pole(self, h, lam):
        assert tip_height(h, lam) == pytest.approx(2.0 + h + lam, rel=1e-15)

    @pytest.mark.parametrize("h,lam", [(0.0, 1.0), (0.5, 0.0), (-1.0, 1.0)])
    def test_validation(self, h, lam):
        with pytest.raises(DomainError):
            tip_height(h, lam)

    @pytest.mark.parametrize(
        "h, lam, name",
        [
            (math.nan, 1.0, "h"),
            (0.1, math.nan, "lam"),
            (math.inf, 1.0, "h"),
            (0.1, math.inf, "lam"),
            (True, 1.0, "h"),
            (0.1, "1.0", "lam"),
        ],
    )
    def test_bad_argument_is_named(self, h, lam, name):
        # NaN used to pass both sign checks and return nan.
        with pytest.raises(DomainError, match=f"^{name}, the"):
            tip_height(h, lam)


class TestLegendre:
    def test_against_scipy(self):
        for x in np.linspace(-1.0, 1.0, 17):
            vals = legendre_values(10, x)
            ref = eval_legendre(np.arange(11), x)
            np.testing.assert_allclose(vals, ref, rtol=0, atol=5e-14)

    def test_spot_value(self):
        assert legendre_values(2, 0.5)[2] == pytest.approx(-0.125, abs=1e-15)

    @given(st.floats(min_value=-1.0, max_value=1.0), st.integers(1, 60))
    def test_bounded_on_interval(self, x, n):
        vals = legendre_values(n, x)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_rejects_outside_interval(self):
        with pytest.raises(DomainError):
            legendre_values(4, 1.0001)

    @pytest.mark.parametrize(
        "n_max", [math.nan, math.inf, -1, 2.5, True, "3", pytest.param(10**400, id="10**400")]
    )
    def test_bad_degree_is_named(self, n_max):
        # NaN, infinity and an int too large for a float used to escape as
        # ValueError and OverflowError.
        with pytest.raises(DomainError, match="^n_max must be an integer >= 0"):
            legendre_values(n_max, 0.5)


class TestGegenbauer:
    """The one kernel: entry n - 1 of gegenbauer_minus_half(n_count, x) is
    C_{n+1}^{(-1/2)}(x)."""

    # Hand-expanded closed forms for the first few degrees.
    CLOSED = {
        1: lambda x: (1.0 - x * x) / 2.0,
        2: lambda x: x * (1.0 - x * x) / 2.0,
        3: lambda x: (6.0 * x * x - 5.0 * x**4 - 1.0) / 8.0,
        4: lambda x: x * (10.0 * x * x - 7.0 * x**4 - 3.0) / 8.0,
    }

    @pytest.mark.parametrize("n", sorted(CLOSED))
    def test_closed_forms(self, n):
        for x in np.linspace(-1.0, 1.0, 13):
            values = gegenbauer_minus_half(len(self.CLOSED), x)
            assert values.shape == (len(self.CLOSED),)
            assert values[n - 1] == pytest.approx(self.CLOSED[n](x), abs=1e-14)

    @given(st.integers(1, 80))
    def test_vanishes_at_endpoints(self, n_count):
        np.testing.assert_allclose(gegenbauer_minus_half(n_count, 1.0), 0.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(gegenbauer_minus_half(n_count, -1.0), 0.0, rtol=0, atol=1e-13)

    def test_degree_zero_not_defined(self):
        for n_count in (0, -1, 2.5):
            with pytest.raises(DomainError):
                gegenbauer_minus_half(n_count, 0.5)

    @pytest.mark.parametrize("n_count", [math.nan, math.inf, True, "3"])
    def test_bad_mode_count_is_named(self, n_count):
        with pytest.raises(DomainError, match="^n_count, the mode count, must be an integer >= 1"):
            gegenbauer_minus_half(n_count, 0.5)


FRAME = frame_from_gap(0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: to_bipolar(FRAME, AxisymPoint("a", 1.0)),
            "rho must be a finite real number >= 0, got 'a'",
        ),
        (lambda: axis_zeta(FRAME, "x"), f"z0 must be a finite real number > {FRAME.c!r}, got 'x'"),
        (lambda: legendre_values(3, "abc"), "x must be a finite real number in [-1, 1], got 'abc'"),
        (lambda: legendre_values(3, True), "x must be a finite real number in [-1, 1], got True"),
    ],
    ids=["to_bipolar", "axis_zeta", "legendre_string", "legendre_bool"],
)
def test_non_numbers_are_named(call, message):
    # These were converted with float(): a string raised a bare ValueError
    # and True was read as 1.0.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
