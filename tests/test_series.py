"""Mode coefficients, stream function, and the derived drag summaries.

The frozen numbers in TestFrozenValues were produced by this implementation
and cross-validated against independent routes: finite differences of the
stream function for the axis velocity, the isolated-sphere and reflection
limits for the far-field drag, and the thin-gap divergence law for the
near-field drag. They pin the implementation against silent regressions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from swimcollide import drag, series
from swimcollide.errors import DomainError, RegionError, SingularityError, TruncationError
from swimcollide.geometry import (
    AxisymPoint,
    BipolarPoint,
    axis_zeta,
    frame_from_gap,
    tip_height,
    to_bipolar,
)
from swimcollide.series import (
    _S_TAYLOR_CUT,
    HARD_MODE_CAP,
    SERIES_GAP_FLOOR,
    SeriesSolution,
    SeriesTruncation,
    _coefficient_arrays,
    _force_terms,
    _source_array,
    axis_velocity,
    mode_profile,
    mode_profile_via_source,
    nonpenetration_report,
    passive_drag,
    propulsion_drag,
    solve_coefficients,
    stream_function,
)

gaps = st.floats(min_value=1e-4, max_value=20.0)


def solved(h):
    return solve_coefficients(frame_from_gap(h))


class TestTruncationRequest:
    def test_defaults(self):
        tr = SeriesTruncation()
        assert tr.tail_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tail_tol": 0},
            {"tail_tol": complex(1e-10)},
            {"tail_tol": 1.1e-2},
            {"tail_tol": 0.0},
            {"tail_tol": 0.5},
            {"tail_tol": float("nan")},
            {"tail_tol": True},
            {"tail_tol": "1e-10"},
            {"tail_tol": -1e-10},
            {"tail_tol": float("inf")},
            {"tail_tol": float("-inf")},
            {"tail_tol": "abc"},
            {"tail_tol": None},
        ],
    )
    def test_rejects_bad_requests(self, kwargs):
        (name,) = kwargs
        with pytest.raises(DomainError, match=f"^{name} "):
            SeriesTruncation(**kwargs)


class TestFrozenValues:
    def test_leading_coefficients(self):
        sol = solved(0.5)
        assert sol.b[0] == pytest.approx(4.44384987950723, rel=1e-10)
        assert sol.d[0] == pytest.approx(-0.21113904872250808, rel=1e-10)

    def test_passive_drag(self):
        assert passive_drag(0.5) == pytest.approx(38.42773471532934, rel=1e-10)
        assert passive_drag(0.1) == pytest.approx(87.18943408965038, rel=1e-10)

    def test_axis_velocity(self):
        sol = solved(0.5)
        assert axis_velocity(sol, 4.0) == pytest.approx(
            0.47715038446940655, rel=1e-10
        )

    def test_propulsion_drag(self):
        assert propulsion_drag(0.5, 1.0) == pytest.approx(
            0.6201313198201311, rel=1e-10
        )
        assert propulsion_drag(0.01, 1.0) == pytest.approx(
            0.611609278713521, rel=1e-10
        )

    def test_source_strength(self):
        fr = frame_from_gap(0.5)
        assert _source_array(fr, 1)[0] == pytest.approx(2.121320343559643, rel=1e-10)


class TestCoefficientStructure:
    @given(gaps)
    def test_sign_pattern_for_receding_spheres(self, h):
        sol = solved(h)
        assert np.all(sol.b > 0.0)
        assert np.all(sol.d < 0.0)
        # Combined force terms stay positive mode by mode.
        assert np.all(sol.b + sol.d > 0.0)

    def test_extension_preserves_prefix(self):
        fr = frame_from_gap(0.5)
        short_b, short_d = _coefficient_arrays(fr, 40)
        long_b, long_d = _coefficient_arrays(fr, 60)
        # Per-mode coefficients are independent of the truncation level.
        assert np.array_equal(short_b, long_b[:40])
        assert np.array_equal(short_d, long_d[:40])

    def test_tail_estimate_meets_request(self):
        tr = SeriesTruncation(tail_tol=1e-12)
        sol = solve_coefficients(frame_from_gap(0.3), tr)
        assert sol.tail_estimate <= tr.tail_tol

    def test_mode_cap_is_reported(self, monkeypatch):
        # The surface sum at h = 1e-3 needs several hundred modes.
        monkeypatch.setattr(series, "HARD_MODE_CAP", SMALL_CAP)
        with pytest.raises(TruncationError) as exc:
            solve_coefficients(frame_from_gap(1e-3))
        assert exc.value.residual > 0.0
        assert exc.value.n_modes == SMALL_CAP

    def test_determinism(self):
        a = solved(0.37)
        b = solved(0.37)
        assert np.array_equal(a.b, b.b) and np.array_equal(a.d, b.d)


class TestDirectForms:
    """The cancellation-free coefficients against the textbook expressions,
    which are accurate while S_m does not overflow."""

    @staticmethod
    def direct(fr, n_count):
        al, c2 = fr.alpha, fr.c**2
        n = np.arange(1, n_count + 1, dtype=float)
        m = n + 0.5
        k = n * (n + 1.0) / np.sqrt(2.0)
        s_m = 2.0 * (np.sinh(2.0 * m * al) - m * np.sinh(2.0 * al))
        e = np.exp(-2.0 * m * al)
        b = c2 * k * (e + 1.0 + m * (np.exp(2.0 * al) - 1.0)) / ((m - 1.0) * s_m)
        d = -c2 * k * (e + 1.0 + m * (1.0 - np.exp(-2.0 * al))) / ((m + 1.0) * s_m)
        return b, d

    # (gap, modes on the Taylor side of the crossover)
    @pytest.mark.parametrize("h, n_taylor", [(1e-3, 7), (0.02, 1), (0.5, 0), (3.0, 0)])
    def test_term_by_term(self, h, n_taylor):
        fr = frame_from_gap(h)
        n_count = min(60, int(350.0 / fr.alpha) - 1)  # keeps sinh(2 m alpha) finite
        m = np.arange(1, n_count + 1) + 0.5
        assert np.sum(2.0 * m * fr.alpha < _S_TAYLOR_CUT) == n_taylor
        b_direct, d_direct = self.direct(fr, n_count)
        b, d = _coefficient_arrays(fr, n_count)
        np.testing.assert_allclose(b, b_direct, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d, d_direct, rtol=1e-12, atol=0.0)
        force = _force_terms(fr, n_count)
        np.testing.assert_allclose(force, b + d, rtol=1e-12, atol=0.0)


class TestStimsonJeffery:
    """passive_drag / 6 pi against the textbook series for a sphere
    approaching a free surface, which the mirror midplane is (Stimson and
    Jeffery 1926; Brenner 1961):

        lambda = (4/3) sinh(a) sum_n n (n + 1) / ((2n - 1)(2n + 3))
                 * [(4 cosh^2((n + 1/2) a) + (2n + 1)^2 sinh^2(a))
                    / (2 sinh((2n + 1) a) - (2n + 1) sinh(2 a)) - 1]

    with cosh(a) = 1 + h, summed in float64 while (2n + 1) a < 700.
    """

    @staticmethod
    def textbook(h):
        a = math.asinh(math.sqrt(h * (2.0 + h)))
        n = np.arange(1.0, math.ceil(350.0 / a))
        n = n[(2.0 * n + 1.0) * a < 700.0]
        num = 4.0 * np.cosh((n + 0.5) * a) ** 2 + (2.0 * n + 1.0) ** 2 * np.sinh(a) ** 2
        den = 2.0 * np.sinh((2.0 * n + 1.0) * a) - (2.0 * n + 1.0) * np.sinh(2.0 * a)
        weight = n * (n + 1.0) / ((2.0 * n - 1.0) * (2.0 * n + 3.0))
        return 4.0 / 3.0 * math.sinh(a) * float(np.sum(weight * (num / den - 1.0)))

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.5, 1.0, 3.0, 10.0])
    def test_drag_matches_textbook_series(self, h):
        assert passive_drag(h) / (6.0 * math.pi) == pytest.approx(
            self.textbook(h), rel=1e-12
        )


# One gap per decade over the series range of the drag layer, 2e-6 .. 10.
DECADE_GAPS = [2e-6 * 10.0**k for k in range(7)] + [10.0]
# Tip offset of propulsion_drag; None stands for passive_drag.
DRAG_LAMS = [None, 0.01, 1.0, 5.0]


def drag_sum(h, lam, truncation=None):
    if lam is None:
        return passive_drag(h, truncation)
    return propulsion_drag(h, lam, truncation)


class TestPredictedStart:
    """The drag sums start at their predicted mode count (series._start_count):
    at the default truncation one pass meets the tail test, and that pass
    agrees with a much tighter evaluation."""

    @pytest.mark.parametrize("h", DECADE_GAPS)
    @pytest.mark.parametrize("lam", DRAG_LAMS)
    def test_one_pass_per_sum(self, lam, h, monkeypatch):
        passes = []
        converge = series._converge

        def counting(n_start, tail_tol, evaluate, what):
            def counted(n_count):
                passes.append(n_count)
                return evaluate(n_count)

            return converge(n_start, tail_tol, counted, what)

        monkeypatch.setattr(series, "_converge", counting)
        drag_sum(h, lam)
        assert len(passes) == 1

    @pytest.mark.parametrize("h", DECADE_GAPS)
    @pytest.mark.parametrize("lam", DRAG_LAMS)
    def test_agrees_with_tighter_tolerance(self, lam, h):
        try:
            want = drag_sum(h, lam, SeriesTruncation(tail_tol=1e-14))
        except TruncationError:
            pytest.skip("the tail_tol = 1e-14 reference needs more than the mode cap")
        assert drag_sum(h, lam) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_mode_start_converges(self, monkeypatch):
        # A one-term window has no ratio to extrapolate and must not pass the
        # tail test, so a sum started at one mode doubles on to the converged
        # sum.
        fr = frame_from_gap(0.01)
        default = solve_coefficients(fr)
        monkeypatch.setattr(series, "_N_START", 1)
        short = solve_coefficients(fr)
        assert short.n_modes > 1 and 0.0 < short.tail_estimate <= short.requested.tail_tol
        assert np.sum(short.b + short.d) == pytest.approx(
            np.sum(default.b + default.d), rel=1e-10
        )


class TestTaylorBlock:
    """S_m = 2 [sinh(2 m alpha) - m sinh(2 alpha)] from _pair_gap_sum against
    40-digit mpmath, on the Taylor side of the crossover and just across it.
    Above alpha = 0.7 / 3 every half-integer order m >= 1.5 is past it."""

    @pytest.mark.parametrize("alpha", np.geomspace(1e-4, 0.35, 12))
    def test_matches_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        m = np.arange(1.5, 2.0 * _S_TAYLOR_CUT / (2.0 * alpha), 1.0)
        s, k, E = series._pair_gap_sum(len(m), alpha)
        taylor = 2.0 * m * alpha < _S_TAYLOR_CUT
        assert np.array_equal(np.arange(len(m)) < k, taylor)
        scale = np.where(taylor, 1.0, E)
        assert np.any(taylor) == (alpha < _S_TAYLOR_CUT / 3.0)
        with mpmath.workdps(40):
            a = mpmath.mpf(float(alpha))
            want = [
                float(2 * (mpmath.sinh(2 * mk * a) - mk * mpmath.sinh(2 * a)))
                for mk in map(mpmath.mpf, m)
            ]
        np.testing.assert_allclose(s / scale, want, rtol=1e-14, atol=0.0)


class TestKernel:
    """The term kernel reads read-only mode tables, takes the Taylor rows of
    S_m as a prefix and guards the profiles only where a sinh can overflow;
    its terms equal the direct expressions below bit for bit."""

    TAYLOR_P = np.arange(3, 24, 2)
    TAYLOR_FACT = np.array([math.factorial(p) for p in TAYLOR_P], dtype=float)

    @classmethod
    def reference_terms(cls, fr, n_count):
        """(b, d, force terms) from the direct expressions: a boolean-mask
        Taylor block, np.where for the scale, a fresh array per step."""
        al = fr.alpha
        n = np.arange(1, n_count + 1, dtype=float)
        m = n + 0.5
        x = 2.0 * m * al
        E = np.exp(-np.minimum(x, 1500.0))
        s = 1.0 - E**2 - 2.0 * m * np.sinh(2.0 * al) * E
        taylor = x < _S_TAYLOR_CUT
        scale = np.where(taylor, 1.0, E)
        if np.any(taylor):
            mt, y = m[taylor, None], 2.0 * al
            s[taylor] = (mt**cls.TAYLOR_P - mt) @ (2.0 * y**cls.TAYLOR_P / cls.TAYLOR_FACT)
        q = fr.c**2 * n * (n + 1.0) / np.sqrt(2.0) * scale / s
        b = q * (E + 1.0 + m * (np.exp(2.0 * al) - 1.0)) / (m - 1.0)
        d = -q * (E + 1.0 + m * (1.0 - np.exp(-2.0 * al))) / (m + 1.0)
        num = E + 1.0 + 2.0 * m**2 * np.sinh(al) ** 2 + m * np.sinh(2.0 * al)
        return b, d, 2.0 * q * num / (m**2 - 1.0)

    @staticmethod
    def reference_profiles(b, d, zeta):
        """U_n(zeta) with every non-finite product masked to zero."""
        m = np.arange(1, len(b) + 1, dtype=float) + 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            u = b * np.sinh((m - 1.0) * zeta) + d * np.sinh((m + 1.0) * zeta)
        return np.where(np.isfinite(u), u, 0.0)

    def test_mode_tables_are_read_only(self):
        tables = [
            series._INDEX,
            series._ORDERS,
            series._M_SQ,
            series._M_SQ_MINUS_1,
            series._TAYLOR_MONOMIALS,
        ]
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0
        n, m = series._half_orders(8)
        with pytest.raises(ValueError):
            m[0] = 0.0
        assert np.array_equal(n, np.arange(1.0, 9.0)) and np.array_equal(m, n + 0.5)

    def test_overflowing_profiles_are_zero_without_warning(self):
        # At h = 10 the sinh of the last modes overflows at the surface while
        # their coefficients have underflowed to zero. Warnings are errors here.
        fr = frame_from_gap(10.0)
        b, d = _coefficient_arrays(fr, 512)
        u = series._profiles_at(b, d, fr.alpha)
        m = np.arange(1, 513) + 0.5
        overflow = (m + 1.0) * fr.alpha > 710.0
        assert np.any(overflow) and np.all(np.isfinite(u))
        assert np.all(u[overflow] == 0.0) and np.all(u[:5] > 0.0)

    # One gap per decade over the series range, and one below the floor, whose
    # Taylor rows outrun the monomial table.
    @pytest.mark.parametrize("h", DECADE_GAPS + [1e-8])
    def test_terms_equal_the_direct_expressions(self, h):
        fr = frame_from_gap(h)
        tr = SeriesTruncation()
        zetas = [fr.alpha] + [axis_zeta(fr, tip_height(h, lam)) for lam in (1e-3, 1.0, 100.0)]
        start = series._start_count
        counts = {1, 20, HARD_MODE_CAP, start(series._START_K_FORCE, 2.0 * fr.alpha, tr)}
        counts |= {start(series._START_K_AXIS, 2.0 * fr.alpha - z, tr) for z in zetas[1:]}
        for n_count in sorted(counts):
            b_ref, d_ref, force_ref = self.reference_terms(fr, n_count)
            b, d = _coefficient_arrays(fr, n_count)
            assert np.array_equal(b, b_ref) and np.array_equal(d, d_ref)
            assert np.array_equal(_force_terms(fr, n_count), force_ref)
            for zeta in zetas:
                assert np.array_equal(
                    series._profiles_at(b, d, zeta), self.reference_profiles(b, d, zeta)
                )


# The drag sums converge under the real cap at every gap the series accepts
# (passive_drag at the floor even with tail_tol = 1e-30), so the cap tests
# lower the cap below what the sums need at CAP_GAP, an ordinary gap.
SMALL_CAP = 64
CAP_GAP = 1e-3


def short_solution_near_contact():
    """Five stored modes at CAP_GAP: the evaluators extend them and hit the
    lowered cap."""
    fr = frame_from_gap(CAP_GAP)
    b, d = _coefficient_arrays(fr, 5)
    return SeriesSolution(frame=fr, b=b, d=d, tail_estimate=0.0, requested=SeriesTruncation())


# solve_coefficients reaches the cap in test_mode_cap_is_reported.
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: passive_drag(CAP_GAP),
        lambda: propulsion_drag(CAP_GAP, 1.0),
        lambda: axis_velocity(short_solution_near_contact(), 2.0 + 2.0 * CAP_GAP),
        lambda: stream_function(
            short_solution_near_contact(),
            BipolarPoint(zeta=frame_from_gap(CAP_GAP).alpha, eta=0.5),
        ),
    ],
    ids=["passive_drag", "propulsion_drag", "axis_velocity", "stream_function"],
)
def test_every_adaptive_sum_stops_at_the_mode_cap(evaluate, monkeypatch):
    monkeypatch.setattr(series, "HARD_MODE_CAP", SMALL_CAP)
    with pytest.raises(TruncationError) as exc:
        evaluate()
    assert exc.value.n_modes == SMALL_CAP
    assert exc.value.residual > 0.0
    assert f"mode cap {SMALL_CAP}" in str(exc.value)


class TestNonpenetrationIdentity:
    @given(gaps)
    def test_identity_holds_at_solver_scale(self, h):
        rep = nonpenetration_report(solved(h))
        assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("h", [0.01, 0.5, 5.0])
    def test_source_positive(self, h):
        fr = frame_from_gap(h)
        sources = _source_array(fr, 200)
        for n in (1, 2, 3, 10, 50, 200):
            val = sources[n - 1]
            if (2 * n + 1) * fr.alpha < 700.0:
                assert val > 0.0
            else:
                # Beyond this the closed form underflows; it must do so to
                # exactly zero, never to a negative value.
                assert val == 0.0


class TestModeProfiles:
    @given(
        st.floats(min_value=1e-3, max_value=5.0),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_dual_route_agreement(self, h, n, frac):
        sol = solved(h)
        assume(n <= sol.n_modes)
        zeta = frac * sol.frame.alpha
        direct = mode_profile(sol, n, zeta)
        via_source = mode_profile_via_source(sol, n, zeta)
        scale = max(abs(direct), abs(via_source), 1e-300)
        assert abs(direct - via_source) / scale < 1e-9

    @given(
        st.floats(min_value=1e-3, max_value=5.0),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_profiles_nonnegative_between_midplane_and_surface(self, h, n, frac):
        # Receding spheres pull axis fluid along everywhere between the
        # midplane and the surface: every mode contributes with one sign.
        sol = solved(h)
        assume(n <= sol.n_modes)
        zeta = frac * sol.frame.alpha
        assert mode_profile(sol, n, zeta) >= -1e-13 * abs(sol.b[n - 1])

    def test_vanishes_at_midplane(self):
        sol = solved(0.5)
        for n in (1, 2, 5):
            assert mode_profile(sol, n, 0.0) == 0.0

    def test_mode_index_validation(self):
        sol = solved(0.5)
        with pytest.raises(DomainError):
            mode_profile(sol, 0, 0.1)
        with pytest.raises(DomainError):
            mode_profile(sol, sol.n_modes + 1, 0.1)
        with pytest.raises(DomainError, match="zeta"):
            mode_profile(sol, 1, -0.1)

    @pytest.mark.parametrize("profile", [mode_profile, mode_profile_via_source])
    @pytest.mark.parametrize(
        "n, zeta, name",
        [
            (math.nan, 0.1, "mode index n"),
            (math.inf, 0.1, "mode index n"),
            (True, 0.1, "mode index n"),
            ("1", 0.1, "mode index n"),
            (1.5, 0.1, "mode index n"),
            (1, math.nan, "zeta"),
            (1, True, "zeta"),
            (1, "0.1", "zeta"),
        ],
    )
    def test_bad_request_is_named(self, profile, n, zeta, name):
        # NaN, infinities, bools and strings are domain errors, not a
        # ValueError from int() or a bool read as mode 1.
        with pytest.raises(DomainError, match=f"^{name} must be"):
            profile(solved(0.5), n, zeta)


class TestStreamFunction:
    @staticmethod
    def psi_at(sol, rho, z):
        return stream_function(sol, to_bipolar(sol.frame, AxisymPoint(rho, z)))

    @given(st.floats(min_value=1e-3, max_value=4.0))
    def test_midplane_is_a_streamline(self, rho):
        sol = solved(0.5)
        assert self.psi_at(sol, rho, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_points_inside_sphere(self):
        sol = solved(0.5)
        with pytest.raises(RegionError):
            self.psi_at(sol, 0.1, 1.5)

    @pytest.mark.parametrize(
        "zeta, eta, error",
        [
            (math.nan, 1.0, DomainError),
            (0.1, math.pi + 0.1, DomainError),
            (0.0, 0.0, SingularityError),
        ],
    )
    def test_rejects_points_outside_the_fluid(self, zeta, eta, error):
        with pytest.raises(error):
            stream_function(solved(0.5), BipolarPoint(zeta, eta))

    def test_axis_velocity_matches_stream_function_derivative(self):
        # Independent route: u_z = 2 psi / rho^2 + O(rho^2) near the axis,
        # sharpened by one Richardson step.
        sol = solved(0.5)
        z0 = 2.9
        rho = 1e-3

        def estimate(r):
            return 2.0 * self.psi_at(sol, r, z0) / r**2

        richardson = (4.0 * estimate(rho / 2.0) - estimate(rho)) / 3.0
        assert axis_velocity(sol, z0) == pytest.approx(richardson, rel=1e-8)


class TestAxisVelocity:
    def test_domain_guard(self):
        sol = solved(0.5)
        with pytest.raises(DomainError):
            axis_velocity(sol, 1.5)  # at the sphere center
        with pytest.raises(DomainError):
            axis_velocity(sol, -3.0)

    @given(gaps, st.floats(min_value=1e-3, max_value=50.0))
    def test_positive_above_receding_sphere(self, h, dz):
        sol = solved(h)
        assert axis_velocity(sol, 2.0 + h + dz) > 0.0

    def test_decays_far_from_pair(self):
        sol = solved(0.5)
        near = axis_velocity(sol, 3.0)
        far = axis_velocity(sol, 30.0)
        assert 0.0 < far < near < 1.0

    @pytest.mark.parametrize(
        "h, want",
        [(0.01, 0.6116092787203355), (0.3, 0.6167771597882766), (2.0, 0.6389689619231191)],
    )
    def test_converged_call_solves_once(self, h, want, monkeypatch):
        # The solution's own mode count already converges at the tip, so the
        # sum solves for (b, d) once, at that count, and never extends it.
        sol = solved(h)
        counted = []
        solve = series._coefficient_arrays

        def counting(frame, n_count):
            counted.append(n_count)
            return solve(frame, n_count)

        monkeypatch.setattr(series, "_coefficient_arrays", counting)
        assert axis_velocity(sol, 3.0 + h) == pytest.approx(want, rel=1e-10)
        assert counted == [sol.n_modes]


class TestPassiveDrag:
    def test_far_field_reflection_limit(self):
        # Two-sphere drag at large separation: isolated Stokes drag times the
        # leading reflection correction in the center spacing s = 2 (1 + h).
        for h in (10.0, 100.0):
            s = 2.0 * (1.0 + h)
            expected = 6.0 * math.pi / (1.0 - 3.0 / (2.0 * s))
            assert passive_drag(h) == pytest.approx(expected, rel=1e-3)

    def test_thin_gap_divergence(self):
        kh = passive_drag(1e-4) * 1e-4
        assert kh == pytest.approx(1.5 * math.pi, rel=0.01)

    def test_thin_gap_slope(self):
        hs = np.geomspace(1e-4, 1e-3, 7)
        ks = np.array([passive_drag(h) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(ks), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    @given(st.floats(min_value=1e-4, max_value=10.0))
    def test_monotone_decreasing(self, h):
        assert passive_drag(h) > passive_drag(1.5 * h)

    def test_gap_guard(self):
        # One floor: each sum that takes a gap accepts SERIES_GAP_FLOOR itself
        # and nothing below it, and drag's floor is the same object.
        assert drag.SERIES_GAP_FLOOR is SERIES_GAP_FLOOR
        below = SERIES_GAP_FLOOR * (1.0 - 1e-12)
        for evaluate in (
            passive_drag,
            lambda h: propulsion_drag(h, 1.0),
            lambda h: solve_coefficients(frame_from_gap(h)),
        ):
            evaluate(SERIES_GAP_FLOOR)
            with pytest.raises(DomainError, match="below the series floor"):
                evaluate(below)
        with pytest.raises(DomainError):
            passive_drag(-1.0)


class TestPropulsionDrag:
    def test_unit_interval(self):
        for h in (0.01, 0.1, 1.0):
            for lam in (0.01, 0.1, 1.0, 5.0):
                k = propulsion_drag(h, lam)
                assert 0.0 < k < 1.0

    def test_short_tail_approaches_one(self):
        assert propulsion_drag(0.01, 0.01) == pytest.approx(
            0.9998234026084266, rel=1e-10
        )

    def test_decreasing_in_tail_length(self):
        lams = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
        ks = [propulsion_drag(0.01, lam) for lam in lams]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(DomainError):
            propulsion_drag(0.5, 0.0)

