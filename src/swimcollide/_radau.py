"""Radau IIA of order 5 for a system of two equations, on Python floats.

A port of scipy.integrate.Radau (scipy 1.17, scipy/integrate/_ivp/radau.py
and the select_initial_step of common.py; Copyright (c) SciPy Developers,
BSD-3-Clause), which implements the method of Hairer & Wanner, Solving
Ordinary Differential Equations II, 2nd ed. 1996, Sec. IV.8. It keeps
scipy's constants, its order of operations, its Newton tolerance and its
rules for the step size, for rejected steps and for reusing the Jacobian
and the Newton matrices, so rtol and atol mean what they mean for
solve_ivp(method="Radau"). What it drops is the n-dimensional machinery: the
state is a pair of floats, and each Newton iteration solves its real and its
complex 2 x 2 system with the explicit inverse. The loop works on named
floats (za0, za1 the pair of stage a, and so on): each matrix product is
written out term by term and summed from the left, as numpy's dot forms it,
and the complex system stays in complex arithmetic, as in scipy.
"""

import cmath
import math
import sys
from typing import NamedTuple

from .errors import StiffnessError

S6 = 6**0.5
# The nodes, the weights of the embedded error estimate, the eigenvalues of
# the inverse coefficient matrix with the transforms T and TI to its
# eigenbasis, and the coefficients of the collocation polynomial, as in scipy.
C = ((4 - S6) / 10, (4 + S6) / 10, 1.0)
E = ((-13 - 7 * S6) / 3, (-13 + 7 * S6) / 3, -1 / 3)
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
T = (
    (0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
    (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
    (1.0, 1.0, 0.0),
)
TI = (
    (4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
    (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
    (0.50287263494578682, -2.57192694985560522, 0.59603920482822492),
)
TI_COMPLEX = tuple(complex(a, b) for a, b in zip(TI[1], TI[2]))
P = (
    (13 / 3 + 7 * S6 / 3, -23 / 3 - 22 * S6 / 3, 10 / 3 + 5 * S6),
    (13 / 3 - 7 * S6 / 3, -23 / 3 + 22 * S6 / 3, 10 / 3 - 5 * S6),
    (1 / 3, -8 / 3, 10 / 3),
)
NEWTON_MAXITER = 6
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EPS = sys.float_info.epsilon


class Step(NamedTuple):
    """One accepted step from (t_old, y_old) to (t, y). q[j] holds the
    coefficients of x, x^2 and x^3 in component j of its collocation
    polynomial, x = (time - t_old) / (t - t_old): scipy's dense output."""

    t_old: float
    t: float
    y_old: tuple
    y: tuple
    q: tuple

    def __call__(self, time):
        x = (time - self.t_old) / (self.t - self.t_old)
        x2 = x * x
        x3 = x2 * x
        (a0, b0, c0), (a1, b1, c1) = self.q
        v0, v1 = self.y_old
        return a0 * x + b0 * x2 + c0 * x3 + v0, a1 * x + b1 * x2 + c1 * x3 + v1


def inverse(matrix, t, y):
    """The inverse ((d, -b), (-c, a)) / (ad - bc) of ((a, b), (c, d)), real or
    complex. A matrix that is singular or not finite is a StiffnessError at
    the step from (t, y)."""
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if not (det != 0.0 and cmath.isfinite(det)):
        raise StiffnessError(
            f"Newton matrix of the implicit step is singular or not finite at t = {t}",
            t=t,
            state=y,
        )
    return (d / det, -b / det), (-c / det, a / det)


def _rms(values):
    values = tuple(values)
    return math.hypot(*values) / len(values) ** 0.5


def _newton_matrix(mu, h, jac):
    """mu / h I - J."""
    (a, b), (c, d) = jac
    return (mu / h - a, -b), (-c, mu / h - d)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm**-0.25 if error_norm else math.inf


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy's select_initial_step for an error estimate of order 3."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms(v / s for v, s in zip(y0, scale))
    d1 = _rms(v / s for v, s in zip(f0, scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(v + h0 * f for v, f in zip(y0, f0)))
    # An h0 that underflows to 0 gives d2 = inf, as numpy's division does in
    # scipy; steps() then starts at its minimum step, where a StiffnessError
    # ends the run.
    d2 = _rms((a - b) / s for a, b, s in zip(f1, f0, scale)) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)
    return min(100 * h0, h1, interval)


def _collocation(fun, t, y, h, z, scale, tol, lu_real, lu_complex):
    """scipy's solve_collocation_system: the simplified Newton iteration for
    the stage increments z = (za0, za1, zb0, zb1, zc0, zc1), the pairs of
    stages a, b and c, from the start z. Each product of a 3 x 3 matrix with
    the stages is row[0] a + row[1] b + row[2] c, summed from the left.
    Returns (converged, n_iter, z, rate)."""
    (ti00, ti01, ti02), (ti10, ti11, ti12), (ti20, ti21, ti22) = TI
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = T
    tic0, tic1, tic2 = TI_COMPLEX
    (r00, r01), (r10, r11) = lu_real
    (c00, c01), (c10, c11) = lu_complex
    isfinite = math.isfinite
    m_real, m_complex = MU_REAL / h, MU_COMPLEX / h
    ta, tb, tc = t + h * C[0], t + h * C[1], t + h * C[2]
    (y0, y1), (s0, s1) = y, scale
    za0, za1, zb0, zb1, zc0, zc1 = z
    # w = TI z, and the real and complex parts of the Newton increment in it
    wa0, wa1 = ti00 * za0 + ti01 * zb0 + ti02 * zc0, ti00 * za1 + ti01 * zb1 + ti02 * zc1
    wb0, wb1 = ti10 * za0 + ti11 * zb0 + ti12 * zc0, ti10 * za1 + ti11 * zb1 + ti12 * zc1
    wc0, wc1 = ti20 * za0 + ti21 * zb0 + ti22 * zc0, ti20 * za1 + ti21 * zb1 + ti22 * zc1
    dw_norm_old = rate = None
    converged = False
    for k in range(NEWTON_MAXITER):
        fa0, fa1 = fun(ta, (y0 + za0, y1 + za1))
        fb0, fb1 = fun(tb, (y0 + zb0, y1 + zb1))
        fc0, fc1 = fun(tc, (y0 + zc0, y1 + zc1))
        if not (isfinite(fa0) and isfinite(fa1) and isfinite(fb0) and isfinite(fb1)
                and isfinite(fc0) and isfinite(fc1)):
            break
        v0 = ti00 * fa0 + ti01 * fb0 + ti02 * fc0 - m_real * wa0
        v1 = ti00 * fa1 + ti01 * fb1 + ti02 * fc1 - m_real * wa1
        dr0, dr1 = r00 * v0 + r01 * v1, r10 * v0 + r11 * v1
        u0 = tic0 * fa0 + tic1 * fb0 + tic2 * fc0 - m_complex * complex(wb0, wc0)
        u1 = tic0 * fa1 + tic1 * fb1 + tic2 * fc1 - m_complex * complex(wb1, wc1)
        dc0, dc1 = c00 * u0 + c01 * u1, c10 * u0 + c11 * u1
        dw_norm = math.hypot(
            dr0 / s0, dr1 / s1, dc0.real / s0, dc1.real / s1, dc0.imag / s0, dc1.imag / s1
        ) / 6**0.5
        if dw_norm_old is not None:
            rate = dw_norm / dw_norm_old
        if rate is not None and (
            rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * dw_norm > tol
        ):
            break
        wa0, wa1 = wa0 + dr0, wa1 + dr1
        wb0, wb1 = wb0 + dc0.real, wb1 + dc1.real
        wc0, wc1 = wc0 + dc0.imag, wc1 + dc1.imag
        za0, za1 = t00 * wa0 + t01 * wb0 + t02 * wc0, t00 * wa1 + t01 * wb1 + t02 * wc1
        zb0, zb1 = t10 * wa0 + t11 * wb0 + t12 * wc0, t10 * wa1 + t11 * wb1 + t12 * wc1
        zc0, zc1 = t20 * wa0 + t21 * wb0 + t22 * wc0, t20 * wa1 + t21 * wb1 + t22 * wc1
        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < tol:
            converged = True
            break
        dw_norm_old = dw_norm
    return converged, k + 1, (za0, za1, zb0, zb1, zc0, zc1), rate


def steps(fun, jac, t, y, t_bound, rtol, atol):
    """Yield each accepted step of y' = fun(t, y) from (t, y) to t_bound > t,
    as a Step; the last one ends on t_bound.

    fun(t, y) gives the rate of the pair y as a pair of floats, and jac(t, y)
    the Jacobian ((df0/dy0, df0/dy1), (df1/dy0, df1/dy1)). rtol >= 100 EPS and
    atol > 0 are the caller's to check. A step size below ten times the
    spacing of floats at t is a StiffnessError carrying the last accepted t
    and y, and so is a singular Newton matrix.
    """
    e0, e1, e2 = E
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = P
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    h_abs_old = error_norm_old = None
    newton_tol = max(10 * EPS / rtol, min(0.03, rtol**0.5))
    J = jac(t, y)
    current_jac = True
    lu_real = lu_complex = last = None
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        proposed = h_abs
        if h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        rejected = False
        (y0, y1), (f0, f1) = y, f
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    "implicit integration failed: Required step size is less than "
                    "spacing between numbers.",
                    t=t,
                    state=y,
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            if last is None:
                z0 = (0.0,) * 6
            else:
                pa0, pa1 = last(t + h * C[0])
                pb0, pb1 = last(t + h * C[1])
                pc0, pc1 = last(t + h * C[2])
                z0 = (pa0 - y0, pa1 - y1, pb0 - y0, pb1 - y1, pc0 - y0, pc1 - y1)
            scale = (atol + abs(y0) * rtol, atol + abs(y1) * rtol)
            converged = False
            while not converged:
                if lu_real is None or lu_complex is None:
                    lu_real = inverse(_newton_matrix(MU_REAL, h, J), t, y)
                    lu_complex = inverse(_newton_matrix(MU_COMPLEX, h, J), t, y)
                converged, n_iter, z, rate = _collocation(
                    fun, t, y, h, z0, scale, newton_tol, lu_real, lu_complex
                )
                if not converged:
                    if current_jac:
                        break
                    J = jac(t, y)
                    current_jac = True
                    lu_real = lu_complex = None
            if not converged:
                h_abs *= 0.5
                lu_real = lu_complex = None
                continue
            za0, za1, zb0, zb1, zc0, zc1 = z
            (r00, r01), (r10, r11) = lu_real
            yn0, yn1 = y0 + zc0, y1 + zc1
            ze0, ze1 = (e0 * za0 + e1 * zb0 + e2 * zc0) / h, (e0 * za1 + e1 * zb1 + e2 * zc1) / h
            v0, v1 = f0 + ze0, f1 + ze1
            error0, error1 = r00 * v0 + r01 * v1, r10 * v0 + r11 * v1
            s0, s1 = atol + max(abs(y0), abs(yn0)) * rtol, atol + max(abs(y1), abs(yn1)) * rtol
            error_norm = math.hypot(error0 / s0, error1 / s1) / 2**0.5
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                f_err0, f_err1 = fun(t, (y0 + error0, y1 + error1))
                v0, v1 = f_err0 + ze0, f_err1 + ze1
                error0, error1 = r00 * v0 + r01 * v1, r10 * v0 + r11 * v1
                error_norm = math.hypot(error0 / s0, error1 / s1) / 2**0.5
            if not error_norm > 1:  # as scipy, which accepts a NaN norm
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(MIN_FACTOR, safety * factor)
            lu_real = lu_complex = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            lu_real = lu_complex = None
        y_new = (yn0, yn1)
        f_new = fun(t_new, y_new)
        if recompute_jac:
            J = jac(t_new, y_new)
        current_jac = recompute_jac
        h_abs_old, error_norm_old, h_abs = proposed, error_norm, h_abs * factor
        # the collocation polynomial of each component: z times P
        q = (
            (p00 * za0 + p10 * zb0 + p20 * zc0, p01 * za0 + p11 * zb0 + p21 * zc0,
             p02 * za0 + p12 * zb0 + p22 * zc0),
            (p00 * za1 + p10 * zb1 + p20 * zc1, p01 * za1 + p11 * zb1 + p21 * zc1,
             p02 * za1 + p12 * zb1 + p22 * zc1),
        )
        last = Step(t, t_new, y, y_new, q)
        t, y, f = t_new, y_new, f_new
        yield last
