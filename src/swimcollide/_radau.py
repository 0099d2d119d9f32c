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
complex 2 x 2 system with the explicit inverse.
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
        return tuple(a * x + b * x2 + c * x3 + v for (a, b, c), v in zip(self.q, self.y_old))


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


def solve(inv, v):
    """inv times the pair v."""
    (a, b), (c, d) = inv
    return a * v[0] + b * v[1], c * v[0] + d * v[1]


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


def _combine(row, pairs):
    """sum_i row[i] pairs[i] for three pairs: one row of a 3 x 3 matrix times
    the stage pairs, as numpy's dot forms it."""
    (a0, a1), (b0, b1), (c0, c1) = pairs
    return row[0] * a0 + row[1] * b0 + row[2] * c0, row[0] * a1 + row[1] * b1 + row[2] * c1


def _collocation(fun, t, y, h, z, scale, tol, lu_real, lu_complex):
    """scipy's solve_collocation_system: the simplified Newton iteration for
    the stage increments z, from the start z. Returns (converged, n_iter, z,
    rate)."""
    m_real, m_complex = MU_REAL / h, MU_COMPLEX / h
    times = [t + h * c for c in C]
    w = [_combine(row, z) for row in TI]
    (y0, y1), (s0, s1) = y, scale
    dw_norm_old = rate = None
    converged = False
    for k in range(NEWTON_MAXITER):
        f = [fun(tc, (y0 + zi[0], y1 + zi[1])) for tc, zi in zip(times, z)]
        if not all(map(math.isfinite, f[0] + f[1] + f[2])):
            break
        f_real, f_complex = _combine(TI[0], f), _combine(TI_COMPLEX, f)
        dr0, dr1 = solve(lu_real, (f_real[0] - m_real * w[0][0], f_real[1] - m_real * w[0][1]))
        dc0, dc1 = solve(
            lu_complex,
            (
                f_complex[0] - m_complex * complex(w[1][0], w[2][0]),
                f_complex[1] - m_complex * complex(w[1][1], w[2][1]),
            ),
        )
        dw = ((dr0, dr1), (dc0.real, dc1.real), (dc0.imag, dc1.imag))
        dw_norm = math.hypot(
            dr0 / s0, dr1 / s1, dc0.real / s0, dc1.real / s1, dc0.imag / s0, dc1.imag / s1
        ) / 6**0.5
        if dw_norm_old is not None:
            rate = dw_norm / dw_norm_old
        if rate is not None and (
            rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * dw_norm > tol
        ):
            break
        w = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(w, dw)]
        z = [_combine(row, w) for row in T]
        if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < tol:
            converged = True
            break
        dw_norm_old = dw_norm
    return converged, k + 1, z, rate


def steps(fun, jac, t, y, t_bound, rtol, atol):
    """Yield each accepted step of y' = fun(t, y) from (t, y) to t_bound > t,
    as a Step; the last one ends on t_bound.

    fun(t, y) gives the rate of the pair y as a pair of floats, and jac(t, y)
    the Jacobian ((df0/dy0, df0/dy1), (df1/dy0, df1/dy1)). rtol >= 100 EPS and
    atol > 0 are the caller's to check. A step size below ten times the
    spacing of floats at t is a StiffnessError carrying the last accepted t
    and y, and so is a singular Newton matrix.
    """
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
                z0 = [(0.0, 0.0)] * 3
            else:
                z0 = [tuple(a - b for a, b in zip(last(t + h * c), y)) for c in C]
            scale = [atol + abs(v) * rtol for v in y]
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
            y_new = (y[0] + z[2][0], y[1] + z[2][1])
            ze = [v / h for v in _combine(E, z)]
            error = solve(lu_real, (f[0] + ze[0], f[1] + ze[1]))
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            error_norm = _rms(e / s for e, s in zip(error, scale))
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                f_err = fun(t, (y[0] + error[0], y[1] + error[1]))
                error = solve(lu_real, (f_err[0] + ze[0], f_err[1] + ze[1]))
                error_norm = _rms(e / s for e, s in zip(error, scale))
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
        f_new = fun(t_new, y_new)
        if recompute_jac:
            J = jac(t_new, y_new)
        current_jac = recompute_jac
        h_abs_old, error_norm_old, h_abs = proposed, error_norm, h_abs * factor
        q = tuple(zip(*(_combine(column, z) for column in zip(*P))))
        last = Step(t, t_new, y, y_new, q)
        t, y, f = t_new, y_new, f_new
        yield last
