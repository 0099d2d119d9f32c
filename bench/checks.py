"""Correctness checks of the benchmark's outputs against oracles built apart
from `dynamics` and `drag`.

The oracles call `series.passive_drag` and `series.propulsion_drag` directly
and rebuild the documented drag model on top of them:

* kappa_pass: the series for h >= beta under Navier slip, and
  kappa_series(beta) * (1 + ln(beta / h)) below it; under no slip the series
  down to SERIES_GAP_FLOOR and kappa_series(floor) * floor / h below it;
* kappa_prop: the no-slip series at max(h, SERIES_GAP_FLOOR) for both models.

A massless approach then takes T = int dh kappa_pass / F(h), evaluated with
`scipy.integrate.quad` in ln h, split where the model changes form. Every
check returns a list of problems; an empty list means the output is right.
"""

import csv
import io
import math
from functools import lru_cache

from scipy.integrate import quad

from swimcollide import series
from swimcollide.drag import SERIES_GAP_FLOOR

MASSLESS_RTOL = 1e-6  # massless active t_coll / t_end against the quadrature
PASSIVE_RTOL = 1e-5  # criterion 7 (a): passive t_coll against the closed form
TABLE_RTOL = 1e-12  # drag table rows against the series they were built from
CONTACT_RTOL = 1e-3  # h kappa_pass -> 3 pi / 2 at the smallest no-slip gap
LUBRICATION = 1.5 * math.pi


@lru_cache(maxsize=None)
def series_pass(h):
    return series.passive_drag(h)


@lru_cache(maxsize=None)
def series_prop(h, lam):
    return series.propulsion_drag(h, lam)


def oracle_kappa_pass(h, beta):
    if beta > 0.0:
        if h >= beta:
            return series_pass(h)
        return series_pass(beta) * (1.0 + math.log(beta / h))
    if h >= SERIES_GAP_FLOOR:
        return series_pass(h)
    return series_pass(SERIES_GAP_FLOOR) * SERIES_GAP_FLOOR / h


def oracle_kappa_prop(h, lam):
    return series_prop(max(h, SERIES_GAP_FLOOR), lam)


def massless_active_time(h_lo, h_hi, beta, lam, f_p):
    """Time for a massless active pair to close the gap from h_hi to h_lo."""

    def integrand(u):
        h = math.exp(u)
        return h * oracle_kappa_pass(h, beta) / (f_p * (1.0 - oracle_kappa_prop(h, lam)))

    lo, hi = math.log(h_lo), math.log(h_hi)
    cuts = sorted(math.log(x) for x in (beta, SERIES_GAP_FLOOR) if x > 0.0)
    nodes = [lo] + [c for c in cuts if lo < c < hi] + [hi]
    return sum(
        quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(nodes, nodes[1:])
    )


def passive_contact_time(beta, h0, h_floor, f_ext):
    """Criterion 7 (a): the blend's closed-form contact time under a constant
    squeezing force, from any h0 (inside the slip layer too) down to h_floor."""
    outer = 0.0
    if h0 > beta:
        outer = quad(
            lambda u: series_pass(math.exp(u)) * math.exp(u),
            math.log(beta),
            math.log(h0),
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )[0]
    layer = lambda x: x * (2.0 + math.log(beta / x))
    inner = series_pass(beta) * (layer(min(h0, beta)) - layer(h_floor))
    return (outer + inner) / f_ext


def _rel(a, b):
    return abs(a - b) / abs(b)


def _beta(scenario):
    return scenario.bc.beta if scenario.bc.slips else 0.0


def check_encounter(scenario, out, t_max):
    """out: dict with termination, t_coll, t_end, min_h, h_floor. Navier and
    inertial runs must collide; a massless no-slip run must stall."""
    beta = _beta(scenario)
    if beta > 0.0 or scenario.mass > 0.0:
        if out["termination"] != "collision":
            return [f"run ended in {out['termination']}, not collision"]
        massless = massless_active_time(
            out["h_floor"], scenario.h0, beta, scenario.lam, scenario.f_p
        )
        if scenario.mass > 0.0:
            lag = scenario.mass / oracle_kappa_pass(scenario.h0, beta)
            if abs(out["t_coll"] - massless) > lag:
                return [
                    f"inertial t_coll {out['t_coll']!r} is {out['t_coll'] - massless:.3e} "
                    f"from the massless {massless!r}, beyond m / kappa_pass(h0) = {lag:.3e}"
                ]
            return []
        err = _rel(out["t_coll"], massless)
        if err > MASSLESS_RTOL:
            return [f"t_coll {out['t_coll']!r} vs quadrature {massless!r}: rel {err:.2e}"]
        return []
    if out["termination"] != "horizon_reached" or out["min_h"] <= out["h_floor"]:
        return [
            f"no-slip run ended in {out['termination']} at min_h {out['min_h']!r}, "
            "not a stall above the floor"
        ]
    if out["t_end"] != t_max:
        return [f"no-slip run stopped at t = {out['t_end']!r}, not the horizon {t_max}"]
    stall = massless_active_time(out["min_h"], scenario.h0, 0.0, scenario.lam, scenario.f_p)
    err = _rel(stall, out["t_end"])
    if err > MASSLESS_RTOL:
        return [f"time to min_h by quadrature {stall!r} vs t_end {out['t_end']!r}: rel {err:.2e}"]
    return []


def check_squeeze(scenario, out):
    if out["termination"] != "collision":
        return [f"passive run ended in {out['termination']}, not collision"]
    closed = passive_contact_time(scenario.bc.beta, scenario.h0, out["h_floor"], scenario.f_ext)
    err = _rel(out["t_coll"], closed)
    if err > PASSIVE_RTOL:
        return [f"t_coll {out['t_coll']!r} vs closed form {closed!r}: rel {err:.2e}"]
    return []


def check_sweep(text, grid, base, reference):
    """text: sweep.csv of one run; grid: (lambda, h0) pairs in grid order;
    base: the scenario the axes override; reference: the first run's text."""
    problems = []
    if reference is not None and text != reference:
        problems.append("sweep.csv differs from the first run of the same grid")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} rows for {len(grid)} grid points"]
    beta = base.bc.beta
    for i, (row, (lam, h0)) in enumerate(zip(rows, grid)):
        where = f"row {i}"
        if (row["index"], float(row["lambda"]), float(row["h0"])) != (str(i), lam, h0):
            problems.append(f"{where} is ({row['index']}, {row['lambda']}, {row['h0']}), "
                            f"not grid point ({i}, {lam!r}, {h0!r})")
            continue
        if row["status"] != "ok" or row["termination"] != "collision":
            problems.append(f"{where}: status {row['status']}, termination {row['termination']}")
            continue
        kp = float(row["kappa_pass_h0"])
        if _rel(kp, oracle_kappa_pass(h0, beta)) > TABLE_RTOL:
            problems.append(f"{where}: kappa_pass_h0 {kp!r} vs series")
        t_coll = float(row["t_coll"])
        expect = massless_active_time(float(row["min_h"]), h0, beta, lam, base.f_p)
        err = _rel(t_coll, expect)
        if err > MASSLESS_RTOL:
            problems.append(f"{where}: t_coll {t_coll!r} vs quadrature {expect!r}: rel {err:.2e}")
    return problems


def check_drag_table(text, bc_kind, beta, lam):
    """text: drag_table.csv of one `drag` command on a grid from 10 down to
    SERIES_GAP_FLOOR."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) < 2:
        return [f"{len(rows)} rows"]
    h = [float(r["h"]) for r in rows]
    kp = [float(r["kappa_pass"]) for r in rows]
    kq = [float(r["kappa_prop"]) for r in rows]
    problems = []
    if any(b <= a for a, b in zip(h, h[1:])):
        problems.append("gaps are not increasing")
    if any(b >= a for a, b in zip(kp, kp[1:])):
        problems.append("kappa_pass does not fall strictly with h")
    if not all(0.0 < k < 1.0 for k in kq):
        problems.append("kappa_prop leaves (0, 1)")
    # Method of reflections, exact to O(d^-3) in the centre distance d.
    d = 2.0 + 2.0 * h[-1]
    reflection = 6.0 * math.pi / (1.0 - 3.0 / (2.0 * d))
    if _rel(kp[-1], reflection) > 2.0 / d**3:
        problems.append(f"kappa_pass({h[-1]!r}) = {kp[-1]!r} vs reflection {reflection!r}")
    if bc_kind == "no_slip" and _rel(h[0] * kp[0], LUBRICATION) > CONTACT_RTOL:
        problems.append(f"h kappa_pass at h = {h[0]!r} is {h[0] * kp[0]!r}, not 3 pi / 2")
    slip = beta if bc_kind == "navier" else 0.0
    for i, (hi, a, b, row) in enumerate(zip(h, kp, kq, rows)):
        exact = hi >= SERIES_GAP_FLOOR and (slip == 0.0 or hi >= slip)
        want = "exact_series" if exact else "asymptotic_model"
        if row["provenance"] != want:
            problems.append(f"row {i} (h = {hi!r}) tagged {row['provenance']}, want {want}")
        if _rel(a, oracle_kappa_pass(hi, slip)) > TABLE_RTOL:
            problems.append(f"row {i}: kappa_pass {a!r} vs {oracle_kappa_pass(hi, slip)!r}")
        if _rel(b, oracle_kappa_prop(hi, lam)) > TABLE_RTOL:
            problems.append(f"row {i}: kappa_prop {b!r} vs {oracle_kappa_prop(hi, lam)!r}")
    return problems
