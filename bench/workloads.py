"""The four workloads: inputs made from a seed, one operation each, and the
check of each operation's output.

A workload holds a fixed list of operations, `ops`; one round runs them all
in order, and every round of a run repeats the same inputs. "Cold" means
`drag.cache_clear()` runs before each operation, as in the fresh process
each `swimcollide` command gets.

Inputs are spread so that the cost of a round hardly depends on the seed:
the encounter parameters move by at most 4% around the reference scenarios,
and the many-operation workloads draw their parameters stratified (one
draw per stratum, strata shuffled), so every seed covers the same ranges.
"""

import contextlib
import io
import math
import os
import random

from swimcollide import cli, drag, dynamics
from swimcollide.drag import SERIES_GAP_FLOOR, BoundaryCondition
from swimcollide.dynamics import Mode, SwimmerScenario

ENCOUNTER_T_MAX = 200.0
SQUEEZE_T_MAX = 5000.0


def _stratified(rng, n, lo, hi, log=False):
    """n draws in [lo, hi], one per equal-width stratum, in shuffled order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (b - a) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return [math.exp(x) for x in draws] if log else draws


def _summary(traj):
    return {
        "termination": traj.termination.value,
        "t_coll": traj.t_coll,
        "t_end": traj.t_end,
        "min_h": traj.min_h,
        "h_floor": traj.h_floor,
    }


def _cli(argv, tracer, name):
    span = tracer.command(name) if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"swimcollide {' '.join(argv)} exited with {code}")


class EncounterCold:
    """Cold simulate of an active pair; the kinds rotate through massless
    Navier (collision), massless no-slip (stall) and inertial Navier."""

    name = "encounter_cold"

    def __init__(self, seed, out_dir):
        rng = random.Random(f"{self.name}:{seed}")
        jitter = lambda x: x * (1.0 + 0.04 * (2.0 * rng.random() - 1.0))
        navier = BoundaryCondition.navier(jitter(0.1))
        h0, lam = jitter(0.5), jitter(1.0)
        self.ops = [
            SwimmerScenario(mode=Mode.ACTIVE, bc=navier, h0=h0, lam=lam),
            SwimmerScenario(
                mode=Mode.ACTIVE, bc=BoundaryCondition.no_slip(), h0=jitter(0.5), lam=jitter(1.0)
            ),
            SwimmerScenario(mode=Mode.ACTIVE, bc=navier, h0=h0, lam=lam, mass=0.1),
        ]

    def run(self, scenario, tracer):
        drag.cache_clear()
        return _summary(dynamics.simulate(scenario, ENCOUNTER_T_MAX))

    def check(self, scenario, out, first):
        from checks import check_encounter

        return check_encounter(scenario, out, ENCOUNTER_T_MAX)


class SqueezePassive:
    """Cold massless passive Navier approaches under a constant force, from
    inside or near the slip layer (h0 / beta in [0.3, 3])."""

    name = "squeeze_passive"
    count = 16

    def __init__(self, seed, out_dir):
        rng = random.Random(f"{self.name}:{seed}")
        betas = _stratified(rng, self.count, 0.02, 0.2, log=True)
        ratios = _stratified(rng, self.count, 0.3, 3.0, log=True)
        forces = _stratified(rng, self.count, 0.5, 2.0)
        self.ops = [
            SwimmerScenario(
                mode=Mode.PASSIVE_FORCED, bc=BoundaryCondition.navier(b), h0=b * r, f_ext=f
            )
            for b, r, f in zip(betas, ratios, forces)
        ]

    def run(self, scenario, tracer):
        drag.cache_clear()
        return _summary(dynamics.simulate(scenario, SQUEEZE_T_MAX))

    def check(self, scenario, out, first):
        from checks import check_squeeze

        return check_squeeze(scenario, out)


class SweepGrid:
    """One cold `swimcollide sweep` over an active Navier lambda x h0 grid,
    with as many worker threads as the process may use cores."""

    name = "sweep_grid"

    def __init__(self, seed, out_dir):
        rng = random.Random(f"{self.name}:{seed}")
        jitter = lambda x: x * (1.0 + 0.04 * (2.0 * rng.random() - 1.0))
        self.base = SwimmerScenario(
            mode=Mode.ACTIVE, bc=BoundaryCondition.navier(jitter(0.1)), h0=0.5
        )
        lams = sorted(jitter(x) for x in (0.9, 1.1))
        h0s = sorted(jitter(x) for x in (0.45, 0.55))
        self.grid = [(lam, h0) for lam in lams for h0 in h0s]
        self.out = os.path.join(out_dir, "sweep")
        self.config = os.path.join(out_dir, "sweep.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(
                "[scenario]\nmode = active\nbc = navier\n"
                f"beta = {self.base.bc.beta!r}\nh0 = 0.5\n"
                f"[integrator]\nt_max = {ENCOUNTER_T_MAX!r}\n"
                f"[sweep]\nlambda = {', '.join(map(repr, lams))}\n"
                f"h0 = {', '.join(map(repr, h0s))}\n"
            )
        os.environ[cli.THREADS_ENV] = str(len(os.sched_getaffinity(0)))
        self.ops = [self.config]

    def run(self, config, tracer):
        drag.cache_clear()
        _cli(["sweep", "--config", config, "--out", self.out], tracer, "cli.sweep")
        with open(os.path.join(self.out, "sweep.csv"), encoding="utf-8") as fh:
            return fh.read()

    def check(self, config, out, first):
        from checks import check_sweep

        return check_sweep(out, self.grid, self.base, first)


class DragTable:
    """Cold `swimcollide drag` tables, one per fresh (bc, beta, lambda), on a
    short log grid from 10 down to SERIES_GAP_FLOOR."""

    name = "drag_table"
    count = 16
    points = 12

    def __init__(self, seed, out_dir):
        rng = random.Random(f"{self.name}:{seed}")
        betas = _stratified(rng, self.count, 1e-3, 0.3, log=True)
        lams = _stratified(rng, self.count, 0.3, 3.0, log=True)
        self.ops = [
            ("no_slip", 0.0, lam) if k % 2 == 0 else ("navier", beta, lam)
            for k, (beta, lam) in enumerate(zip(betas, lams))
        ]
        self.out = os.path.join(out_dir, "drag")

    def run(self, op, tracer):
        bc, beta, lam = op
        drag.cache_clear()
        argv = [
            "drag", "--bc", bc, "--beta", repr(beta), "--lam", repr(lam),
            "--h-min", repr(SERIES_GAP_FLOOR), "--h-max", "10",
            "--points", str(self.points), "--out", self.out,
        ]
        _cli(argv, tracer, "cli.drag")
        with open(os.path.join(self.out, "drag_table.csv"), encoding="utf-8") as fh:
            return fh.read()

    def check(self, op, out, first):
        from checks import check_drag_table

        return check_drag_table(out, *op)


WORKLOADS = {w.name: w for w in (EncounterCold, SqueezePassive, SweepGrid, DragTable)}
