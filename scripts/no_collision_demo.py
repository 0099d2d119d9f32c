#!/usr/bin/env python3
"""Demonstrate the no-contact property of no-slip surfaces.

Two spheres squeezed together by a constant force never touch when both
surfaces are no-slip: the pair drag diverges like 1 / gap, so the gap
decays exponentially and reaches zero only at infinite time. A numerical
run always stops at some positive floor (`simulate` reports
floor_reached there, never a collision), so the property shows up two
ways, and this script checks both:

  * the time to reach a floor d grows like ln(1 / d), so the extrapolated
    time to d = 0 is infinite (the quadrature report flags the divergent
    integrand directly);
  * the scenario alone gives the rate c* = sup F / (h kappa_pass) over
    [floor, h0], and by Gronwall h(t) >= h0 exp(-c* t) with no run needed;
    c* meets the lubrication limit 2 F / (3 pi), so it stays finite as the
    floor goes to zero, and the bound holds at every recorded point.
"""

import argparse
import sys

import numpy as np

from swimcollide import (
    BoundaryCondition,
    Mode,
    SwimmerScenario,
    TerminationKind,
    collision_time_quadrature,
    decay_rate_bound,
    simulate,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h0", type=float, default=0.3, help="initial half-gap")
    ap.add_argument("--force", type=float, default=1.0, help="squeezing force")
    ap.add_argument("--t-max", type=float, default=500.0, help="time horizon")
    args = ap.parse_args(argv)

    sc = SwimmerScenario(
        mode=Mode.PASSIVE_FORCED,
        bc=BoundaryCondition.no_slip(),
        h0=args.h0,
        f_ext=args.force,
    )

    floors = [1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
    print(f"no-slip squeeze, f_ext = {args.force}, h0 = {args.h0}")
    print(f"{'floor':>8}  {'time to floor':>16}  {'ln(h0 / floor)':>16}")
    times, logs, deepest = [], [], None
    for floor in floors:
        traj = simulate(sc, t_max=args.t_max, h_floor=floor)
        if traj.termination is not TerminationKind.FLOOR_REACHED:
            print(f"{floor:>8.0e}  horizon t = {args.t_max} hit first")
            break
        times.append(traj.t_end)
        logs.append(np.log(args.h0 / floor))
        deepest = traj
        print(f"{floor:>8.0e}  {traj.t_end:>16.6f}  {logs[-1]:>16.6f}")
    if deepest is None:
        print("raise --t-max so at least one floor is reached")
        return 1

    if len(times) >= 3:
        # Linear growth of time in ln(1 / floor) is the stall signature:
        # each extra decade of approach costs the same fixed time.
        slope = np.polyfit(logs, times, 1)[0]
        print()
        print(f"time to floor grows ~ {slope:.4f} * ln(h0 / floor)")
        print("extrapolated time to zero gap: infinite")

    quad = collision_time_quadrature(sc, h_floor=floors[-1])
    print()
    print(
        f"quadrature flags a divergent dt / dh integrand at the floor:"
        f" {quad.diverged} (local exponent {quad.tail_exponent:.3f})"
    )

    rate = decay_rate_bound(sc, h_floor=deepest.h_floor)
    bound = lambda t: args.h0 * np.exp(-rate * t) * (1.0 - 1e-12)
    holds = all(p.h >= bound(p.t) for p in deepest.points)
    lubrication = rate * 3.0 * np.pi / (2.0 * args.force)
    print()
    print(f"a priori lower bound: h(t) >= {args.h0} * exp(-{rate:.6f} t)")
    print(f"rate / lubrication limit 2 f_ext / (3 pi): {lubrication:.6f}")
    print(f"bound holds at all {len(deepest.points)} recorded points: {holds}")
    return 0 if holds and abs(lubrication - 1.0) <= 1e-3 and quad.diverged else 1


if __name__ == "__main__":
    sys.exit(main())
