#!/usr/bin/env python3
"""Integrator order study on the sine oracle r'' = 2 - r, r = 2 + sin(x).

Integrates four periods with every step bounded by ``max_step``, at a
tolerance loose enough that the bound sets each step, over ``--levels``
step bounds that shrink by ``--factor``; records the endpoint error and
the mean accepted step, and reports the log-log slope. A tolerance sweep
would say nothing: the order-8 pair takes the oracle's span in a handful of
steps. Exits 1 unless the slope lies in [7, 9], the order-8 pair's range.
"""

import argparse
import math
import sys

import numpy as np

from gpbacklund import SecondOrderODE, ToleranceSpec, integrate

SLOPE_RANGE = (7.0, 9.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, default=10)
    ap.add_argument("--steps0", type=float, default=16.0,
                    help="span over the first level's step bound")
    ap.add_argument("--factor", type=float, default=1.25)
    args = ap.parse_args()

    x0, span = 0.01, 8.0 * math.pi
    loose = ToleranceSpec(atol=1e-2, rtol=1e-2)
    print(f"{'max step':>10} {'steps':>7} {'mean h':>11} "
          f"{'endpoint error':>15}")
    errs, steps = [], []
    for k in range(args.levels):
        bound = span / (args.steps0 * args.factor ** k)
        sine = SecondOrderODE(rhs=lambda x, r: 2.0 - r, domain=(1e-3, 100.0),
                              max_step=bound)
        dense = integrate(sine, x0, 2.0 + math.sin(x0), math.cos(x0),
                          x0 + span, loose)
        err = abs(dense.rs[-1] - 2.0 - math.sin(x0 + span))
        h = span / dense.meta["steps"]
        errs.append(err)
        steps.append(h)
        print(f"{bound:>10.3e} {dense.meta['steps']:>7} {h:>11.3e} "
              f"{err:>15.3e}")
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    lo, hi = SLOPE_RANGE
    ok = lo <= slope <= hi
    print(f"\nlog(error) vs log(mean step) slope: {slope:.3f} "
          f"({'in' if ok else 'OUTSIDE'} [{lo:g}, {hi:g}])")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
