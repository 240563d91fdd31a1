#!/usr/bin/env python3
"""Orbit experiment: apply a schedule of transforms to a generic seed.

Integrates a seed solution of the reduced amplitude equation from initial
data that is NOT on the closed form, applies the transformation for each
partial sum of the K schedule, and tabulates the equation residual and the
fixed-point deviation of every orbit element. Optionally writes one CSV per
element.

Example:
    python scripts/orbit_experiment.py --n 1 --eta 1.0 --bump 1.2 \
        --k-schedule 0.25,0.25,0.5 --out-dir out/
"""

import argparse
from pathlib import Path

import numpy as np

from gpbacklund import (ClosedFormSolution, GPParams, LiouvilleSolution,
                        ShiftMap, ToleranceSpec, gp_rhs, is_fixed_point, orbit,
                        residual_max)
from gpbacklund.cli import write_solution_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--eta", type=float, default=1.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--v", type=float, default=1.0)
    ap.add_argument("--bump", type=float, default=1.15,
                    help="amplitude factor off the closed form at x0")
    ap.add_argument("--x-lo", type=float, default=1.0)
    ap.add_argument("--x-hi", type=float, default=2.3)
    ap.add_argument("--points", type=int, default=4001)
    ap.add_argument("--k-schedule", default="0.25,0.25,0.5")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--out-dir", default=None,
                    help="write per-element CSVs here")
    args = ap.parse_args()

    k_schedule = [float(tok) for tok in args.k_schedule.split(",")]
    p = GPParams.constrained(n=args.n, eta=args.eta, c=args.c, v=args.v)
    ode = gp_rhs(p)
    (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(args.x_lo)

    cover_hi = float(ShiftMap(p.g, sum(k for k in k_schedule if k > 0))
                     .f(args.x_hi)) + 0.05
    # as the CLI builds an integrated seed: in t = G(x), read back in x
    seed = LiouvilleSolution(p, args.x_lo, args.bump * r0, args.bump * rp0,
                             args.x_lo, cover_hi,
                             ToleranceSpec(args.tol, args.tol))
    xs = np.linspace(args.x_lo, args.x_hi, args.points)
    rs = seed.eval_with_derivative(xs)[0]
    print(f"seed: {seed.meta['steps']} steps in t = G(x) over "
          f"[{seed.domain[0]:g}, {seed.domain[1]:g}], "
          f"r in [{rs.min():.4f}, {rs.max():.4f}] on the grid")

    grids = orbit(p.g, k_schedule, seed, xs)
    print(f"{'j':>3} {'K_sum':>8} {'points':>7} {'residual_max':>13} "
          f"{'fp_deviation':>13}")
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for j, grid in enumerate(grids, start=1):
        # as the CLI checks: the grid's own f' and r0(f), and rs at its xs
        fp = is_fixed_point(rs[np.searchsorted(xs, grid.xs)], grid.r0_f,
                            grid.f_prime)
        print(f"{j:>3} {grid.meta['K']:>8.3f} {len(grid):>7} "
              f"{residual_max(ode, grid):>13.3e} {fp.deviation:>13.3e}")
        if out_dir:
            write_solution_csv(out_dir / f"orbit_k{j}.csv", grid)
    if out_dir:
        print(f"wrote {len(grids)} CSVs to {out_dir}/")


if __name__ == "__main__":
    main()
