#!/usr/bin/env python3
"""March the single-species mass toward the critical value 8 pi / alpha.

At each rung m = (8 pi / alpha)(1 - 2^-k) the solver output is compared
with the closed-form bubble height (2/alpha) ln(1 + delta), where
delta = alpha m / (8 pi - alpha m).  The table shows how iteration
counts and discretization error grow as the peak sharpens.
"""

import argparse
import math

import numpy as np

from conflictlab.liouville import solve_single
from conflictlab.model import make_grid

EIGHT_PI = 8.0 * math.pi


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--depth", type=int, default=8, help="deepest rung k")
    ap.add_argument("--grid-n", type=int, default=4096)
    ap.add_argument("--grid-kind", choices=("uniform", "graded"), default="uniform")
    return ap.parse_args()


def main():
    args = parse_args()
    grid = make_grid(args.grid_n, kind=args.grid_kind)
    m_crit = EIGHT_PI / args.alpha

    print(f"{'k':>3s} {'m/m_crit':>10s} {'sup u':>12s} {'exact':>12s} "
          f"{'rel gap':>10s} {'iters':>6s} {'residual':>10s}")
    for k in range(1, args.depth + 1):
        m = m_crit * (1.0 - 2.0**-k)
        sol = solve_single(m, args.alpha, grid)
        delta = args.alpha * m / (EIGHT_PI - args.alpha * m)
        exact = (2.0 / args.alpha) * math.log1p(delta)
        sup = float(np.max(sol.u1.values))
        print(f"{k:3d} {1.0 - 2.0**-k:10.6f} {sup:12.6f} {exact:12.6f} "
              f"{abs(sup - exact) / exact:10.2e} {sol.iterations:6d} "
              f"{sol.residual:10.2e}")


if __name__ == "__main__":
    main()
