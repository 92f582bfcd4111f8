#!/usr/bin/env python3
"""Measured blow-down energy slopes against their closed-form coefficient.

Scans m1 at fixed m2, fits the joint free energy of the standard smooth
family against ln(psi), and compares the fitted slope with the ln s
coefficient of phase.blowdown_coefficients: Lambda(m1, m2) where the
chemical log term applies and Lambda2 where it does not.  The sign flip of
either column locates the unboundedness onset along the scan line.
"""

import argparse

import numpy as np

from conflictlab.blowdown import BlowdownFamily, slope_estimate
from conflictlab.cli import _base_fields
from conflictlab.model import Params, make_grid
from conflictlab.phase import blowdown_coefficients


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--gamma", type=float, default=0.0)
    ap.add_argument("--m2", type=float, default=1.0)
    ap.add_argument("--m1-start", type=float, default=10.0)
    ap.add_argument("--m1-stop", type=float, default=35.0)
    ap.add_argument("--count", type=int, default=11)
    ap.add_argument("--grid-n", type=int, default=2048)
    ap.add_argument("--rungs", type=int, default=8, help="dyadic psi rungs, from 2^3")
    return ap.parse_args()


def main():
    args = parse_args()
    grid = make_grid(args.grid_n, kind="graded")
    psis = 2.0 ** np.arange(3, 3 + args.rungs)

    print(f"{'m1':>8s} {'coef':>12s} {'slope':>12s} {'rel gap':>10s}")
    for m1 in np.linspace(args.m1_start, args.m1_stop, args.count):
        p = Params(
            alpha=args.alpha,
            beta=args.beta,
            gamma=args.gamma,
            theta=-1,
            m1=float(m1),
            m2=args.m2,
        )
        rho, w = _base_fields(grid, p)
        slope = slope_estimate(BlowdownFamily(rho, w, psis=psis), p)
        coef = float(blowdown_coefficients(p.m1, p.m2, p)[0])
        gap = abs(slope - coef) / max(1.0, abs(coef))
        print(f"{m1:8.3f} {coef:12.6f} {slope:12.6f} {gap:10.2e}")


if __name__ == "__main__":
    main()
