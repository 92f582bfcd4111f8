#!/usr/bin/env python3
"""Scan steady pair solves over a grid of the mass plane.

Solves the system at alpha = 1, beta = 2, gamma = 1 for every m1 in
linspace(0, 25, 12)[1:] and every m2 in linspace(0, 40, 13): 143 points,
of which the 13 at m1 = 25 sit just below 8 pi / alpha.  Each failed solve
is printed with its error, then the iteration counts of the converged ones
as a table (one row per m1, '-' for a failure) and the failure count.
"""

import argparse

import numpy as np

from conflictlab.errors import SolverDiverged
from conflictlab.liouville import solve_pair
from conflictlab.model import Params, make_grid

M1S = np.linspace(0.0, 25.0, 12)[1:]
M2S = np.linspace(0.0, 40.0, 13)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=int, choices=(-1, 1), default=1)
    ap.add_argument("--grid-n", type=int, default=1024)
    return ap.parse_args()


def main():
    args = parse_args()
    grid = make_grid(args.grid_n)
    iterations = {}
    failures = 0
    for m1 in M1S:
        for m2 in M2S:
            p = Params(1.0, 2.0, 1.0, args.theta, float(m1), float(m2))
            try:
                iterations[m1, m2] = solve_pair(p, grid).iterations
            except SolverDiverged as err:
                failures += 1
                print(f"failed m1={m1:g} m2={m2:g}: {type(err).__name__}: {err}")
    print("m1 \\ m2" + "".join(f"{m2:6.1f}" for m2 in M2S))
    for m1 in M1S:
        cells = (f"{iterations.get((m1, m2), '-'):>6}" for m2 in M2S)
        print(f"{m1:7.2f}" + "".join(cells))
    print(f"{failures} of {M1S.size * M2S.size} failed")


if __name__ == "__main__":
    main()
