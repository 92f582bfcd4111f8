#!/usr/bin/env python3
"""Convergence of the annulus concentration ratio as psi shrinks.

For each psi the inner-region profile is integrated and the ratio is
reported against its closed-form limit (m2 / 2 pi)^2, together with the
energy-invariant drift of the integration.
"""

import argparse
import math

from conflictlab.annulus_ode import AnnulusParams, asymptotic_ratio, integrate_annulus


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--beta-m", type=float, default=10.0 * math.pi)
    ap.add_argument("--m2", type=float, default=2.0 * math.pi)
    ap.add_argument(
        "--psis",
        type=lambda s: [float(x) for x in s.split(",")],
        default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
    )
    ap.add_argument("--grid-n", type=int, default=4096)
    return ap.parse_args()


def main():
    args = parse_args()
    limit = (args.m2 / (2.0 * math.pi)) ** 2

    print(f"limit (m2/2pi)^2 = {limit:.10f}")
    print(f"{'psi':>10s} {'ratio':>16s} {'rel gap':>10s} {'drift':>10s}")
    for psi in args.psis:
        lp = AnnulusParams(gamma=args.gamma, beta_m=args.beta_m, m2=args.m2, psi=psi)
        ratio = asymptotic_ratio(lp, n=args.grid_n)
        drift = integrate_annulus(lp, n=args.grid_n).energy_drift
        print(f"{psi:10.1e} {ratio:16.10f} {abs(ratio - limit) / limit:10.2e} "
              f"{drift:10.2e}")


if __name__ == "__main__":
    main()
