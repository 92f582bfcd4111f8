#!/usr/bin/env python3
"""Sweep the (m1, m2) mass plane and print an ASCII phase portrait.

One glyph per grid cell: 'b' bounded below, 'U' unbounded below, 'r'
radially bounded, 'e' exists, '.' not covered, '?' undecided.  A verdict
census and the analytic curve inventory follow the map.
"""

import argparse
import collections

from conflictlab.model import Params
from conflictlab.phase import sweep

GLYPHS = {
    "BoundedBelow": "b",
    "UnboundedBelow": "U",
    "RadiallyBounded": "r",
    "Exists": "e",
    "NotCovered": ".",
    "Unknown": "?",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--theta", type=int, default=-1, choices=(-1, 1))
    ap.add_argument("--m1-max", type=float, default=40.0)
    ap.add_argument("--m2-max", type=float, default=40.0)
    ap.add_argument("--resolution", type=int, default=60)
    return ap.parse_args()


def main():
    args = parse_args()
    p = Params(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        theta=args.theta,
        m1=1.0,
        m2=0.0,
    )
    res = sweep(p, (0.0, args.m1_max), (0.0, args.m2_max), args.resolution)

    print(f"m1 in ({res.m1s[0]:g}, {res.m1s[-1]:g}], m2 in [0, {res.m2s[-1]:g}], "
          f"{args.resolution}x{args.resolution}")
    for j in reversed(range(res.m2s.size)):
        row = "".join(GLYPHS[v] for v in res.verdicts[:, j])
        print(f"  m2={res.m2s[j]:7.3f} |{row}|")

    census = collections.Counter(res.verdicts.ravel().tolist())
    print("verdicts:")
    for name, count in census.most_common():
        print(f"  {GLYPHS[name]} {name:16s} {count:6d}")
    print("curves:")
    for name, pts in sorted(res.curves.items()):
        print(f"  {name:18s} {pts.shape[0]:5d} points")


if __name__ == "__main__":
    main()
