#!/usr/bin/env python3
"""Sweep the four-class construction and watch the io-closure pair separate.

For class sizes (k^2, k, 1, 1) the cross-class closed forms predict the
two average io-closure coefficients drifting to opposite extremes as k
grows. The sweep prints those claimed values next to the engine-computed
averages, which include same-class wedge tails and therefore tell a
different story for k > 1.

Example:
    python3 scripts/extremal_sweep.py --max-k 8
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dirclosure import (  # noqa: E402
    IN,
    OUT,
    CoefficientKey,
    ExtremalSpec,
    average_closure,
    build_extremal,
    census,
    claimed_io_closure,
)

KEY_IOI = CoefficientKey(IN, OUT, IN)
KEY_IOO = CoefficientKey(IN, OUT, OUT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=8)
    parser.add_argument("--swap", action="store_true", help="use sizes (k, k^2, 1, 1) instead")
    args = parser.parse_args()

    print(f"{'k':>3} {'classes':>16} {'n':>5} {'m':>6} "
          f"{'claim io_i':>10} {'claim io_o':>10} {'calc io_i':>10} {'calc io_o':>10}")
    for k in range(1, args.max_k + 1):
        sizes = (k, k * k, 1, 1) if args.swap else (k * k, k, 1, 1)
        spec = ExtremalSpec(*sizes)
        graph = build_extremal(spec)
        claimed_i, claimed_o = claimed_io_closure(spec)
        averages = average_closure(census(graph))
        print(
            f"{k:>3} {str(sizes):>16} {graph.n:>5} {graph.m:>6} "
            f"{claimed_i:>10.4f} {claimed_o:>10.4f} "
            f"{averages[KEY_IOI]:>10.4f} {averages[KEY_IOO]:>10.4f}"
        )
    print("\nclaimed = cross-class closed form; calc = full wedge census. They agree")
    print("only when every class is a singleton: larger classes add io-wedges whose")
    print("tail sits in the head's own class, which the closed form leaves out.")


if __name__ == "__main__":
    main()
