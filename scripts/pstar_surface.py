#!/usr/bin/env python3
"""Scan the log-kernel surface of the pencil-divisor model over the base.

The weight is 2 log|z1 - w z2| on the unit bidisc and the functional reads
the z2-coefficient at the origin.  The surface has the closed form
log K(w) = 2 log|w| - 2 log(pi), which the script prints alongside the
numerical value so convergence is visible at a glance.  Exits 1 when the
worst error away from w = 0 exceeds TOL.
"""

import argparse
import csv
import math
import sys

from xibergman.family import FunctionalFamily, PolyW
from xibergman.fiberwise import FamilyProblem, log_kernel_on_fiber, square_grid
from xibergman.weights import JointLogDivisor, Polydisc

#: largest accepted |logK - closed form|; the degree-6 model reaches ~1e-15
TOL = 1e-8


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=float, default=0.6)
    ap.add_argument("--count", type=int, default=15)
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--out", default="pstar_surface.csv")
    args = ap.parse_args()

    g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
    family = FunctionalFamily(2, 1, {(0, 1): PolyW.constant(1.0, 1)})
    problem = FamilyProblem(
        Polydisc((1.0, 1.0)), Polydisc((1.0,)), JointLogDivisor(g, 2), family,
        args.degree,
    )

    grid = square_grid(args.half_width, args.count)
    # one batched call: every fiber shares the Gram of the unweighted moments
    surface = log_kernel_on_fiber(problem, [[w] for w in grid], (0.0, 0.0))
    errors = []
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w_re", "w_im", "logK", "closed_form", "abs_error"])
        for w, lk in zip(grid, surface.tolist()):
            if w == 0:
                expect, err = -math.inf, 0.0
            else:
                expect = 2 * math.log(abs(w)) - 2 * math.log(math.pi)
                err = abs(lk - expect)
                errors.append(err)
            writer.writerow([w.real, w.imag, lk, expect, err])
    print(f"wrote {args.count ** 2} rows to {args.out}")
    worst = max(errors, default=0.0)
    print(f"max |logK - closed form| away from 0: {worst:.3e}")
    # a NaN error fails too: it compares false with TOL
    if not all(err <= TOL for err in errors):
        print(f"FAIL: an error exceeds {TOL:.0e} or is NaN", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
