#!/usr/bin/env python3
"""Locate the degeneracy locus of a fiber ideal inclusion on a base grid.

Runs the annihilator pipeline for the ideal generated by z1 under the
pencil-divisor weight 2 log|z1 - w z2|, scans Psi_N over a square grid,
cross-checks the -inf locus against direct generator membership, and
verifies Krull nesting of the loci as the jet order grows.
"""

import argparse
import sys

from xibergman.family import PolyW
from xibergman.fiberwise import square_grid
from xibergman.ideal import IdealFamily, krull_stabilize
from xibergman.weights import JointLogDivisor


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=float, default=0.6)
    ap.add_argument("--count", type=int, default=9)
    ap.add_argument("--n-max", type=int, default=3)
    ap.add_argument("--degree", type=int, default=6)
    args = ap.parse_args()

    fam = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0})], 2)
    weight = JointLogDivisor(PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0}), 2)
    grid = square_grid(args.half_width, args.count)

    krull = krull_stabilize(fam, weight, grid, args.n_max, degree=args.degree)
    scan = krull.per_n[fam.truncation]  # the scan at N = 2, one of its orders
    print(f"grid points: {len(grid)}  skipped (outside U): {len(scan.skipped)}")
    print(f"cross-checks agree: {scan.agree}")
    print(f"degeneracy locus: {[w[0] for w in scan.lambda_points()]}")

    sizes = {N: len(s.lambda_psi) for N, s in krull.per_n.items()}
    print(f"locus size per jet order: {sizes}")
    print(f"nested: {krull.nested}  stabilized at N = {krull.stabilized_at}")
    return 0 if scan.agree and krull.nested else 1


if __name__ == "__main__":
    sys.exit(main())
