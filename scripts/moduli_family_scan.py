#!/usr/bin/env python3
"""Scan the seven-vertex family on the projective plane whose moduli
space is a line: sample the four defining maps, print the invariant pair
(S, T), the branch classification, and the tangent dimension.

Usage: python3 scripts/moduli_family_scan.py [--samples 12] [--seed 3]
"""

import argparse
import random
from fractions import Fraction

from quivercoh import stability
from quivercoh.generate import ex73_rep


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)

    def vec():
        return [[Fraction(rng.randint(-2, 2))], [Fraction(rng.randint(-2, 2))]]

    def covec():
        return [[Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]]

    print(f"{'S':>8} {'T':>8}  branch          tangent")
    for _ in range(args.samples):
        rep = ex73_rep(vec(), vec(), covec(), covec())
        inv = stability.ex73_invariants(rep)
        tangent = stability.tangent_dim(rep)
        flag = "  (middle row destabilizes)" if inv.middle_destabilized else ""
        print(f"{str(inv.s):>8} {str(inv.t):>8}  {inv.branch:<14} {tangent}{flag}")


if __name__ == "__main__":
    main()
