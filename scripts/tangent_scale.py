#!/usr/bin/env python3
"""Time stability.tangent_dim on representations larger than the
benchmark's: for each space, random_rep(space, Random(seed), max_dim=5,
max_vertices=14) for seeds 0, 1, 2, ..., keeping the first --count reps
with at least 8 vertices (at most 50 seeds per rep asked for).  Prints
per space the reps kept, their vertices and total dimension, the sum of
their tangent dimensions (equal before and after any change that keeps
the answers) and the sum over the reps of the fastest of --repeat calls
on each, which host drift moves less than the time of a whole pass.

Usage: python3 scripts/tangent_scale.py [--spaces p:3 p:4 gr:1,3 gr:1,4 gr:2,5]
       [--count 30] [--repeat 5]
"""

import argparse
import random
import time

from quivercoh import stability
from quivercoh.cli import parse_space
from quivercoh.generate import random_rep

MIN_VERTICES = 8


def reps_for(space, count):
    reps = []
    for seed in range(50 * count):
        rep = random_rep(space, random.Random(seed), max_dim=5, max_vertices=14)
        if len(rep.vertices) >= MIN_VERTICES:
            reps.append(rep)
            if len(reps) == count:
                break
    return reps


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spaces", nargs="+", default=["p:3", "p:4", "gr:1,3", "gr:1,4", "gr:2,5"])
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'space':<8} {'reps':>4} {'vertices':>8} {'dim':>5} {'tangent':>7} {'seconds':>8}")
    for spec in args.spaces:
        reps = reps_for(parse_space(spec), args.count)
        tangent = seconds = 0
        for rep in reps:
            best = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                answer = stability.tangent_dim(rep)
                best = min(best, time.perf_counter() - start)
            tangent += answer
            seconds += best
        vertices = sum(len(rep.vertices) for rep in reps)
        dim = sum(sum(rep.dims()) for rep in reps)
        print(f"{spec:<8} {len(reps):>4} {vertices:>8} {dim:>5} {tangent:>7} {seconds:>8.3f}")


if __name__ == "__main__":
    main()
