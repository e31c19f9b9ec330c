#!/usr/bin/env python3
"""Generate random relation-satisfying representations and confirm the
engine's structural guarantees on each: differentials square to zero,
the one-step truncation is a complex, the alternating sum of dimensions
matches the graded bundle, and the same rep read on the transposed
Grassmannian Gr(n - k - 1, n), where every chamber, mirror and sign
differs, has the same table with each module reversed.

Usage: python3 scripts/random_complex_experiment.py [--space gr:1,3]
       [--count 100] [--seed 7]
"""

import argparse
import random

from quivercoh import cohomology, quiver, rootsys
from quivercoh.cli import parse_space
from quivercoh.generate import random_rep


def transpose_rep(rep):
    """rep on Gr(n - k - 1, n): weights reversed, each box (p, q) read
    as (q, p), matrices kept."""
    space = rootsys.space(rep.space.n - rep.space.k - 1, rep.space.n)
    vertices = [(v.weight[::-1], v.dim) for v in rep.vertices]
    arrows = [(a.src, a.dst, a.box[::-1], a.matrix) for a in rep.arrows]
    return quiver.make_rep(space, vertices, arrows)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--space", default="p:2")
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    space = parse_space(args.space)
    rng = random.Random(args.seed)
    stats = {"vertices": 0, "arrows": 0, "nonzero_tables": 0}
    for i in range(args.count):
        rep = random_rep(space, rng)
        assert quiver.check_relations(rep) == []
        cohomology.build_complex(rep)
        assert cohomology.truncated_complex(rep, 1).is_complex
        table = cohomology.cohomology(rep)
        assert (
            table.euler_characteristic()
            == cohomology.graded_table(rep).euler_characteristic()
        )
        transposed = cohomology.cohomology(transpose_rep(rep)).rows
        assert transposed == tuple(sorted(r._replace(nu=r.nu[::-1]) for r in table.rows))
        stats["vertices"] += len(rep.vertices)
        stats["arrows"] += len(rep.arrows)
        stats["nonzero_tables"] += 0 if table.is_empty() else 1
    print(
        f"{args.count} representations on {args.space}: all checks passed "
        f"({stats['vertices']} vertices, {stats['arrows']} arrows, "
        f"{stats['nonzero_tables']} nonvanishing tables)"
    )


if __name__ == "__main__":
    main()
