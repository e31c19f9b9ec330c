#!/usr/bin/env python3
"""Generate random relation-satisfying representations and confirm the
engine's structural guarantees on each: differentials square to zero,
the one-step truncation is a complex, the alternating sum of dimensions
matches the graded bundle, and the sign gauge does not affect tables.

Usage: python3 scripts/random_complex_experiment.py [--space gr:1,3]
       [--count 100] [--seed 7]
"""

import argparse
import random

from quivercoh import cohomology, quiver
from quivercoh.bott import chamber_key, chamber_vertices
from quivercoh.cli import parse_space
from quivercoh.generate import random_rep


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--space", default="p:2")
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    space = parse_space(args.space)
    rng = random.Random(args.seed)
    twist = frozenset({chamber_key(space, chamber_vertices(space)[1][0])})
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
        assert table.rows == cohomology.cohomology(rep, gauge_twist=twist).rows
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
