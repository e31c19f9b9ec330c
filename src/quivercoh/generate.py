"""Seeded generators of representations for the tests and the
experiment scripts (the package ``__init__`` and the CLI do not import
this module)."""

from __future__ import annotations

from fractions import Fraction

from . import quiver, rootsys
from .linalg import SpanBasis, mat, matmul
from .quiver import QuiverRep, make_rep


def _rand_frac(rng, zero_weight_chance=0.2):
    if rng.random() < zero_weight_chance:
        return Fraction(0)
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_support(space, rng, max_vertices=6, depth=3):
    """Connected-by-translation support: closure of a random base vertex
    under a few random arrow steps."""
    while True:
        base = []
        for i in range(space.rank):
            if i == space.k:
                base.append(rng.randint(-3, 2))
            else:
                base.append(rng.randint(0, 3))
        base = tuple(base)
        if rootsys.in_d1(space, base):
            break
    support = {base}
    frontier = [base]
    for _ in range(depth):
        new = []
        for w in frontier:
            for _, target in quiver.arrows_from(space, w):
                if target not in support and rng.random() < 0.8:
                    support.add(target)
                    new.append(target)
                if len(support) >= max_vertices:
                    break
            if len(support) >= max_vertices:
                break
        frontier = new
        if len(support) >= max_vertices:
            break
    return sorted(support)


def random_rep(space, rng, max_dim=2, max_vertices=6) -> QuiverRep:
    """Random relation-satisfying representation: dimensions are random,
    arrows are filled in level by level, each level drawn from the
    solution space of the relation constraints given the previous one.

    The constraints on one level are the relation Jacobian over its
    arrows at the representation assigned so far: relations are bilinear
    in consecutive levels and the later levels are still zero, so rows
    of relations from other levels vanish."""
    support = random_support(space, rng, max_vertices=max_vertices)
    dims = {w: rng.randint(1, max_dim) for w in support}
    vertices = [(w, dims[w]) for w in support]
    base_level = rootsys.level(space, support[0])
    level = {w: (base_level - rootsys.level(space, w)) // (space.n + 1) for w in support}
    arrows_by_level: dict[int, list[tuple]] = {}
    for w in support:
        for box, target in quiver.arrows_from(space, w):
            if target in dims:
                arrows_by_level.setdefault(level[target], []).append(
                    (w, box, target)
                )
    arrows = []
    for lv in sorted(arrows_by_level):
        slots = arrows_by_level[lv]
        partial = make_rep(space, vertices, arrows)
        index = partial.vertex_index
        offsets, width = quiver.slot_offsets(dims, [(w, target) for w, _, target in slots])
        jacobian = SpanBasis(width)
        for row, _ in quiver.relation_jacobian(
            partial, [(index(w), index(target)) for w, _, target in slots]
        ):
            jacobian.insert_ints(row)
        flat = [Fraction(0)] * jacobian.width
        for vec in jacobian.kernel():
            c = _rand_frac(rng)
            if c:
                flat = [a + c * b for a, b in zip(flat, vec)]
        for w, box, target in slots:
            off, ncols = offsets[(w, target)], dims[w]
            entries = [
                [flat[off + r * ncols + c] for c in range(ncols)]
                for r in range(dims[target])
            ]
            if any(x != 0 for row in entries for x in row):
                arrows.append((w, box, entries))
    return make_rep(space, vertices, arrows)


def segment_rep(space, start, box, dims, matrices) -> QuiverRep:
    """Representation supported on a straight segment."""
    xi = rootsys.box_weight(space, *box)
    weights = [start]
    for _ in range(len(dims) - 1):
        weights.append(rootsys.wadd(weights[-1], xi))
    vertices = list(zip(weights, dims))
    arrows = [
        (weights[i], box, matrices[i])
        for i in range(len(dims) - 1)
        if matrices[i] is not None
    ]
    return make_rep(space, vertices, arrows)


def random_segment_rep(space, rng, total_dim=6) -> QuiverRep:
    """Random representation on a straight segment (no relations bind)."""
    boxes = rootsys.omega1_boxes(space)
    for _ in range(200):
        box = rng.choice(boxes)
        length = rng.randint(1, 4)
        base = []
        for i in range(space.rank):
            base.append(rng.randint(-4, 2) if i == space.k else rng.randint(0, 3))
        base = tuple(base)
        if not rootsys.in_d1(space, base):
            continue
        xi = rootsys.box_weight(space, *box)
        weights = [base]
        ok = True
        for _ in range(length - 1):
            nxt = rootsys.wadd(weights[-1], xi)
            if not rootsys.in_d1(space, nxt):
                ok = False
                break
            weights.append(nxt)
        if not ok or len(weights) < 2:
            continue
        dims = []
        remaining = total_dim
        for i in range(len(weights)):
            d = rng.randint(1, max(1, min(3, remaining - (len(weights) - i - 1))))
            dims.append(d)
            remaining -= d
        matrices = []
        for i in range(len(weights) - 1):
            rows = dims[i + 1]
            cols = dims[i]
            matrices.append(
                [[_rand_frac(rng, 0.3) for _ in range(cols)] for _ in range(rows)]
            )
        return segment_rep(space, base, box, dims, matrices)
    raise RuntimeError("no segment support found")


def ex73_rep(f1, f2, f3, f4) -> QuiverRep:
    """Seven-vertex family on the projective plane, dimension vector
    (1,1,1,2,1,1,1); the two square relations fix the outer products."""
    f1, f2, f3, f4 = (mat(m) for m in (f1, f2, f3, f4))
    s41 = matmul(f4, f1)[0][0]
    s32 = matmul(f3, f2)[0][0]
    return make_rep(
        rootsys.space(0, 2),
        [
            ((0, 0), 1),
            ((1, 1), 1),
            ((-2, 1), 1),
            ((-1, 2), 2),
            ((0, 3), 1),
            ((-3, 3), 1),
            ((-2, 4), 1),
        ],
        [
            ((1, 1), (1, 2), [[1]]),                       # Q(1) -> O
            ((0, 0), (1, 1), [[Fraction(3, 2) * s41]]),     # O -> Q(-2)
            ((1, 1), (1, 1), f1),                           # Q(1) -> middle
            ((0, 3), (1, 2), f2),                           # Sym3 -> middle
            ((-1, 2), (1, 1), f3),                          # middle -> Sym3(-3)
            ((-1, 2), (1, 2), f4),                          # middle -> Q(-2)
            ((0, 3), (1, 1), [[1]]),                        # Sym3 -> Sym4(-2)
            ((-2, 4), (1, 2), [[Fraction(4, 5) * s32]]),    # Sym4(-2) -> Sym3(-3)
        ],
    )
