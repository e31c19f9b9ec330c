"""Shared builders: named example representations, the seeded
generators of quivercoh.generate, dense matrix helpers that only the
tests use, a reference Gauss-Jordan elimination in plain Fractions,
and an independent interval-splitting oracle for segment supports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quivercoh import linalg, rootsys, stability
from quivercoh.generate import (  # noqa: F401  (re-exported to the tests)
    ex73_rep,
    random_rep,
    random_segment_rep,
    random_support,
    segment_rep,
)
from quivercoh.linalg import matmul, matvec
from quivercoh.quiver import QuiverRep, make_rep, relation_plan

P1 = rootsys.space(0, 1)
P2 = rootsys.space(0, 2)
P3 = rootsys.space(0, 3)
P4 = rootsys.space(0, 4)
GR13 = rootsys.space(1, 3)
GR14 = rootsys.space(1, 4)
GR24 = rootsys.space(2, 4)


def zeros(nrows, ncols):
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def gauss_jordan(a):
    """Reference reduced row echelon form by plain Fraction elimination
    on dense rows; a row update touches the pivot row's nonzeros only."""
    rows = [list(row) for row in a]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        support = [(j, y) for j, y in enumerate(rows[r]) if y]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                row = rows[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
    return rows, pivots


def reference_rank(rows, width):
    """Rank of sparse rows, {column: value} dicts, by gauss_jordan on
    their dense Fraction matrix: no SpanBasis involved."""
    dense = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
    return len(gauss_jordan(dense)[1]) if dense else 0


def zero_weight(space):
    return (0,) * space.rank


def dual_euler_rep(space, arrow=1):
    """O and the cotangent bundle, one (possibly zero) arrow."""
    omega = rootsys.box_weight(space, 1, 1)
    arrows = []
    if arrow:
        arrows.append((zero_weight(space), (1, 1), [[arrow]]))
    return make_rep(space, [(zero_weight(space), 1), (omega, 1)], arrows)


def euler_rep(space, arrow=1):
    """O and the tangent bundle, arrow in from the tangent vertex."""
    tangent = tuple(
        1 if i in (0, space.rank - 1) else 0 for i in range(space.rank)
    )
    arrows = []
    if arrow:
        box = (1, space.n - space.k)
        arrows.append((tangent, box, [[arrow]]))
    return make_rep(space, [(zero_weight(space), 1), (tangent, 1)], arrows)


def ex511_rep(theta1=1, theta2=1):
    """The wedge-square trivial bundle on the Grassmannian of lines in
    P^3: O(-1), the twisted cotangent bundle, O(1)."""
    arrows = []
    if theta1:
        arrows.append(((0, 1, 0), (1, 1), [[theta1]]))
    if theta2:
        arrows.append(((1, -1, 1), (2, 2), [[theta2]]))
    return make_rep(
        GR13,
        [((0, -1, 0), 1), ((1, -1, 1), 1), ((0, 1, 0), 1)],
        arrows,
    )


def adv_rep():
    """The adjoint-module trivial bundle on the projective plane, with
    arrows in the engine normalization."""
    return make_rep(
        P2,
        [((0, 0), 1), ((1, 1), 1), ((-2, 1), 1), ((-1, 2), 1)],
        [
            ((1, 1), (1, 2), [[1]]),
            ((0, 0), (1, 1), [[1]]),
            ((1, 1), (1, 1), [[1]]),
            ((-1, 2), (1, 2), [[Fraction(2, 3)]]),
        ],
    )


def transpose_rep(rep: QuiverRep) -> QuiverRep:
    """rep read on Gr(n - k - 1, n), the same Grassmannian as Gr(k, n):
    every weight reversed, each box (p, q) read as (q, p), every matrix
    kept, built through the index form of make_rep."""
    space = rootsys.space(rep.space.n - rep.space.k - 1, rep.space.n)
    vertices = [(v.weight[::-1], v.dim) for v in rep.vertices]
    arrows = [(a.src, a.dst, a.box[::-1], a.matrix) for a in rep.arrows]
    return make_rep(space, vertices, arrows)


def reversed_rows(table):
    """table's rows with each module nu reversed, in table order: the
    rows the transposed rep's table must have."""
    return tuple(sorted(row._replace(nu=row.nu[::-1]) for row in table.rows))


def generic_ex73_rep():
    return ex73_rep([[1], [2]], [[1], [3]], [[1, 1]], [[2, 1]])


def rescaled_ex73_rep():
    """generic_ex73_rep with its outer arrow O -> Q(-2) doubled, so one
    square relation fails."""
    rep = generic_ex73_rep()
    arrows = [
        (
            rep.vertices[a.src].weight,
            a.box,
            [[2 * x for x in row] for row in a.matrix]
            if rep.vertices[a.src].weight == (0, 0)
            else a.matrix,
        )
        for a in rep.arrows
    ]
    return make_rep(P2, [(v.weight, v.dim) for v in rep.vertices], arrows)


def interval_basis(rep: QuiverRep):
    """Independent interval splitting of a segment representation: list
    of (birth, death, vectors-per-position), built by the adapted-basis
    sweep (kernel flags left to right)."""
    chain, _ = stability._segment_support(rep, relation_plan(rep))
    dims = [rep.vertices[i].dim for i in chain]
    n = len(chain)
    maps = []
    for pos in range(n - 1):
        m = rep.arrow_matrix(chain[pos], chain[pos + 1])
        if m is None:
            m = zeros(dims[pos + 1], dims[pos])
        maps.append(m)

    def composite(pos, upto):
        product = linalg.identity(dims[pos])
        for x in range(pos, upto):
            product = matmul(maps[x], product)
        return product

    def death_of(pos, vec):
        v = list(vec)
        for t in range(pos, n - 1):
            v = list(matvec(maps[t], v))
            if all(x == 0 for x in v):
                return t
        return n - 1

    threads = []  # [birth, death, vectors from birth onward]
    carried: list[tuple[int, list]] = []  # threads continuing into pos
    for pos in range(n):
        alive = []
        span = linalg.SpanBasis(dims[pos])
        if pos:
            for ti, vec in carried:
                image = list(matvec(maps[pos - 1], vec))
                threads[ti][2].append(image)
                added = span.add(image)
                assert added, "carried images must stay independent"
                alive.append((ti, image))
        # births, smallest death first, keeping the basis flag-adapted
        for t in range(pos, n):
            if t < n - 1:
                ker = linalg.nullspace(composite(pos, t + 1))
            else:
                ker = [
                    tuple(Fraction(1 if i == j else 0) for i in range(dims[pos]))
                    for j in range(dims[pos])
                ]
            for vec in ker:
                if span.add(vec):
                    assert death_of(pos, list(vec)) == t
                    threads.append([pos, t, [list(vec)]])
                    alive.append((len(threads) - 1, list(vec)))
        assert span.dim == dims[pos]
        carried = [(ti, vec) for ti, vec in alive if threads[ti][1] > pos]
    return chain, [(t[0], t[1], t[2]) for t in threads]


def terminal_witnesses(rep: QuiverRep):
    """All subspace configurations generated by interval terminals:
    yields spans (one list of vectors per vertex, canonical order)."""
    chain, threads = interval_basis(rep)
    pos_of_vertex = {v: i for i, v in enumerate(chain)}
    choices = []
    for birth, death, _ in threads:
        choices.append([None] + list(range(birth, death + 1)))
    import itertools

    for combo in itertools.product(*choices):
        spans = [[] for _ in rep.vertices]
        nonzero = False
        for (birth, death, vectors), start in zip(threads, combo):
            if start is None:
                continue
            nonzero = True
            for pos in range(start, death + 1):
                spans[chain[pos]].append(vectors[pos - birth])
        yield spans, nonzero


@pytest.fixture
def rng():
    return random.Random(20240811)
