"""The quiver of irreducible bundles and its finite representations.

Vertices are D_1 weights, arrows are the box-pair translations carried
by the cotangent bundle, and a homogeneous bundle is a representation:
a multiplicity space per vertex and an exact rational matrix per arrow,
stored as integer rows over one denominator from construction on.
Missing arrows are zero matrices; representations are stored sparsely
and are immutable after construction.

This module is the one place that walks the quadratic relations of a
representation.  relation_plan walks them once per call into integer
form: each arrow read as its stored rows and denominator, each relation
integer path weights over one scale.  It visits only the row
pairs of the support's two-step paths, the only double box additions
whose relations have a middle vertex and a target in the support.
check_relations evaluates the plan, a relation holding iff its integer
sum is zero (only a violated one is rebuilt as a rational residual),
relation_jacobian linearizes it into sparse integer rows, and
segment_product follows its step table along a straight segment.
Relation coefficients depend only on the box rows (p1, p2, q1, q2) and
on ptilde, qtilde of the source shape, so they are interned under that
key.  Input is validated at the boundary
(make_rep, rep_from_json and rep_from_data, the public relation_system);
the walk trusts the representation it is given.  The pieri module
verifies the coefficients against a brute-force equivariant construction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from . import linalg, rootsys
from .errors import DomainError, InternalCheckError, ParseError
from .linalg import Matrix, SpanBasis, mat, matmul
from .rootsys import Space, Weight

Box = tuple[int, int]


class Vertex(NamedTuple):
    weight: Weight
    dim: int


class Arrow(NamedTuple):
    """An arrow whose matrix is rows / den: integer rows over den, the
    lcm of the entries' reduced denominators, made once at construction."""

    src: int
    dst: int
    box: Box
    rows: tuple[tuple[int, ...], ...]
    den: int

    @property
    def matrix(self) -> Matrix:
        """The rational matrix rows / den, derived on each read."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)


class QuiverRep(NamedTuple):
    space: Space
    vertices: tuple[Vertex, ...]
    arrows: tuple[Arrow, ...]

    def vertex_index(self, weight) -> int | None:
        weight = tuple(weight)
        for i, v in enumerate(self.vertices):
            if v.weight == weight:
                return i
        return None

    def arrow_matrix(self, src: int, dst: int) -> Matrix | None:
        for a in self.arrows:
            if a.src == src and a.dst == dst:
                return a.matrix
        return None

    def dims(self) -> tuple[int, ...]:
        return tuple(v.dim for v in self.vertices)


@lru_cache(maxsize=None)
def _box_shifts(space: Space) -> tuple[tuple[Box, Weight], ...]:
    return tuple(zip(rootsys.omega1_boxes(space), rootsys.omega1_weights(space)))


def arrows_from(space: Space, w) -> list[tuple[Box, Weight]]:
    """All quiver arrows out of w: the box pairs whose addition keeps
    both partitions valid, which is keeping the weight in D_1, with their
    target weights."""
    w = rootsys.require_d1(space, w)
    targets = ((box, tuple(map(add, w, s))) for box, s in _box_shifts(space))
    return [(box, t) for box, t in targets if rootsys.in_d1(space, t)]


def make_rep(space: Space, vertices, arrows) -> QuiverRep:
    """Validating, canonicalizing constructor.

    vertices: iterable of (weight, dim).  arrows: iterable of
    (src_weight, box, matrix) or (src_index, dst_index, box, matrix)
    against the given vertex order.  Matrix entries are read exactly, as
    Fraction reads them (ints, Fractions, finite floats, "1/2" strings);
    any other entry is a DomainError.  Vertices are reordered
    lexicographically by weight; arrow indices follow.
    """
    return _rep(
        space,
        vertices,
        ((*ends, box, *_read_matrix(matrix, ends, box)) for *ends, box, matrix in arrows),
    )


def _read_matrix(matrix, ends, box) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A matrix of Python numbers as integer rows over one denominator;
    ends and box, as given, name its arrow in an error."""
    try:
        return _cleared([[_read_number(x) for x in row] for row in matrix])
    except (TypeError, ValueError, ArithmeticError) as exc:
        where = " -> ".join(map(str, ends))
        raise DomainError(
            f"arrow {where} along {box}: matrix entries must be rational numbers ({exc})"
        ) from None


def _read_number(x) -> tuple[int, int]:
    """x as a reduced (numerator, denominator) pair."""
    if type(x) is int:
        return x, 1
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator, x.denominator


def _cleared(pairs) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of reduced (numerator, denominator) pairs as integer rows
    over the lcm of the denominators."""
    den = lcm(*[d for row in pairs for _, d in row])
    if den == 1:
        return tuple([tuple([n for n, _ in row]) for row in pairs]), 1
    return tuple([tuple([n * (den // d) for n, d in row]) for row in pairs]), den


def _rep(space: Space, vertices, arrows) -> QuiverRep:
    """make_rep on integer arrows, (src_weight, box, rows, den) or
    (src_index, dst_index, box, rows, den), each matrix rows / den as an
    Arrow stores it."""
    raw_vertices = [
        (rootsys.require_d1(space, w), rootsys.as_int(d, "vertex dimension"))
        for w, d in vertices
    ]
    if any(d < 1 for _, d in raw_vertices):
        raise DomainError("vertex multiplicities must be >= 1")
    weights = {w: i for i, (w, _) in enumerate(raw_vertices)}
    if len(weights) != len(raw_vertices):
        raise DomainError("duplicate vertex weights")
    classes = {rootsys.component_class(space, w) for w in weights}
    if len(classes) > 1:
        raise DomainError(
            "vertices lie in different connected components of the quiver"
        )
    order = sorted(range(len(raw_vertices)), key=lambda i: raw_vertices[i][0])
    new_vertices = tuple(Vertex(*raw_vertices[i]) for i in order)
    old_to_new = {old: new for new, old in enumerate(order)}

    new_arrows = []
    seen_pairs = set()
    # one shared tuple per box pair keeps the stored arrows small
    shifts = {box: (box, shift) for box, shift in _box_shifts(space)}

    def box_shift(box):
        if box not in shifts:
            raise DomainError(f"box pair {box} out of range")
        return shifts[box]

    for *ends, box, rows, den in arrows:
        try:
            p, q = box
        except (TypeError, ValueError):
            raise DomainError(f"box pair {box!r} does not have two entries") from None
        box = rootsys.as_ints((p, q), "box entry")
        if len(ends) == 1:
            src_w = rootsys.check_weight(space, ends[0])
            box, shift = box_shift(box)
            dst_w = rootsys.wadd(src_w, shift)
            if src_w not in weights or dst_w not in weights:
                raise DomainError(f"arrow {src_w} -> {dst_w} leaves the vertices")
            src_old, dst_old = weights[src_w], weights[dst_w]
        else:
            src_old, dst_old = ends
            if src_old not in old_to_new or dst_old not in old_to_new:
                raise DomainError(f"arrow {src_old} -> {dst_old}: no such vertex index")
            box, shift = box_shift(box)
        src = old_to_new[src_old]
        dst = old_to_new[dst_old]
        sw, dw = new_vertices[src].weight, new_vertices[dst].weight
        if rootsys.wsub(dw, sw) != shift:
            raise DomainError(
                f"arrow {sw} -> {dw} does not match box pair {box}"
            )
        nrows, ncols = new_vertices[dst].dim, new_vertices[src].dim
        if len(rows) != nrows or any(len(row) != ncols for row in rows):
            raise DomainError(f"arrow matrix shape mismatch at {sw} -> {dw}")
        if (src, dst) in seen_pairs:
            raise DomainError(f"duplicate arrow {sw} -> {dw}")
        seen_pairs.add((src, dst))
        new_arrows.append(Arrow(src, dst, box, rows, den))
    new_arrows.sort(key=lambda a: (a.src, a.dst))
    return QuiverRep(space, new_vertices, tuple(new_arrows))


class RelationEquation(NamedTuple):
    """One quadratic relation: sum of coeff * (second arrow) o (first
    arrow) over two-step paths from source to target."""

    source: Weight
    target: Weight
    terms: tuple[tuple[Box, Box, Fraction], ...]


def double_additions(space: Space, w) -> list[tuple[Box, Box]]:
    """All unordered valid double box additions from w, as pairs of box
    pairs ((p1, q1), (p2, q2)) with p1 <= p2 and q1 <= q2."""
    alpha, beta = rootsys.shape_rows(space, rootsys.require_d1(space, w))
    return [
        ((p1, q1), (p2, q2))
        for (p1, p2), (q1, q2) in product(_row_pairs(alpha), _row_pairs(beta))
    ]


@lru_cache(maxsize=None)
def _row_pairs(padded: Weight) -> tuple[tuple[int, int], ...]:
    """Each row pair r1 <= r2 where two boxes fit into the padded
    partition."""
    nrows = len(padded)
    return tuple(
        (r1, r2)
        for r1 in range(1, nrows + 1)
        if rootsys.box_addable(padded, r1, nrows)
        for r2 in range(r1, nrows + 1)
        if rootsys.box_addable(rootsys.add_box(padded, r1), r2, nrows)
    )


def _gap(padded: Weight, r1: int, r2: int) -> int:
    return padded[r1 - 1] - padded[r2 - 1] + r2 - r1


def relation_system(space: Space, w, boxes) -> list[RelationEquation]:
    """The quadratic relations binding the two-step paths from w through
    the given unordered pair of box pairs."""
    (pa, qa), (pb, qb) = boxes
    p1, p2 = min(pa, pb), max(pa, pb)
    q1, q2 = min(qa, qb), max(qa, qb)
    w = rootsys.require_d1(space, w)
    target = rootsys.wadd(
        rootsys.wadd(w, rootsys.box_weight(space, p1, q1)),
        rootsys.box_weight(space, p2, q2),
    )
    if not rootsys.in_d1(space, target):
        raise DomainError(f"invalid double box addition {boxes} from {w}")
    alpha, beta = rootsys.shape_rows(space, w)
    return [
        RelationEquation(w, target, terms)
        for terms in _relation_terms(
            p1, p2, q1, q2, _gap(alpha, p1, p2), _gap(beta, q1, q2)
        )
    ]


@lru_cache(maxsize=None)
def _relation_terms(p1: int, p2: int, q1: int, q2: int, pt: int, qt: int):
    """Terms of each relation through the rows p1 <= p2, q1 <= q2, given
    ptilde = alpha_{p1} - alpha_{p2} + p2 - p1 and qtilde likewise for
    beta: two equations when both exceed 1 and the rows are distinct on
    both sides, down to none when both equal 1."""
    one = Fraction(1)
    a, b = (p1, q1), (p2, q2)
    if a == b:
        return ()
    if p1 == p2 or q1 == q2:
        t = qt if p1 == p2 else pt
        if t == 1:
            return (((a, b, one),),)
        return (((a, b, Fraction(1 + t, t)), (b, a, -one)),)
    c, d = (p1, q2), (p2, q1)
    if pt == 1 and qt == 1:
        return ()
    if pt == 1:
        return (((a, b, Fraction(1, qt) - 1), (c, d, -one)),)
    if qt == 1:
        return (((a, b, 1 - Fraction(1, pt)), (d, c, one)),)
    return (
        ((a, b, Fraction(1, qt) - Fraction(1, pt)), (c, d, -one), (d, c, one)),
        (
            (a, b, Fraction(1, pt * qt) - 1),
            (c, d, -Fraction(1, pt)),
            (d, c, -Fraction(1, qt)),
            (b, a, one),
        ),
    )


class RelationPlan(NamedTuple):
    """The relations of one representation, walked once for integer
    arithmetic.  arrows maps (src, dst) to (rows, columns, den), the
    arrow's stored rows / den and their columns; steps[i] maps each box
    to the support vertex it leads to from vertex i; slots are the quiver
    arrows between support vertices, present or not.  relations holds
    (src, tgt, terms, scale, paths) per relation whose target and some
    middle vertex lie in the support, in vertex, box and equation order
    (the order of double_additions and relation_system): terms as in
    RelationEquation, paths the (mid, weight) of the terms with that
    middle vertex present and a nonzero coefficient, where
    weight = coeff * scale / (d1 * d2) over the path's arrow denominators
    (1 if missing) and scale is the least making every weight integral."""

    arrows: dict
    steps: list[dict[Box, int]]
    slots: list[tuple[int, int]]
    relations: list[tuple]


def relation_plan(rep: QuiverRep) -> RelationPlan:
    """Walk rep's relations in vertex, box and equation order.

    Only the row pairs (p1, p2, q1, q2) of the two-step paths from each
    vertex are tried: a relation through any other double box addition
    has no middle vertex or no target in the support.  Sorted, the pairs
    run in double_additions' product order."""
    arrows = {(a.src, a.dst): (a.rows, tuple(zip(*a.rows)), a.den) for a in rep.arrows}
    # steps[i][box] is the vertex box leads to from vertex i: a weight
    # plus a box weight lies in D_1 exactly when the box is addable
    index = {v.weight: i for i, v in enumerate(rep.vertices)}
    shifts = _box_shifts(rep.space)
    steps = [
        {
            box: j
            for box, s in shifts
            if (j := index.get(tuple(map(add, v.weight, s)))) is not None
        }
        for v in rep.vertices
    ]
    relations = []
    for src, v in enumerate(rep.vertices):
        pairs = sorted(
            {
                (min(pa, pb), max(pa, pb), min(qa, qb), max(qa, qb))
                for (pa, qa), mid in steps[src].items()
                for pb, qb in steps[mid]
            }
        )
        if not pairs:
            continue
        alpha, beta = rootsys.shape_rows(rep.space, v.weight)
        for p1, p2, q1, q2 in pairs:
            pt, qt = _gap(alpha, p1, p2), _gap(beta, q1, q2)
            for terms in _relation_terms(p1, p2, q1, q2, pt, qt):
                tgt, paths = None, []
                for first, second, coeff in terms:
                    mid = steps[src].get(first)
                    if mid is None:
                        continue
                    # every present middle vertex leads to the same target
                    tgt = steps[mid][second]
                    num = coeff.numerator
                    if not num:
                        # 1/qt - 1/pt vanishes when pt = qt: the term
                        # fixes the target but adds no path
                        continue
                    a1, a2 = arrows.get((src, mid)), arrows.get((mid, tgt))
                    den = coeff.denominator * (a1[2] if a1 else 1) * (a2[2] if a2 else 1)
                    g = gcd(num, den)
                    paths.append((mid, num // g, den // g))
                if tgt is not None:
                    scale = lcm(*(den for _, _, den in paths))
                    paths = [(mid, num * (scale // den)) for mid, num, den in paths]
                    relations.append((src, tgt, terms, scale, paths))
    slots = [(i, j) for i, step in enumerate(steps) for j in step.values()]
    return RelationPlan(arrows, steps, slots, relations)


def segment_product(plan: RelationPlan, i: int, box: Box, steps: int):
    """Product of the arrow matrices along steps >= 1 steps of box from
    vertex i, as (integer matrix, denominator), or None when a vertex or
    an arrow on the way is missing: the product is then zero."""
    product, den = None, 1
    for _ in range(steps):
        j = plan.steps[i].get(box)
        arrow = plan.arrows.get((i, j))
        if arrow is None:
            return None
        rows, _, d = arrow
        if product is not None:
            cols = list(zip(*product))
            rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        product, den, i = rows, den * d, j
    return product, den


class Violation(NamedTuple):
    source: Weight
    target: Weight
    equation: RelationEquation
    residual: Matrix


def check_relations(rep: QuiverRep, plan: RelationPlan | None = None) -> list[Violation]:
    """Evaluate every relation over the representation; missing arrows
    count as zero.  Empty list means the representation is valid.

    scale times a relation is the weighted sum of its integer path
    products, so it holds iff that sum is zero; only a violated one is
    divided back.  plan is rep's relation_plan, for a caller that also
    linearizes rep.
    """
    plan = plan or relation_plan(rep)
    arrows, vertices = plan.arrows, rep.vertices
    out = []
    for src, tgt, terms, scale, paths in plan.relations:
        total = None
        for mid, weight in paths:
            a1, a2 = arrows.get((src, mid)), arrows.get((mid, tgt))
            if a1 and a2:
                term = [weight * sum(map(mul, row, col)) for row in a2[0] for col in a1[1]]
                total = term if total is None else list(map(add, total, term))
        if total and any(total):
            ncols = vertices[src].dim
            residual = tuple(
                tuple(Fraction(x, scale) for x in total[r : r + ncols])
                for r in range(0, len(total), ncols)
            )
            source, target = vertices[src].weight, vertices[tgt].weight
            out.append(
                Violation(source, target, RelationEquation(source, target, terms), residual)
            )
    return out


def slot_offsets(dims, slots) -> tuple[dict[tuple[int, int], int], int]:
    """First column of each slot's row-major dst x src block, the blocks
    laid out in the order of slots, and the total width."""
    offsets = {}
    total = 0
    for i, j in slots:
        offsets[(i, j)] = total
        total += dims[j] * dims[i]
    return offsets, total


def relation_jacobian(
    rep: QuiverRep, slots, plan: RelationPlan | None = None
) -> list[tuple[dict[int, int], int]]:
    """Derivative of the relations at rep with respect to the arrow
    matrices in slots.

    slots is a sequence of (src, dst) vertex index pairs; each slot owns
    a row-major dst x src block of the columns, in the given order.  The
    rows are one row-major tgt x src block per relation of the plan,
    each a sparse row {column: entry} of nonzero integers with its
    relation's scale: the derivative is row / scale.  Arrows outside the
    slots are held fixed, and missing arrows read as zero.  plan is rep's
    relation_plan, for a caller that also evaluates rep.
    """
    plan = plan or relation_plan(rep)
    dims, arrows = rep.dims(), plan.arrows
    offsets, _ = slot_offsets(dims, slots)
    out = []
    for src, tgt, _, scale, paths in plan.relations:
        rows, cols = dims[tgt], dims[src]
        block = [{} for _ in range(rows * cols)]
        for mid, weight in paths:
            a1, a2 = arrows.get((src, mid)), arrows.get((mid, tgt))
            off1, off2, dmid = offsets.get((src, mid)), offsets.get((mid, tgt)), dims[mid]
            # scale * coeff * second . first moves with second as
            # weight * d2 * (. first) and with first as weight * d1 * (second .)
            for r, c, x in product(range(rows), range(cols), range(dmid)):
                row = block[r * cols + c]
                if off2 is not None and a1 and a1[0][x][c]:
                    row[off2 + r * dmid + x] = weight * (a2[2] if a2 else 1) * a1[0][x][c]
                if off1 is not None and a2 and a2[0][r][x]:
                    row[off1 + x * cols + c] = weight * (a1[2] if a1 else 1) * a2[0][r][x]
        out.extend((row, scale) for row in block)
    return out


def commutative_scale(space: Space, w, box: Box) -> int:
    """Positive factor turning the arrow out of w along box into the
    commutativity normalization (projective space only)."""
    if space.k != 0:
        raise DomainError("commutativity rescaling is specific to projective space")
    w = rootsys.check_weight(space, w)
    _, i = box
    out = 1
    for m in range(2, i + 1):
        out *= sum(w[m - 1 : i]) + (i - m + 1)
    return out


def rescale_to_commutative(rep: QuiverRep) -> QuiverRep:
    """Rescale arrow matrices so the relations become commutativity of
    all square diagrams (absent corners read as zero)."""
    return _scale_arrows(rep, 1)


def unscale_from_commutative(rep: QuiverRep) -> QuiverRep:
    """Inverse of rescale_to_commutative."""
    return _scale_arrows(rep, -1)


def _scale_arrows(rep: QuiverRep, power: int) -> QuiverRep:
    def scaled(a: Arrow) -> tuple:
        s = commutative_scale(rep.space, rep.vertices[a.src].weight, a.box)
        rows, den = a.rows, a.den
        if power > 0:
            rows = tuple(tuple(s * x for x in row) for row in rows)
        else:
            den *= s
        g = gcd(den, *(x for row in rows for x in row))
        return a.src, a.dst, a.box, tuple(tuple(x // g for x in row) for row in rows), den // g

    return _rep(rep.space, rep.vertices, map(scaled, rep.arrows))


def dual_rep(rep: QuiverRep) -> QuiverRep:
    """Dual bundle: dual vertex weights, reversed arrows with negated
    transposed matrices."""
    space = rep.space
    vertices = [
        (rootsys.dual_weight(space, v.weight), v.dim) for v in rep.vertices
    ]
    arrows = []
    for a in rep.arrows:
        p, q = a.box
        dual_box = (space.k + 2 - p, space.n - space.k + 1 - q)
        negated = tuple(tuple(-x for x in col) for col in zip(*a.rows))
        arrows.append((a.dst, a.src, dual_box, negated, a.den))
    return _rep(space, vertices, arrows)


def twist_rep(rep: QuiverRep, t: int) -> QuiverRep:
    """rep tensored with the t-th power of the Picard generator: every
    vertex weight twisted by t, the arrows kept (a twist changes no
    shape, so no relation)."""
    vertices = [(rootsys.twist(rep.space, v.weight, t), v.dim) for v in rep.vertices]
    return _rep(rep.space, vertices, rep.arrows)


def transpose_rep(rep: QuiverRep) -> QuiverRep:
    """rep read on Gr(n - k - 1, n), the same Grassmannian as Gr(k, n):
    every weight reversed, each box (p, q) read as (q, p), the arrows'
    integer matrices kept."""
    space = rootsys.space(rep.space.n - rep.space.k - 1, rep.space.n)
    vertices = [(v.weight[::-1], v.dim) for v in rep.vertices]
    arrows = [(a.src, a.dst, a.box[::-1], a.rows, a.den) for a in rep.arrows]
    return _rep(space, vertices, arrows)


def direct_sum(r1: QuiverRep, r2: QuiverRep) -> QuiverRep:
    """Block-diagonal sum, r1 in the leading rows and columns."""
    if r1.space != r2.space:
        raise DomainError("direct sum needs a common space")
    dim1 = {v.weight: v.dim for v in r1.vertices}
    dims = dict(dim1)
    for v in r2.vertices:
        dims[v.weight] = dims.get(v.weight, 0) + v.dim
    blocks = {}
    for rep, first in ((r1, True), (r2, False)):
        for a in rep.arrows:
            sw, dw = rep.vertices[a.src].weight, rep.vertices[a.dst].weight
            block = blocks.setdefault(
                (sw, a.box), [[Fraction(0)] * dims[sw] for _ in range(dims[dw])]
            )
            roff, coff = (0, 0) if first else (dim1.get(dw, 0), dim1.get(sw, 0))
            for i, row in enumerate(a.matrix):
                block[roff + i][coff : coff + len(row)] = row
    arrows = [(sw, box, m) for (sw, box), m in blocks.items()]
    return make_rep(r1.space, sorted(dims.items()), arrows)


def _closure_spans(rep: QuiverRep, spans, arrows=None) -> list[SpanBasis]:
    """Smallest spans containing the given vectors, one list per vertex
    in canonical order, and closed under arrows: each (src, dst, matrix)
    maps the span at src into the span at dst.  arrows defaults to rep's
    own."""
    if len(spans) != len(rep.vertices):
        raise DomainError(
            f"{len(spans)} span lists for {len(rep.vertices)} vertices: "
            "give one list per vertex"
        )
    bases = []
    for v, vecs in zip(rep.vertices, spans):
        basis = SpanBasis(v.dim)
        for vec in vecs:
            if len(vec) != v.dim:
                raise DomainError("witness vector length mismatch")
            basis.add(vec)
        bases.append(basis)
    if arrows is None:
        arrows = [(a.src, a.dst, a.matrix) for a in rep.arrows]
    changed = True
    while changed:
        changed = False
        for src, dst, matrix in arrows:
            for vec in bases[src].basis():
                image = linalg.matvec(matrix, vec)
                if bases[dst].add(image):
                    changed = True
    return bases


def _subquotient(rep: QuiverRep, parts) -> QuiverRep:
    """rep on span(sub + basis) modulo span(sub) at each vertex, written
    in basis; parts holds one (sub, basis) pair of vector lists per
    vertex, their spans arrow-closed.  Vertices with an empty basis are
    dropped."""
    # coordinates in sub + basis: one solve per image against its columns
    columns = {
        i: linalg.transpose(mat(sub + basis))
        for i, (sub, basis) in enumerate(parts)
        if basis
    }
    arrows = []
    for a in rep.arrows:
        if a.src not in columns or a.dst not in columns:
            continue
        skip = len(parts[a.dst][0])
        cols = []
        for image in zip(*matmul(a.matrix, linalg.transpose(parts[a.src][1]))):
            x = linalg.solve(columns[a.dst], image)
            if x is None:
                raise InternalCheckError("spans are not arrow-closed")
            cols.append(x[skip:])
        arrows.append((rep.vertices[a.src].weight, a.box, linalg.transpose(cols)))
    vertices = [(rep.vertices[i].weight, len(parts[i][1])) for i in columns]
    return make_rep(rep.space, vertices, arrows)


def submodule_generated(rep: QuiverRep, spans) -> QuiverRep:
    """Smallest subrepresentation containing the given spanning vectors,
    one list per vertex in canonical order.  Vertices whose subspace is
    zero are dropped."""
    return _subquotient(rep, [([], b.basis()) for b in _closure_spans(rep, spans)])


def quotient_by(rep: QuiverRep, spans) -> QuiverRep:
    """Quotient of rep by the subrepresentation generated by spans,
    written in the unit vectors that complete a basis of it."""
    parts = []
    for basis, v in zip(_closure_spans(rep, spans), rep.vertices):
        sub = basis.basis()
        parts.append((sub, [unit for unit in linalg.identity(v.dim) if basis.add(unit)]))
    return _subquotient(rep, parts)


def quotient_arriving_at(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Quotient by the largest subrepresentation invisible from the given
    vertex: vectors all of whose path images have zero component there.
    The functionals that paths carry back from the vertex are the closure
    of its dual space under the transposed arrows, and that
    subrepresentation is their common kernel."""
    if not 0 <= vertex < len(rep.vertices):
        raise DomainError("vertex index out of range")
    spans = [linalg.identity(v.dim) if i == vertex else [] for i, v in enumerate(rep.vertices)]
    dual = [(a.dst, a.src, linalg.transpose(a.matrix)) for a in rep.arrows]
    return quotient_by(rep, [f.kernel() for f in _closure_spans(rep, spans, dual)])


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    return Fraction(*parse_ratio(text))


def parse_ratio(text: str) -> tuple[int, int]:
    """A rational written "num/den" or "num" as a reduced (numerator,
    denominator) pair, the denominator positive."""
    if not isinstance(text, str):
        raise ParseError(f"bad rational {text!r}: expected a string such as \"-1/2\"")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            num, den = int(num), int(den)
        else:
            num, den = int(text), 1
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r}: {exc}")
    if not den:
        # the text Fraction's ZeroDivisionError gives
        raise ParseError(f"bad rational {text!r}: Fraction({num}, 0)")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def json_int(x) -> int:
    """x, if it is a JSON integer; floats, strings and booleans are
    rejected rather than truncated or read as 0 and 1."""
    if type(x) is not int:
        raise ParseError(f"bad integer {x!r}: expected a JSON integer")
    return x


def rep_to_json(rep: QuiverRep) -> str:
    data = {
        "space": {"k": rep.space.k, "n": rep.space.n},
        "vertices": [
            {"weight": list(v.weight), "dim": v.dim} for v in rep.vertices
        ],
        "arrows": [
            {
                "from": a.src,
                "to": a.dst,
                "box": list(a.box),
                "matrix": [[frac_str(x) for x in row] for row in a.matrix],
            }
            for a in rep.arrows
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)


def rep_from_json(text: str) -> QuiverRep:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}")
    return rep_from_data(data)


def rep_from_data(data) -> QuiverRep:
    """Representation from the parsed JSON form that rep_to_json writes."""
    try:
        space = Space(json_int(data["space"]["k"]), json_int(data["space"]["n"]))
        vertices = [
            (tuple(json_int(c) for c in v["weight"]), json_int(v["dim"]))
            for v in data["vertices"]
        ]
        # each distinct entry text is parsed once; a non-string entry,
        # which may be unhashable, goes straight to parse_ratio to be
        # rejected
        entry = lru_cache(maxsize=None)(parse_ratio)
        arrows = []
        for a in data.get("arrows", []):
            i, j = a["box"]  # exactly two entries
            matrix = a["matrix"]
            if type(matrix) is not list or any(type(row) is not list for row in matrix):
                raise ParseError(f"bad matrix {matrix!r}: expected a JSON list of lists")
            arrows.append(
                (
                    json_int(a["from"]),
                    json_int(a["to"]),
                    (json_int(i), json_int(j)),
                    *_cleared([
                        [entry(x) if type(x) is str else parse_ratio(x) for x in row]
                        for row in matrix
                    ]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad representation schema: {exc!r}")
    return _rep(space, vertices, arrows)
