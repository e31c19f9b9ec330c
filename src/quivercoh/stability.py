"""Slopes, characters, semistability tests, and moduli invariants.

The canonical character pairs a subrepresentation's dimension vector
with rank-weighted first Chern classes; a representation is semistable
when every arrow-closed subspace pairs nonnegatively.  General
semistability over an infinite field is not decided here: the engine
gives exact decisions for representations supported on a single segment
(via the interval decomposition) and witness verification elsewhere.

The tangent dimension is that of the relation variety at the point,
linearized over all arrow slots inside the support, minus the dimension
of the orbit of the base-change group; the output is the tangent
dimension of the relation variety modulo gauge.  The orbit's dimension
is the rank of the gauge map u -> (u_dst A - A u_src) per arrow, read
only at the slot coordinates that are not pivots of the echelon
relation Jacobian J.  That loses no rank: the relations are equivariant,
so at a valid point J maps every orbit vector to u_tgt R - R u_src = 0,
and a vector of ker J that vanishes at every free coordinate of an
echelon basis vanishes at its pivots too, last pivot first.

Both eliminations take a column order chosen from the rep once per
call, to limit fill-in as sparse direct solvers do.  Every arrow lowers
rootsys.level by n + 1, so ordering by level makes both systems block
banded: a row of J touches the slots out of one relation's source and
out of its middle vertices, a gauge row the blocks of one arrow's two
ends, and these sit at neighbouring levels.  J's slot blocks go by
ascending level of their source vertex, so slots further along the
arrows come first; the gauge system's vertex blocks go by ascending
level and, within a level, by ascending degree under the present arrows
(the sum of the neighbours' dims, which bounds the nonzeros of each
column in the block), so the sparsest columns of a level come first.
No answer depends on the order: rank does not depend on column order,
and the free-coordinate argument holds for an echelon basis in any
column order, "last" read in that order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg, rootsys
from .errors import DomainError, InternalCheckError
from .linalg import SpanBasis, matmul
from .quiver import (
    QuiverRep,
    RelationPlan,
    _closure_spans,
    check_relations,
    relation_jacobian,
    relation_plan,
    segment_product,
    slot_offsets,
)
from .rootsys import Weight


class Character(NamedTuple):
    """Integer weights per vertex, pairing to zero against the full
    dimension vector of the representation they were derived from."""

    sigma: tuple[tuple[Weight, int], ...]
    scale: int

    def value(self, weight) -> int:
        w = tuple(weight)
        for vw, s in self.sigma:
            if vw == w:
                return s
        raise DomainError(f"character has no entry for vertex {w}")


def canonical_character(rep: QuiverRep) -> Character:
    """sigma_v = c1(F) rk(E_v) - rk(F) c1(E_v) for F the whole graded
    bundle.  Both terms are integers on these spaces, so scale is 1."""
    space = rep.space
    ranks = [rootsys.bundle_rank(space, v.weight) for v in rep.vertices]
    chern = [rootsys.first_chern(space, v.weight) for v in rep.vertices]
    rk_total = sum(r * v.dim for r, v in zip(ranks, rep.vertices))
    c1_total = sum(c * v.dim for c, v in zip(chern, rep.vertices))
    sigma = tuple(
        (v.weight, c1_total * r - rk_total * c)
        for v, r, c in zip(rep.vertices, ranks, chern)
    )
    return Character(sigma, 1)


def pairing(ch: Character, subdims: dict) -> int:
    """Pair the character with a dimension vector (weights to sizes);
    a weight the character has no entry for is a DomainError."""
    return sum(ch.value(w) * d for w, d in subdims.items())


class WitnessReport(NamedTuple):
    arrow_closed: bool
    subdims: tuple[tuple[Weight, int], ...]
    pairing: int
    destabilizes: bool


def check_witness(rep: QuiverRep, spans, ch: Character) -> WitnessReport:
    """Close the given spanning sets under the arrows, report the pairing
    of the resulting subrepresentation.  Negative pairing exhibits a
    destabilizer (semistable needs >= 0 on every subrepresentation)."""
    given = [linalg.rank(vecs) for vecs in spans]
    bases = _closure_spans(rep, spans)
    closed = all(b.dim == g for b, g in zip(bases, given))
    subdims = {v.weight: b.dim for v, b in zip(rep.vertices, bases)}
    value = pairing(ch, subdims)
    return WitnessReport(
        closed,
        tuple(sorted(subdims.items())),
        value,
        destabilizes=value < 0,
    )


def _segment_support(
    rep: QuiverRep, plan: RelationPlan
) -> tuple[list[int], tuple[int, int]]:
    """Vertex order along a single straight segment, with its box pair,
    followed through the step table of rep's relation plan."""
    steps = plan.steps
    for box in rootsys.omega1_boxes(rep.space):
        for start in range(len(steps)):
            chain = [start]
            while (nxt := steps[chain[-1]].get(box)) is not None:
                chain.append(nxt)
            if len(chain) == len(steps):
                return chain, box
    raise DomainError("support is not a single segment")


def interval_multiplicities(rep: QuiverRep) -> dict[tuple[int, int], int]:
    """Decomposition of a segment representation into intervals [s, t]
    (positions along the chain, inclusive), by composite ranks."""
    plan = relation_plan(rep)
    return _intervals(rep, plan, *_segment_support(rep, plan))


def _intervals(rep: QuiverRep, plan: RelationPlan, chain: list[int], box) -> dict:
    """interval_multiplicities along a chain already followed through plan."""
    dims = [rep.vertices[i].dim for i in chain]
    n = len(chain)

    def composite_rank(s: int, t: int) -> int:
        if s < 0 or t >= n or s > t:
            return 0
        if s == t:
            return dims[s]
        product = segment_product(plan, chain[s], box, t - s)
        if product is None:
            return 0
        return linalg.row_rank((dict(enumerate(row)) for row in product[0]), dims[s])

    out = {}
    for s in range(n):
        for t in range(s, n):
            mult = (
                composite_rank(s, t)
                - composite_rank(s - 1, t)
                - composite_rank(s, t + 1)
                + composite_rank(s - 1, t + 1)
            )
            if mult:
                out[(s, t)] = mult
    return out


def path_semistable(rep: QuiverRep, ch: Character) -> bool:
    """Exact semistability for a representation supported on one segment:
    every terminal piece of every interval summand must pair >= 0."""
    plan = relation_plan(rep)
    chain, box = _segment_support(rep, plan)
    weights = [rep.vertices[i].weight for i in chain]
    sigma = [ch.value(w) for w in weights]
    for (s, t), mult in _intervals(rep, plan, chain, box).items():
        if mult <= 0:
            continue
        for u in range(s, t + 1):
            if sum(sigma[u : t + 1]) < 0:
                return False
    return True


def tangent_dim(rep: QuiverRep) -> int:
    """Dimension of the linearized relation variety at the point, minus
    the orbit dimension of the base-change group.

    The orbit lies in ker J for the relation Jacobian J (the relations
    are equivariant), and ker J maps one-to-one onto J's free
    coordinates, so the gauge rows are built at those coordinates only.
    A negative result is a bug, not bad input: an InternalCheckError.
    """
    plan = relation_plan(rep)
    if check_relations(rep, plan):
        raise DomainError("tangent space is computed at valid points only")
    dims = rep.dims()
    levels = [rootsys.level(rep.space, v.weight) for v in rep.vertices]
    slots = [plan.slots[s] for s in _ascending([levels[i] for i, _ in plan.slots])]
    offsets, width = slot_offsets(dims, slots)
    jacobian = SpanBasis(width)
    for row, _ in relation_jacobian(rep, slots, plan):
        jacobian.insert_ints(row)
    deformation = jacobian.width - jacobian.dim

    gauge = _gauge_rank(rep, plan, levels, offsets, set(jacobian.pivots))
    end_dim = sum(d * d for d in dims) - gauge
    result = deformation - gauge
    if result < 0:
        raise InternalCheckError(
            f"negative tangent dimension: deformations {deformation}, "
            f"gauge {gauge}, endomorphisms {end_dim}"
        )
    return result


def _ascending(keys) -> list[int]:
    """Indices of keys in ascending key order, ties by index: the column
    order of both eliminations in tangent_dim."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _gauge_rank(
    rep: QuiverRep, plan: RelationPlan, levels: list[int], offsets: dict, pivots: set[int]
) -> int:
    """Rank of the gauge map u -> (u_dst A - A u_src) over the present
    arrows, one row per slot coordinate outside pivots; levels holds each
    vertex's rootsys.level, and offsets maps each slot to its first
    coordinate, as slot_offsets lays them out.
    The columns are the vertex blocks of u in ascending level, then
    ascending degree, then index: a column of vertex v's block has at
    most degree(v) nonzeros, so each level's sparsest columns are
    eliminated first.  Any column order gives the same rank."""
    dims = rep.dims()
    degree = [0] * len(dims)
    for i, j in plan.arrows:
        degree[i] += dims[j]
        degree[j] += dims[i]
    keys = list(zip(levels, degree))
    blocks, total = slot_offsets(dims, [(i, i) for i in _ascending(keys)])
    basis = SpanBasis(total)
    for (i, j), (m, _, _) in plan.arrows.items():
        du, dv = dims[i], dims[j]
        dst, src, first = blocks[(j, j)], blocks[(i, i)], offsets[(i, j)]
        for r in range(dv):
            for c in range(du):
                if first + r * du + c in pivots:
                    continue
                # (u_dst A - A u_src)[r][c], times A's denominator; an
                # arrow joins two distinct vertices, so the blocks do not overlap
                row = {dst + r * dv + x: m[x][c] for x in range(dv) if m[x][c]}
                row.update({src + x * du + c: -m[r][x] for x in range(du) if m[r][x]})
                basis.insert_ints(row)
    return basis.dim


class Ex73Report(NamedTuple):
    """Invariants of the seven-vertex family on the projective plane with
    multiplicity two in the middle."""

    s: Fraction
    t: Fraction
    branch: str
    middle_destabilized: bool
    semistable_flag: bool


def ex73_invariants(rep: QuiverRep) -> Ex73Report:
    """Evaluate the two generating invariants of the family and classify
    the point.  The middle row destabilizes exactly when the image of the
    incoming rank-one map meets the kernel of the outgoing one.  A rep
    outside the family, with an outer multiplicity other than 1 or a
    failing relation, is a DomainError."""
    space = rep.space
    if space.k != 0 or space.n != 2:
        raise DomainError("this family lives on the projective plane")
    positions = {
        "top_in": (1, 1),      # Q(1)
        "middle": (-1, 2),     # Sym^2 Q(-1)
        "right_in": (0, 3),    # Sym^3 Q
        "out_left": (-2, 1),   # Q(-2)
        "out_down": (-3, 3),   # Sym^3 Q(-3)
    }
    idx = {}
    for name, w in positions.items():
        i = rep.vertex_index(w)
        if i is None:
            raise DomainError(f"support misses the vertex at {w}")
        idx[name] = i
    if rep.vertices[idx["middle"]].dim != 2:
        raise DomainError("middle multiplicity must be 2")
    for name, i in idx.items():
        if name != "middle" and rep.vertices[i].dim != 1:
            raise DomainError(f"{name} multiplicity must be 1")
    if check_relations(rep):
        raise DomainError("the invariants are computed at valid points only")

    def arrow(src, dst):
        m = rep.arrow_matrix(idx[src], idx[dst])
        if m is None:
            raise DomainError(f"missing arrow {src} -> {dst}")
        return m

    f1 = arrow("top_in", "middle")
    f2 = arrow("right_in", "middle")
    f3 = arrow("middle", "out_down")
    f4 = arrow("middle", "out_left")

    # the outer vertices have multiplicity one, so each product is 1 x 1
    s41, s32, s42, s31 = (
        matmul(g, f)[0][0] for g, f in ((f4, f1), (f3, f2), (f4, f2), (f3, f1))
    )
    s = s41 * s32 * s32
    t = s42 * s32 * s31

    if s == 0 and t == 0:
        branch = "degenerate"
    elif s == 0:
        branch = "s_zero"
    elif t == 0:
        branch = "t_zero"
    elif s == t:
        branch = "s_equals_t"
    else:
        branch = "generic"

    middle_destabilized = any(map(any, f2)) and any(map(any, f3)) and s32 == 0
    return Ex73Report(s, t, branch, middle_destabilized, not middle_destabilized)
