"""The cohomology engine.

For a valid representation, every nonsingular vertex contributes one
irreducible module in one degree.  Between vertices in adjacent chambers
carrying the same module, a differential acts: the product of the
representation's arrow matrices along the straight segment joining them,
with a sign.  The signs are read off each chamber's partition so that
every square of the chamber adjacency graph anticommutes; the resulting
sequence is a complex and its cohomology, degree by degree, is the
cohomology of the bundle.

The representation, weights included, is validated once, and each
vertex's Bott data read off one eps pass.  One walk over the up-mirrors
of the nonsingular vertices reads each segment product from the relation
plan and its sign from the source's eps, and the full complex and its
truncations (segments of at most a given number of steps) are assembled
from it, each differential as sparse integer rows over one denominator.
The one-step truncation is itself a complex; intermediate truncations
are reported with a caveat, since no inclusion structure is claimed for
them.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from . import bott, linalg, rootsys
from .errors import DomainError, InternalCheckError
# matmul is not used here; the benchmark's tracer test checks that its
# wrapper reaches every module binding it through this binding.
from .linalg import Matrix, matmul  # noqa: F401
from .quiver import QuiverRep, RelationPlan, check_relations, relation_plan, segment_product
from .rootsys import Space, Weight


class GradedPiece(NamedTuple):
    """All vertices of a representation sharing one cohomology module and
    one degree, with their multiplicities."""

    nu: Weight
    degree: int
    blocks: tuple[tuple[int, int], ...]  # (vertex index, multiplicity)


def graded_cohomology(rep: QuiverRep) -> list[GradedPiece]:
    """Cohomology of the associated graded bundle, grouped by module and
    degree.  Singular vertices contribute nothing."""
    _checked_plan(rep)
    return _graded(rep)[0]


def _graded(rep: QuiverRep) -> tuple[list[GradedPiece], dict[int, list[int]]]:
    """The graded pieces of a validated rep, and eps(w + g) of each
    nonsingular vertex by index: one eps pass per vertex."""
    groups: dict[tuple[int, Weight], list[tuple[int, int]]] = {}
    eps = {}
    for i, v in enumerate(rep.vertices):
        e = bott._shifted_eps(v.weight)
        if (value := bott._bott_of(e)) is not None:
            eps[i] = e
            groups.setdefault((value.degree, value.nu), []).append((i, v.dim))
    return [GradedPiece(nu, d, tuple(b)) for (d, nu), b in sorted(groups.items())], eps


def _checked_plan(rep: QuiverRep) -> RelationPlan:
    """rep's relation plan; a DomainError unless every relation holds."""
    plan = relation_plan(rep)
    if violations := check_relations(rep, plan):
        first = violations[0]
        raise DomainError(
            f"representation violates {len(violations)} relation(s); first at "
            f"{first.source} -> {first.target}"
        )
    return plan


def _edge_sign(k: int, e: list[int], p: int) -> int:
    """Sign of the differential along an up-mirror with box row p out of
    the vertex with e = eps(w + g).

    The source's chamber is a partition lambda in a (k + 1) x (n - k)
    box: lambda_r counts the second-block entries of e above e[k + 1 - r],
    so it depends only on the order of e's entries.  An up-mirror with
    box (p, q) swaps e[k + 1 - p] with the second-block entry just below
    it and so grows row p by one box, leaving the other rows alone.  The
    sign is (-1) to the number of boxes of the source in the rows above
    p.  A square adds two boxes in rows p1 < p2, in either order (two
    boxes in one row have a single chamber between them): the p1 step
    reads the same rows above it both ways, the p2 step reads one more
    box in exactly one order, so the two paths differ by one sign."""
    return (-1) ** sum(x > e[k + 1 - r] for r in range(1, p) for x in e[k + 1 :])


@lru_cache(maxsize=None)
def _sign_table(space: Space) -> dict[tuple, int]:
    """_edge_sign on every degree-raising edge of the chamber adjacency
    graph, keyed by the chamber keys of its ends; the engine reads each
    sign at its mirror, and the tests check that rule on this table."""
    table = {}
    for w, _ in bott.chamber_vertices(space):
        e = bott._shifted_eps(w)
        for m in bott._mirrors_of(space, e):
            if m.up:
                key = (bott.chamber_key(space, w), bott.chamber_key(space, m.target))
                table[key] = _edge_sign(space.k, e, m.box[0])
    return table


def _dim(blocks: tuple[tuple[int, int], ...]) -> int:
    return sum(dim for _, dim in blocks)


class ClassComplex(NamedTuple):
    """Differentials for one cohomology module: vertex blocks per degree
    and, per degree d, the map to d + 1 as (rows, den), its entry in row
    r, column c being rows[r].get(c, 0) / den."""

    nu: Weight
    degrees: tuple[int, ...]
    blocks: dict[int, tuple[tuple[int, int], ...]]
    differentials: dict[int, tuple[tuple[dict[int, int], ...], int]]

    @property
    def maps(self) -> dict[int, Matrix]:
        """degree d -> dense matrix from d to d + 1, derived on each read."""
        return {
            d: linalg.dense(rows, _dim(self.blocks[d]), den)
            for d, (rows, den) in self.differentials.items()
        }


class CohomologyComplex(NamedTuple):
    space: Space
    classes: tuple[ClassComplex, ...]
    max_steps: int | None
    is_complex: bool


def _walk(rep: QuiverRep) -> list[tuple]:
    """Validate rep, then walk every up-mirror of every nonsingular vertex
    once.  Per class, (nu, degrees, blocks, parts): parts[d], for d and
    d + 1 both degrees, lists the blocks of the differential out of d,
    each (row, column, steps, sign, matrix, den): a nonzero segment
    product matrix / den with its offsets, length and sign."""
    plan = _checked_plan(rep)
    space = rep.space
    index = {v.weight: i for i, v in enumerate(rep.vertices)}
    pieces, eps = _graded(rep)
    by_nu: dict[Weight, dict[int, tuple[tuple[int, int], ...]]] = {}
    for piece in pieces:
        by_nu.setdefault(piece.nu, {})[piece.degree] = piece.blocks
    walked = []
    for nu, blocks in sorted(by_nu.items()):
        degrees = tuple(sorted(blocks))
        parts = {}
        for d in degrees:
            if d + 1 not in blocks:
                continue
            rows, offsets = 0, {}
            for dst, dim in blocks[d + 1]:
                offsets[dst] = rows
                rows += dim
            col, part = 0, []
            for src, dim in blocks[d]:
                found = set()
                for mirror in bott._mirrors_of(space, eps[src]):
                    if not mirror.up or (dst := index.get(mirror.target)) not in offsets:
                        continue
                    if dst in found:
                        raise InternalCheckError("two directions join one vertex pair")
                    found.add(dst)
                    product = segment_product(plan, src, mirror.box, mirror.steps)
                    if product is not None and any(map(any, product[0])):
                        sign = _edge_sign(space.k, eps[src], mirror.box[0])
                        part.append((offsets[dst], col, mirror.steps, sign, *product))
                col += dim
            parts[d] = part
        walked.append((nu, degrees, blocks, parts))
    return walked


def _assemble(space: Space, walked: list[tuple], max_steps: int | None) -> CohomologyComplex:
    """The differentials of a walk, keeping only segments of at most
    max_steps steps when it is given.  Blocks in one column group may
    have different denominators, so each differential is scaled to the
    lcm of its blocks' ones.  The full complex and the one-step
    truncation must square to zero (hard error otherwise)."""
    classes = []
    is_complex = True
    for nu, degrees, blocks, parts in walked:
        differentials = {}
        for d, part in parts.items():
            kept = [b for b in part if max_steps is None or b[2] <= max_steps]
            den = lcm(*(b[5] for b in kept))
            rows: list[dict[int, int]] = [{} for _ in range(_dim(blocks[d + 1]))]
            for row, col, _, sign, matrix, block_den in kept:
                scale = sign * (den // block_den)
                for target, values in zip(rows[row:], matrix):
                    target.update((c, scale * x) for c, x in enumerate(values, col) if x)
            differentials[d] = (tuple(rows), den)
        for d, (rows, _) in differentials.items():
            if d + 1 in differentials and any(linalg.row_product(differentials[d + 1][0], rows)):
                is_complex = False
        classes.append(ClassComplex(nu, degrees, blocks, differentials))
    if not is_complex and max_steps in (None, 1):
        where = "" if max_steps is None else " in the one-step truncation"
        raise InternalCheckError("differentials do not square to zero" + where)
    return CohomologyComplex(space, tuple(classes), max_steps, is_complex)


def build_complex(rep: QuiverRep) -> CohomologyComplex:
    """Assemble the differentials of the full complex; a hard error unless
    they square to zero."""
    return _assemble(rep.space, _walk(rep), None)


class TableRow(NamedTuple):
    degree: int
    nu: Weight
    multiplicity: int
    dim: int


class CohomologyTable(NamedTuple):
    space: Space
    rows: tuple[TableRow, ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** r.degree * r.multiplicity * r.dim for r in self.rows)

    def is_empty(self) -> bool:
        return not self.rows


@lru_cache(maxsize=None)
def _row(space: Space, degree: int, nu: Weight, multiplicity: int) -> TableRow:
    """One shared row per value, so that kept tables do not each hold a
    copy of an equal row."""
    return TableRow(degree, nu, multiplicity, rootsys.module_dim(space, nu))


def _homology_table(space: Space, complex_: CohomologyComplex) -> CohomologyTable:
    rows = []
    for cls in complex_.classes:
        dims = {d: _dim(b) for d, b in cls.blocks.items()}
        ranks = {d: linalg.row_rank(diff, dims[d]) for d, (diff, _) in cls.differentials.items()}
        for d in cls.degrees:
            if mult := dims[d] - ranks.get(d, 0) - ranks.get(d - 1, 0):
                rows.append(_row(space, d, cls.nu, mult))
    rows.sort(key=lambda r: (r.degree, r.nu))
    return CohomologyTable(space, tuple(rows))


def cohomology(rep: QuiverRep) -> CohomologyTable:
    """Cohomology of the bundle: kernel modulo image in every degree of
    every class of the full complex."""
    return _homology_table(rep.space, build_complex(rep))


def graded_table(rep: QuiverRep) -> CohomologyTable:
    """Cohomology of the associated graded bundle as a table."""
    rows = [
        _row(rep.space, piece.degree, piece.nu, _dim(piece.blocks))
        for piece in graded_cohomology(rep)
    ]
    rows.sort(key=lambda r: (r.degree, r.nu))
    return CohomologyTable(rep.space, tuple(rows))


class TruncatedResult(NamedTuple):
    """Homology of the truncated sequence.  For 1 < steps < full this is
    reported with a caveat: the truncated maps need not square to zero
    and no filtration of the full cohomology is claimed."""

    steps: int
    is_full: bool
    is_complex: bool
    table: CohomologyTable
    caveat: str | None


def truncated_complex(rep: QuiverRep, nsteps: int) -> TruncatedResult:
    if nsteps < 1:
        raise DomainError("truncation needs at least one step")
    walked = _walk(rep)
    full = _assemble(rep.space, walked, None)
    truncated = _assemble(rep.space, walked, nsteps)
    is_full = full.classes == truncated.classes
    table = _homology_table(rep.space, truncated)
    caveat = None
    if not is_full and nsteps > 1:
        caveat = (
            "homology of the truncated sequence; no inclusion into the full "
            "cohomology is claimed"
        )
    return TruncatedResult(nsteps, is_full, truncated.is_complex, table, caveat)
