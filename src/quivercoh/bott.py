"""Cohomology of irreducible bundles and the geometry of Bott chambers.

The core algorithm: shift a weight by g, pass to eps coordinates, and
sort.  A tie means every cohomology group vanishes; otherwise the number
of inversions removed by the sort is the unique nonvanishing degree and
the sorted vector shifted back by g is the highest weight of the value.

Chambers are regions where that degree is constant.  Crossing a single
wall (a "mirror") moves the value one degree up or down while keeping
the same highest weight; these moves generate everything else in this
package: chamber enumeration, the Hasse path count, and the
differentials of the cohomology complex.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import linalg, rootsys
from .errors import DomainError, InternalCheckError
from .rootsys import Space, Weight


class BottValue(NamedTuple):
    """Nonzero cohomology of an irreducible bundle: one degree, one
    dominant weight."""

    degree: int
    nu: Weight


def _shifted_eps(w: Weight) -> list[int]:
    """eps(w + g), the last entry pinned to 0: suffix sums of w + g."""
    e = [0] * (len(w) + 1)
    total = 0
    for i in range(len(w) - 1, -1, -1):
        total += w[i] + 1
        e[i] = total
    return e


def _from_shifted(e) -> Weight:
    """The weight whose eps(w + g) is e, up to a common shift of e."""
    return tuple(e[i] - e[i + 1] - 1 for i in range(len(e) - 1))


def bott(space: Space, w) -> BottValue | None:
    """Cohomology of the irreducible bundle with weight w in D_1.

    Returns None when the shifted weight is singular (all groups zero).
    """
    return _bott_of(_shifted_eps(rootsys.require_d1(space, w)))


def _bott_of(e: list[int]) -> BottValue | None:
    """bott read off e = eps(w + g) of a weight already validated."""
    if len(set(e)) != len(e):
        return None
    inversions = sum(x < y for i, x in enumerate(e) for y in e[i + 1 :])
    return BottValue(inversions, _from_shifted(sorted(e, reverse=True)))


def chamber_key(space: Space, w) -> tuple[int, ...]:
    """Identifier of the Bott chamber containing a nonsingular weight:
    the permutation that sorts eps(w + g) descending."""
    e = _shifted_eps(rootsys.check_weight(space, w))
    if len(set(e)) != len(e):
        raise DomainError(f"weight {w} is singular; it lies on a wall")
    return _chamber_of(e)


def _chamber_of(e: list[int]) -> tuple[int, ...]:
    """chamber_key read off e = eps(w + g), its entries distinct."""
    return tuple(sorted(range(len(e)), key=lambda i: -e[i]))


class Mirror(NamedTuple):
    """Reflection of a weight into an adjacent chamber.

    target - source = (steps) * (the cotangent weight for box) when the
    move raises the degree, the negative otherwise.
    """

    target: Weight
    box: tuple[int, int]
    steps: int
    up: bool


def mirrors(space: Space, w) -> list[Mirror]:
    """All reflections of w into adjacent chambers, one wall crossed each.

    A candidate swap of eps entries is kept only when no other entry lies
    strictly between the two swapped values, which is exactly the
    condition that the segment to the target crosses a single wall.
    """
    e = _shifted_eps(rootsys.require_d1(space, w))
    if len(set(e)) != len(e):
        raise DomainError(f"weight {w} is singular; no mirrors")
    return _mirrors_of(space, e)


def _mirrors_of(space: Space, e: list[int]) -> list[Mirror]:
    """mirrors read off e = eps(w + g), its entries distinct."""
    out = []
    for p, q in rootsys.omega1_boxes(space):
        i = space.k + 1 - p          # 0-based slot in the first block
        j = space.k + q              # 0-based slot in the second block
        u, v = e[i], e[j]
        lo, hi = min(u, v), max(u, v)
        # the entries are distinct, so neither u nor v lies strictly between
        if any(lo < x < hi for x in e):
            continue
        swapped = list(e)
        swapped[i], swapped[j] = v, u
        out.append(Mirror(_from_shifted(swapped), (p, q), abs(u - v), up=u > v))
    return out


@lru_cache(maxsize=None)
def _chamber_walk(
    space: Space,
) -> tuple[tuple[tuple[Weight, int], ...], tuple[tuple[int, int], ...]]:
    """The closure of zero under mirrors: every chamber vertex with its
    degree, sorted by degree, then lexicographically, and the
    degree-raising edges as sorted index pairs into that order.  Each
    vertex's eps is read once for its Bott value and its mirrors."""
    zero = (0,) * space.rank
    degree, up = {}, []
    queue = [zero]
    while queue:
        w = queue.pop()
        if w in degree:
            continue
        e = _shifted_eps(w)
        value = _bott_of(e)
        if value is None or value.nu != zero:
            raise InternalCheckError(f"chamber vertex {w} has cohomology {value}")
        degree[w] = value.degree
        for m in _mirrors_of(space, e):
            if m.up:
                up.append((w, m.target))
            queue.append(m.target)
    verts = tuple(sorted(degree.items(), key=lambda wd: (wd[1], wd[0])))
    index = {w: i for i, (w, _) in enumerate(verts)}
    return verts, tuple(sorted((index[a], index[b]) for a, b in up))


def chamber_vertices(space: Space) -> tuple[tuple[Weight, int], ...]:
    """All weights whose cohomology is the trivial module, with their
    degrees: one per Bott chamber, found by closure under mirrors
    starting from zero.  Sorted by degree, then lexicographically."""
    return _chamber_walk(space)[0]


@lru_cache(maxsize=None)
def chamber_graph(space: Space) -> tuple[tuple[Weight, ...], tuple[tuple[int, int], ...]]:
    """Chamber adjacency: vertex weights and degree-raising edges
    (indices into the vertex tuple)."""
    verts, edges = _chamber_walk(space)
    return tuple(w for w, _ in verts), edges


def hasse_degree(space: Space) -> int:
    """Number of maximal chains in the chamber adjacency graph: the
    degree of the minimal homogeneous embedding.

    One pass over the sorted edges: the vertices go by degree and every
    edge raises it, so all paths into a chamber are counted before the
    first edge out of it is read."""
    verts, edges = _chamber_walk(space)
    paths = [int(d == 0) for _, d in verts]
    for a, b in edges:
        paths[b] += paths[a]
    top = [i for i, (_, d) in enumerate(verts) if d == space.dim]
    if len(top) != 1:
        raise InternalCheckError(f"{len(top)} chambers of top degree {space.dim}")
    return paths[top[0]]


def components_count(cartan) -> int:
    """Number of connected components of the quiver of a space with the
    given integer Cartan matrix: the absolute value of its determinant."""
    rows = linalg.mat(cartan)
    if any(len(r) != len(rows) for r in rows):
        raise DomainError("Cartan matrix must be square")
    return abs(int(linalg.det(rows)))


def cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix of a simple type (A, B, C, D, E)."""
    letter = letter.upper()
    if rank < 1:
        raise DomainError("rank must be positive")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if letter == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise DomainError("type B needs rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, down=-2, up=-1)
    elif letter == "C":
        if rank < 2:
            raise DomainError("type C needs rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, down=-1, up=-2)
    elif letter == "D":
        if rank < 3:
            raise DomainError("type D needs rank >= 3")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise DomainError("type E needs rank 6, 7 or 8")
        # chain on nodes 0..rank-2, last node hangs off position 2
        for i in range(rank - 2):
            link(i, i + 1)
        link(2, rank - 1)
    else:
        raise DomainError(f"unknown type {letter!r}")
    return a
