"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction.  Every elimination
over Q goes through SpanBasis, an incremental echelon basis of sparse
primitive integer rows, reduced fraction-free.  An insert reduces a row
only until its leading column holds no pivot, so the rows are kept in
echelon form; basis() and back_reduce finish the reduction where rows
are read.  rank and det insert a matrix's rows into one basis, rref
back-reduces it, nullspace reads its answer off the reduced rows, and
solve, the one exact solve, reads x off the back-reduced rows of
[a | b].  Sparse rows, {column: value} dicts such as the cohomology
engine's integer differentials, are ranked as they are by row_rank,
multiplied by row_product and made dense by dense.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} times {rb}x{cb}")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(ca)), Fraction(0)) for j in range(cb))
        for i in range(ra)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def dense(rows, width: int, den: int) -> Matrix:
    """The matrix of sparse rows, {column: integer} dicts, over den."""
    return tuple(tuple(Fraction(row.get(c, 0), den) for c in range(width)) for row in rows)


def row_product(a, b) -> list[dict[int, int]]:
    """a times b, both sparse rows; the product's rows, zeros dropped."""
    out = []
    for row in a:
        total: dict[int, int] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                total[j] = total.get(j, 0) + x * y
        out.append({j: x for j, x in total.items() if x})
    return out


def matvec(a: Matrix, v) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def _sparse(v) -> dict[int, Fraction]:
    return {j: frac(x) for j, x in enumerate(v) if x}


def _eliminate(v: dict[int, int], row: dict[int, int], p: int) -> int:
    """Make v vanish at p in place, by v <- (a/g) v - (b/g) row with
    a = row[p], b = v[p] and g their gcd; return a/g, the factor v was
    scaled by."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, y in row.items():
        x = v.get(j, 0) - b * y
        if x:
            v[j] = x
        else:
            del v[j]
    return a


class SpanBasis:
    """Incremental echelon basis of a subspace of Q^width, the one
    elimination routine over Q.  Rows are primitive integer vectors,
    sparse {column: int} dicts whose entries have gcd 1 and whose leading
    entry, at the pivot, is positive; each is a positive multiple of the
    leading-1 row over Q.  A new vector is cleared of denominators once
    and reduced fraction-free only while its leading column holds a
    pivot, so the rows stay in echelon form and the reduction loops do
    integer arithmetic only; insert_ints takes an integer row as it is,
    for callers that discard their rows.  The rest of the reduction is
    done where rows are read: basis() clears each row at the pivots kept
    before it, and back_reduce clears every pivot column in the other
    rows."""

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, dict[int, int]] = {}  # by pivot, in insertion order
        self._done = 0  # the first _done rows vanish at every earlier pivot

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def _reduce(self, v: dict[int, int], pivots) -> None:
        """Make v vanish at the given pivots in place."""
        for p in pivots:
            if v.get(p):
                _eliminate(v, self._rows[p], p)

    def _keep(self, pivot: int, v: dict[int, int]) -> None:
        """Store v at its pivot, divided by its content, leading entry > 0."""
        c = gcd(*v.values())
        if v[pivot] < 0:
            c = -c
        self._rows[pivot] = {j: x // c for j, x in v.items()}

    def insert(self, vec: dict[int, Fraction | int]) -> tuple[int, int, int] | None:
        """Insert a sparse vector of rationals or integers; return its
        pivot p, and integers num and scale with num / scale the value at
        p before scaling, or None if it already lies in the span."""
        if all(type(x) is int for x in vec.values()):
            return self.insert_ints({j: x for j, x in vec.items() if x})
        den = lcm(*(x.denominator for x in vec.values()))
        v = {j: x.numerator * (den // x.denominator) for j, x in vec.items() if x}
        return self.insert_ints(v, den)

    def insert_ints(self, v: dict[int, int], den: int = 1) -> tuple[int, int, int] | None:
        """insert for the vector v / den, v a sparse row of nonzero
        integers that the caller gives up: v is reduced in place."""
        rows = self._rows
        scale = den
        while v:
            pivot = min(v)
            row = rows.get(pivot)
            if row is None:
                break
            scale *= _eliminate(v, row, pivot)
        if not v:
            return None
        num = v[pivot]
        self._keep(pivot, v)
        return pivot, num, scale

    def _finish(self) -> None:
        """Clear each row kept since the last finish at the pivots kept
        before it, in ascending order.  The row then spans the one line
        of span(v, earlier rows) that vanishes at those pivots, v the
        vector inserted, so it is the row that reducing each insert at
        every pivot would have kept, entry for entry."""
        order = list(self._rows)
        earlier = sorted(order[: self._done])
        for p in order[self._done :]:
            row = self._rows[p]
            self._reduce(row, earlier)
            self._keep(p, row)
            insort(earlier, p)
        self._done = len(order)

    def add(self, v) -> bool:
        """Insert a dense vector; True if it enlarged the span."""
        return self.insert(_sparse(v)) is not None

    def back_reduce(self) -> None:
        """Clear each pivot column in the other rows: the rows become the
        reduced row echelon form of the span, up to positive scalars."""
        pivots = self.pivots
        for i in reversed(range(len(pivots))):
            p = pivots[i]
            row = self._rows[p]
            self._reduce(row, pivots[i + 1 :])
            self._keep(p, row)
        self._done = len(pivots)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def kernel(self) -> list[Vector]:
        """One vector per free column, that coordinate 1, orthogonal to
        every row: read off the back-reduced rows."""
        self.back_reduce()
        out = []
        for free in range(self.width):
            if free not in self._rows:
                v = [Fraction(0)] * self.width
                v[free] = Fraction(1)
                for p, row in self._rows.items():
                    v[p] = -Fraction(row.get(free, 0), row[p])
                out.append(tuple(v))
        return out

    def basis(self) -> list[Vector]:
        """The rows scaled to a leading 1, dense."""
        self._finish()
        zero = Fraction(0)
        return [
            tuple(
                Fraction(row[j], row[p]) if j in row else zero
                for j in range(self.width)
            )
            for p, row in sorted(self._rows.items())
        ]


def _row_basis(rows, width: int) -> SpanBasis:
    basis = SpanBasis(width)
    for row in rows:
        basis.insert(row)
    return basis


def row_rank(rows, width: int) -> int:
    """Rank of sparse rows, {column: value} dicts of integers or
    rationals, inserted as they are: integer rows need no clearing."""
    return _row_basis(rows, width).dim


def rank(a: Matrix) -> int:
    return row_rank(map(_sparse, a), shape(a)[1])


def det(a: Matrix) -> Fraction:
    """Exact determinant: the product of the pivot values met while the
    rows are inserted, times the sign of the pivot order."""
    m, n = shape(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    basis = SpanBasis(n)
    order = []
    out = Fraction(1)
    for row in a:
        step = basis.insert(_sparse(row))
        if step is None:
            return Fraction(0)
        pivot, num, scale = step
        order.append(pivot)
        out *= Fraction(num, scale)
    inversions = sum(p > q for i, p in enumerate(order) for q in order[i + 1 :])
    return -out if inversions % 2 else out


def rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (zero rows last) and pivot column indices."""
    m, n = shape(a)
    basis = _row_basis(map(_sparse, a), n)
    basis.back_reduce()
    rows = [list(row) for row in basis.basis()]
    rows += [[Fraction(0)] * n for _ in range(m - len(rows))]
    return rows, list(basis.pivots)


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, deterministic order (one vector per
    free column, free coordinate set to 1)."""
    return _row_basis(map(_sparse, a), shape(a)[1]).kernel()


def solve(a: Matrix, b) -> Vector | None:
    """One solution of a x = b (free coordinates zero), or None if column
    n of [a | b] holds a pivot; else x[p] is read off the back-reduced
    row at each pivot p, whose first n columns are a row of rref(a)."""
    m, n = shape(a)
    if len(b) != m:
        raise ValueError(f"shape mismatch {m}x{n} matrix, right-hand side of length {len(b)}")
    basis = SpanBasis(n + 1)
    for row, y in zip(a, b):
        v = _sparse(row)
        if y:
            v[n] = frac(y)
        basis.insert(v)
    if n in basis._rows:
        return None
    basis.back_reduce()
    x = [Fraction(0)] * n
    for p, row in basis._rows.items():
        x[p] = Fraction(row.get(n, 0), row[p])
    return tuple(x)
