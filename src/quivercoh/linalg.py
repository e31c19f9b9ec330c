"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction.  Rank and determinant
go through fraction-free Bareiss elimination on integer-cleared rows, so
they stay exact with no intermediate coefficient blowup surprises at the
sizes this package works with.  Kernels and solves use Gauss-Jordan over
Fraction directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def zeros(nrows: int, ncols: int) -> Matrix:
    z = Fraction(0)
    return tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))


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


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mneg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mscale(c, a: Matrix) -> Matrix:
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def matvec(a: Matrix, v) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def _integer_rows(a: Matrix) -> list[list[int]]:
    """Scale each row to coprime integers; rank is unchanged."""
    out = []
    for row in a:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
        ints = [int(x * lcm) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def rank(a: Matrix) -> int:
    """Rank by fraction-free Bareiss elimination."""
    rows = _integer_rows(a)
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rrc = rows[r][c]
        for i in range(r + 1, m):
            ric = rows[i][c]
            rows[i] = [
                (rrc * rows[i][j] - ric * rows[r][j]) // prev for j in range(n)
            ]
        prev = rrc
        r += 1
        if r == m:
            break
    return r


def det(a: Matrix) -> Fraction:
    """Exact determinant (Bareiss on integer-cleared rows)."""
    m, n = shape(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for row in a:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
        scale *= lcm
        rows.append([int(x * lcm) for x in row])
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = None
        for i in range(c, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            rows[i] = [
                (rows[c][c] * rows[i][j] - rows[i][c] * rows[c][j]) // prev
                for j in range(n)
            ]
        prev = rows[c][c]
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m, n = shape(a)
    rows = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [x / scale for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, deterministic order (one vector per
    free column, free coordinate set to 1)."""
    m, n = shape(a)
    if n == 0:
        return []
    if m == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]
    rows, pivots = rref(a)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b) -> Vector | None:
    """One solution of a x = b (free coordinates zero), or None."""
    m, n = shape(a)
    aug = mat([list(row) + [bv] for row, bv in zip(a, b)])
    rows, pivots = rref(aug)
    for r in range(len(rows)):
        lead = next((c for c in range(n + 1) if rows[r][c] != 0), None)
        if lead == n:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        if c < n:
            x[c] = rows[r][n]
    return tuple(x)


class SpanBasis:
    """Incremental echelon basis of a subspace of Q^n (rows kept with a
    leading 1 at their pivot, supporting exact membership tests)."""

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, list[Fraction]] = {}

    def reduce(self, v) -> list[Fraction]:
        v = [frac(x) for x in v]
        for p in sorted(self._rows):
            if v[p] != 0:
                f = v[p]
                row = self._rows[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the span."""
        red = self.reduce(v)
        pivot = next((i for i, x in enumerate(red) if x != 0), None)
        if pivot is None:
            return False
        scale = red[pivot]
        self._rows[pivot] = [x / scale for x in red]
        return True

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> list[Vector]:
        return [tuple(self._rows[p]) for p in sorted(self._rows)]


def solve_gf2(equations: list[tuple[tuple[int, ...], int]], nvars: int) -> list[int] | None:
    """Solve a linear system over GF(2).

    Each equation is (variable indices with coefficient 1, rhs bit).
    Returns one solution with free variables set to 0, or None.
    """
    rows = []
    for idxs, rhs in equations:
        bits = 0
        for i in idxs:
            bits ^= 1 << i
        rows.append([bits, rhs & 1])
    pivots = []
    r = 0
    for c in range(nvars):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][0] >> c & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][0] >> c & 1:
                rows[i][0] ^= rows[r][0]
                rows[i][1] ^= rows[r][1]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][0] == 0 and rows[i][1]:
            return None
    x = [0] * nvars
    for i, c in enumerate(pivots):
        x[c] = rows[i][1]
    return x
