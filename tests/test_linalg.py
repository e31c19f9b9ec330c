"""The one elimination routine over Q: rank, det, rref, nullspace and
solve all read their answers off a SpanBasis, and must agree with the
definitions they implement."""

from bisect import insort
from copy import deepcopy
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercoh.linalg import (
    SpanBasis,
    Vector,
    _sparse,
    dense,
    det,
    mat,
    matmul,
    matvec,
    nullspace,
    rank,
    row_product,
    row_rank,
    rref,
    solve,
    transpose,
)

from conftest import gauss_jordan

ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def matrices(max_rows=5, max_cols=6, square=False):
    def build(size):
        m, n = size
        row = st.lists(ENTRY, min_size=n, max_size=n)
        return st.lists(row, min_size=m, max_size=m).map(mat)

    sizes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    if square:
        sizes = st.integers(1, max_rows).map(lambda n: (n, n))
    return sizes.flatmap(build)


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_rank_kernel_and_solve(a, data):
    n = len(a[0])
    r = rank(a)
    assert r == rank(transpose(a))

    basis = SpanBasis(n)
    for row in a:
        basis.add(row)
    assert basis.dim == r
    if r:
        # same row space, so the same (unique) reduced echelon form
        assert rref(mat(basis.basis()))[0] == rref(a)[0][:r]

    kernel = nullspace(a)
    assert len(kernel) == n - r
    for vec in kernel:
        assert all(x == 0 for x in matvec(a, vec))
    if kernel:
        assert rank(mat(kernel)) == len(kernel)

    x = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
    b = matvec(a, x)
    found = solve(a, b)
    assert found is not None and matvec(a, found) == b
    # a nonzero left-kernel vector y is never in the column space: y.y != 0
    left = nullspace(transpose(a))
    if left:
        assert solve(a, left[0]) is None


INT_ROWS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=5)
)


def sparse_rows(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@settings(max_examples=80, deadline=None)
@given(INT_ROWS, st.integers(1, 4), st.data())
def test_sparse_integer_rows_match_dense(rows, den, data):
    """row_rank, row_product and dense agree with rank and matmul on the
    dense rational matrices of the same integer rows."""
    width = len(rows[0])
    a = dense(sparse_rows(rows), width, den)
    assert a == mat([[Fraction(x, den) for x in row] for row in rows])
    assert row_rank(sparse_rows(rows), width) == rank(a)
    after = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)), max_size=4)
    )
    product = row_product(sparse_rows(after), sparse_rows(rows))
    assert all(0 not in row.values() for row in product)
    if after:
        assert dense(product, width, 1) == matmul(mat(after), mat(rows))


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=4, square=True))
def test_det_is_the_leibniz_expansion(a):
    assert det(a) == leibniz(a)


def test_span_basis_insert_reports_pivot_and_value():
    basis = SpanBasis(3)
    assert basis.insert({1: Fraction(2), 2: Fraction(4)}) == (1, 2, 1)
    assert basis.insert({1: Fraction(-1), 2: Fraction(-2)}) is None
    assert basis.insert({0: Fraction(3), 1: Fraction(1)}) == (0, 3, 1)
    # a value over a denominator: 1/2 at the pivot
    assert SpanBasis(2).insert({0: Fraction(1, 2), 1: Fraction(1, 3)}) == (0, 3, 6)
    assert basis.basis() == [
        (Fraction(1), Fraction(0), Fraction(-2, 3)),
        (Fraction(0), Fraction(1), Fraction(2)),
    ]


def test_rref_keeps_zero_rows_last():
    rows, pivots = rref(mat([[0, 2, 4], [0, 1, 2], [1, 0, 1]]))
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 2], [0, 0, 0]]


def test_edge_shapes():
    assert det(()) == 1
    assert nullspace(()) == []
    assert solve((), ()) == ()
    assert nullspace(mat([[0, 0]])) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        det(mat([[1, 2]]))


# Wide-range entries: numerators up to 10^12 over denominators that
# include large primes, so inserting a row clears denominators with an
# lcm and keeping it divides out a nontrivial content.
DENOMINATORS = (1, 2, 6, 65537, 2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1)
WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.sampled_from(DENOMINATORS),
    ),
)


def wide_matrices(max_rows=5, max_cols=6, square=False, entries=WIDE):
    """Random rows, then rows that are linear combinations of earlier
    ones, so rank deficiency is common."""

    def build(size, data):
        m, n = size
        rows = [data.draw(st.lists(entries, min_size=n, max_size=n))]
        while len(rows) < m:
            if data.draw(st.booleans()):
                i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
                a, b = data.draw(WIDE), data.draw(WIDE)
                rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
            else:
                rows.append(data.draw(st.lists(entries, min_size=n, max_size=n)))
        return mat(rows)

    sizes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    if square:
        sizes = st.integers(1, max_rows).map(lambda n: (n, n))
    return st.tuples(sizes, st.data()).map(lambda args: build(*args))


@settings(max_examples=80, deadline=None)
@given(wide_matrices())
def test_wide_range_rref_kernel_and_basis(a):
    assert rref(a) == gauss_jordan(a)
    for vec in nullspace(a):
        assert all(x == 0 for x in matvec(a, vec))
    basis = SpanBasis(len(a[0]))
    for row in a:
        basis.add(row)
    for row in basis.basis():
        assert next(x for x in row if x) == 1


@settings(max_examples=60, deadline=None)
@given(wide_matrices(max_rows=4, square=True))
def test_wide_range_det_is_the_leibniz_expansion(a):
    assert det(a) == leibniz(a)


def reference_solve(a, b):
    """Plain Fraction Gauss-Jordan on [a | b]: the solution with free
    coordinates zero, or None when the last column holds a pivot."""
    n = len(a[0])
    rows, pivots = gauss_jordan([list(row) + [y] for row, y in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


SPARSE = st.one_of(st.just(Fraction(0)), WIDE)


@settings(max_examples=80, deadline=None)
@given(wide_matrices(max_rows=6, max_cols=5, entries=SPARSE), st.data())
def test_solve_matches_gauss_jordan(a, data):
    """solve answers each right-hand side, consistent (a x) and
    arbitrary, exactly as a separate elimination of [a | b]."""
    m, n = len(a), len(a[0])
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            b = matvec(a, data.draw(st.lists(SPARSE, min_size=n, max_size=n)))
        else:
            b = data.draw(st.lists(SPARSE, min_size=m, max_size=m))
        assert solve(a, b) == reference_solve(a, b)


def test_solver_rejects_a_right_hand_side_of_the_wrong_length():
    a = mat([[1, 0], [0, 1]])
    for b in (mat([[1, 2, 3]])[0], mat([[1]])[0]):
        with pytest.raises(ValueError, match="shape mismatch"):
            solve(a, b)


# The eager insert: every new vector is reduced at every stored pivot,
# so each row vanishes at the pivots kept before it.  The reference for
# SpanBasis, which keeps its rows in echelon form only and finishes the
# reduction where they are read.


class _EagerSpanBasis:
    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self._rows: dict[int, dict[int, int]] = {}

    def _reduce(self, v: dict[int, int], pivots) -> int:
        """Make v vanish at the given pivots in place, by steps
        v <- (a/g) v - (b/g) row; return the factor v was scaled by."""
        scale = 1
        for p in pivots:
            b = v.get(p)
            if not b:
                continue
            row = self._rows[p]
            a = row[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                scale *= a
                for j in v:
                    v[j] *= a
            for j, y in row.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
        return scale

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
        scale = den * self._reduce(v, self.pivots)
        if not v:
            return None
        pivot = min(v)
        num = v[pivot]
        self._keep(pivot, v)
        insort(self.pivots, pivot)
        return pivot, num, scale

    def add(self, v) -> bool:
        """Insert a dense vector; True if it enlarged the span."""
        return self.insert(_sparse(v)) is not None

    def back_reduce(self) -> None:
        """Clear each pivot column in the other rows: the rows become the
        reduced row echelon form of the span, up to positive scalars."""
        for i in reversed(range(len(self.pivots))):
            p = self.pivots[i]
            row = self._rows[p]
            self._reduce(row, self.pivots[i + 1 :])
            self._keep(p, row)

    @property
    def dim(self) -> int:
        return len(self.pivots)

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
        zero = Fraction(0)
        return [
            tuple(
                Fraction(row[j], row[p]) if j in row else zero
                for j in range(self.width)
            )
            for p, row in sorted(self._rows.items())
        ]


def _step_value(step):
    """An insert's pivot and value at it, None for a vector in the span:
    num and scale on their own may differ between the two classes."""
    return None if step is None else (step[0], Fraction(step[1], step[2]))


def _read(basis):
    """basis() and kernel() of a copy, leaving basis as it was."""
    copy = deepcopy(basis)
    return copy.basis(), copy.kernel()


OPS = ("insert", "insert", "insert_ints", "insert_ints", "add", "basis", "kernel", "back_reduce")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_echelon_inserts_match_the_eager_reduction(width, data):
    """Random interleavings of inserts and reads give the same pivots,
    the same basis() and kernel(), and the same value at each new pivot
    as reducing every insert at every stored pivot.  A third of the
    vectors are combinations of earlier ones, so many lie in the span."""
    lazy, eager = SpanBasis(width), _EagerSpanBasis(width)
    seen = []
    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=14)):
        if op in ("basis", "kernel"):
            assert getattr(lazy, op)() == getattr(eager, op)()
        elif op == "back_reduce":
            lazy.back_reduce()
            eager.back_reduce()
        else:
            vec = data.draw(st.lists(WIDE, min_size=width, max_size=width))
            if seen and data.draw(st.integers(0, 2)) == 0:
                a, b = data.draw(WIDE), data.draw(WIDE)
                u, w = data.draw(st.sampled_from(seen)), data.draw(st.sampled_from(seen))
                vec = [a * x + b * y for x, y in zip(u, w)]
            seen.append(vec)
            if op == "add":
                assert lazy.add(vec) == eager.add(vec)
            elif op == "insert":
                sparse = dict(enumerate(vec))
                assert _step_value(lazy.insert(sparse)) == _step_value(eager.insert(sparse))
            else:
                den = data.draw(st.sampled_from(DENOMINATORS))
                ints = {j: x.numerator for j, x in enumerate(vec) if x}
                assert _step_value(lazy.insert_ints(dict(ints), den)) == _step_value(
                    eager.insert_ints(dict(ints), den)
                )
        assert lazy.pivots == eager.pivots
        assert _read(lazy) == _read(eager)
