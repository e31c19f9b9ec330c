"""The one elimination routine over Q: rank, det, rref, nullspace and
Solver all read their answers off a SpanBasis, and must agree with the
definitions they implement."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercoh.linalg import (
    SpanBasis,
    Solver,
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


def gauss_jordan(a):
    """Reference reduced row echelon form by plain Fraction elimination."""
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
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


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
def test_solver_matches_gauss_jordan(a, data):
    """One Solver answers several right-hand sides, consistent (a x) and
    arbitrary, exactly as a separate elimination of each [a | b]."""
    m, n = len(a), len(a[0])
    solver = Solver(a)
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            b = matvec(a, data.draw(st.lists(SPARSE, min_size=n, max_size=n)))
        else:
            b = data.draw(st.lists(SPARSE, min_size=m, max_size=m))
        expected = reference_solve(a, b)
        assert solver(b) == expected
        assert solve(a, b) == expected
