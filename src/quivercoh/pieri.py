"""Brute-force equivariant one-box (Pieri) maps on concrete Schur modules.

This module is the independent oracle for the relation coefficients used
by the quiver: it realizes Schur modules as explicit submodules of
products of symmetric powers, solves for the unique equivariant one-box
maps by linear algebra, and reads off composite coefficients, never
consulting the coefficient tables it is meant to check.

A realization of shape a on an m-space is generated from the highest
weight vector inside Sym^{a_1} x ... x Sym^{a_r} of C^m by repeated
lowering; multiplicity one makes every equivariant map recoverable by a
small solve on its highest weight vector.  One routine, _raising_kernel,
finds every highest vector (in the ambient product and in module x C^m),
and one step, _lower_step, lowers a column of module x C^m by f_i x 1 +
1 x f_i along a realization's lowering tree to build the one-box maps.

One-box maps are composed in one way only: two_step_coefficients reads
the composite of two one-box inclusions.  The side constants of the
relation check (_side_constant) are two-step coefficients too, since
each one-box surjection is a scalar multiple of the adjoint of its
inclusion; no product map onto a summand is built or solved.

The oracle computes only the columns an answer reads.  A realization
computes each generator column (op_column) on first use, and each column
of a one-box map (_pieri_column) is lowered along its own ancestors
only: a two-step coefficient reads the columns of the first map where
the second map's highest image is nonzero, and the highest vectors read
the raising columns of their candidates.  op_matrix and pieri_map
assemble full matrices from these columns.  Every cache is a
module-level lru_cache or lives on a realization, so clearing the
lru_caches makes the next call cold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg, rootsys
from .errors import DomainError, InternalCheckError
from .linalg import Matrix, SpanBasis, mat
from .quiver import relation_system
from .rootsys import Space, add_box, box_addable

Shape = tuple[int, ...]

MAX_BOXES = 8
MAX_DIM = 4


def semistandard_tableaux(a: Shape, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard tableaux of shape a with entries in 1..m."""
    a = rootsys.check_partition(a)
    if not a:
        return [()]

    rows: list[tuple[tuple[int, ...], ...]] = []

    def fill(done, row_idx):
        if row_idx == len(a):
            rows.append(tuple(done))
            return
        width = a[row_idx]
        above = done[row_idx - 1] if row_idx else None

        def fill_row(row, col):
            if col == width:
                fill(done + [tuple(row)], row_idx + 1)
                return
            lo = row[-1] if row else 1
            if above is not None and col < len(above):
                lo = max(lo, above[col] + 1)
            for entry in range(lo, m + 1):
                fill_row(row + [entry], col + 1)

        fill_row([], 0)

    fill([], 0)
    return rows


def tableau_content(tab, m: int) -> tuple[int, ...]:
    counts = [0] * m
    for row in tab:
        for x in row:
            counts[x - 1] += 1
    return tuple(counts)


def _sym_basis(d: int, m: int) -> list[tuple[int, ...]]:
    """Exponent vectors of monomials of degree d in m variables."""
    if m == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], d, m)
    return out


class _Ambient:
    """Product of symmetric powers of C^m with a sparse operator action."""

    def __init__(self, shape: Shape, m: int):
        self.shape = shape
        self.m = m
        factor_bases = [_sym_basis(d, m) for d in shape]
        self.basis: list[tuple[tuple[int, ...], ...]] = [()]
        for fb in factor_bases:
            self.basis = [prev + (mono,) for prev in self.basis for mono in fb]
        self.index = {b: i for i, b in enumerate(self.basis)}

    def weight(self, idx: int) -> tuple[int, ...]:
        w = [0] * self.m
        for mono in self.basis[idx]:
            for t, v in enumerate(mono):
                w[t] += v
        return tuple(w)

    def apply_E(self, p: int, q: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Matrix unit E_{pq} (0-based), acting as a derivation."""
        out: dict[int, Fraction] = {}
        for idx, coeff in vec.items():
            element = self.basis[idx]
            for f, mono in enumerate(element):
                if mono[q] == 0:
                    continue
                new_mono = list(mono)
                new_mono[q] -= 1
                new_mono[p] += 1
                new_elt = element[:f] + (tuple(new_mono),) + element[f + 1 :]
                j = self.index[new_elt]
                out[j] = out.get(j, Fraction(0)) + coeff * mono[q]
        return {i: c for i, c in out.items() if c != 0}


class SchurRealization:
    """Concrete Schur module: basis vectors inside the ambient product of
    symmetric powers, the lowering tree that produced them, and the
    Chevalley generator action."""

    def __init__(
        self,
        shape: Shape,
        m: int,
        ambient: _Ambient,
        basis: list[dict[int, Fraction]],
        parents: list[tuple[int, int] | None],
        weights: list[tuple[int, ...]],
    ):
        self.shape = shape
        self.m = m
        self.ambient = ambient
        self.basis = basis
        self.parents = parents
        self.weights = weights
        self._expand_cache = {}
        self._op_cache = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def tableaux(self) -> list:
        """One semistandard tableau per basis vector, of its weight: the
        sorted tableaux of each weight dealt out in basis order."""
        by_content: dict[tuple[int, ...], list] = {}
        for t in sorted(semistandard_tableaux(self.shape, self.m)):
            by_content.setdefault(tableau_content(t, self.m), []).append(t)
        return [by_content[w].pop(0) for w in self.weights]

    @property
    def kappa(self) -> int:
        return 0

    def basis_by_weight(self, w) -> list[int]:
        return [i for i, bw in enumerate(self.weights) if bw == tuple(w)]

    def expand(self, vec: dict[int, Fraction], w) -> list[Fraction]:
        """Coordinates of an ambient vector of weight w in this basis
        (zero for basis vectors of other weights); one solver per weight
        space, built on first use."""
        out = [Fraction(0)] * self.dim
        if not vec:
            return out
        w = tuple(w)
        if w not in self._expand_cache:
            idxs = self.basis_by_weight(w)
            support = sorted({i for j in idxs for i in self.basis[j]})
            rows = [
                [self.basis[j].get(i, Fraction(0)) for j in idxs] for i in support
            ]
            self._expand_cache[w] = (
                idxs, support, linalg.Solver(mat(rows) if rows else ())
            )
        idxs, support, solver = self._expand_cache[w]
        if any(vec[i] != 0 for i in vec.keys() - set(support)):
            raise InternalCheckError("vector outside the realized module")
        x = solver([vec.get(i, Fraction(0)) for i in support])
        if x is None:
            raise InternalCheckError("vector outside the realized module")
        for j, c in zip(idxs, x):
            out[j] = c
        return out

    def op_column(self, kind: str, i: int, j: int) -> tuple[Fraction, ...]:
        """Column j of the generator action, kind in {e, f, h} and
        1 <= i <= m-1: e_i and f_i act on basis vector j in the ambient
        product (apply_E) and the image is expanded in this basis.
        Cached on the realization."""
        key = (kind, i, j)
        col = self._op_cache.get(key)
        if col is None:
            w = self.weights[j]
            if kind == "h":
                col = [Fraction(0)] * self.dim
                col[j] = Fraction(w[i - 1] - w[i])
            else:
                p, q = (i - 1, i) if kind == "e" else (i, i - 1)
                new_w = list(w)
                new_w[q] -= 1
                new_w[p] += 1
                col = self.expand(self.ambient.apply_E(p, q, self.basis[j]), new_w)
            col = self._op_cache[key] = tuple(col)
        return col

    def op_matrix(self, kind: str, i: int) -> Matrix:
        """Generator action: kind in {e, f, h}, 1 <= i <= m-1, the matrix
        of its op_column columns."""
        return linalg.transpose([self.op_column(kind, i, j) for j in range(self.dim)])

    def e(self, i: int) -> Matrix:
        return self.op_matrix("e", i)

    def f(self, i: int) -> Matrix:
        return self.op_matrix("f", i)

    def h(self, i: int) -> Matrix:
        return self.op_matrix("h", i)


def _raising_kernel(ncand: int, images_by_p) -> list[tuple[Fraction, ...]]:
    """Kernel of the raising operators on the span of ncand candidate
    vectors.  images_by_p yields, for each raising operator in turn, the
    sparse image of every candidate; each image coordinate gives one row
    over the candidates.  With no rows (m = 1) every unit vector is in
    the kernel."""
    span = SpanBasis(ncand)
    for images in images_by_p:
        rows: dict = {}
        for pos, image in enumerate(images):
            for coord, c in image.items():
                rows.setdefault(coord, {})[pos] = c
        for row in rows.values():
            span.insert(row)
    return span.kernel()


@lru_cache(maxsize=None)
def realize(a: Shape, m: int) -> SchurRealization:
    """Build the Schur module of shape a on an m-space from its highest
    weight vector by lowering closure."""
    a = rootsys.check_partition(a)
    if len(a) > m:
        raise DomainError(f"partition {a} has more than {m} parts")
    if sum(a) > MAX_BOXES or m > MAX_DIM:
        raise DomainError(
            f"realization limited to {MAX_BOXES} boxes on at most {MAX_DIM}-spaces"
        )
    ambient = _Ambient(a, m)
    content = tuple(list(a) + [0] * (m - len(a)))

    # highest weight vector: the weight-(content) solution of e_i v = 0
    hw_idxs = [i for i in range(len(ambient.basis)) if ambient.weight(i) == content]
    kernel = _raising_kernel(len(hw_idxs), (
        [ambient.apply_E(p, p + 1, {idx: Fraction(1)}) for idx in hw_idxs]
        for p in range(m - 1)
    ))
    if len(kernel) != 1:
        raise InternalCheckError(
            f"highest weight space of {a} on C^{m} has dimension {len(kernel)}"
        )
    vec = kernel[0]
    canonical = ambient.index[
        tuple(
            tuple(d if t == f else 0 for t in range(m))
            for f, d in enumerate(a)
        )
    ]
    pos_of = {idx: pos for pos, idx in enumerate(hw_idxs)}
    scale = vec[pos_of[canonical]]
    if scale == 0:
        raise InternalCheckError("canonical monomial missing from highest vector")
    kappa = {
        idx: vec[pos] / scale for idx, pos in pos_of.items() if vec[pos] != 0
    }

    basis = [kappa]
    parents: list[tuple[int, int] | None] = [None]
    weights = [content]
    # lowering leaves the highest weight, so its space needs no echelon
    width = len(ambient.basis)
    echelons: dict[tuple[int, ...], SpanBasis] = {}

    queue = [0]
    while queue:
        j = queue.pop(0)
        for i in range(1, m):
            image = ambient.apply_E(i, i - 1, basis[j])
            if not image:
                continue
            w = list(weights[j])
            w[i - 1] -= 1
            w[i] += 1
            w = tuple(w)
            if echelons.setdefault(w, SpanBasis(width)).insert(image) is not None:
                basis.append(image)
                parents.append((j, i))
                weights.append(w)
                queue.append(len(basis) - 1)

    expected = rootsys.weyl_dim(a, m)
    if len(basis) != expected:
        raise InternalCheckError(
            f"closure of {a} on C^{m} has dimension {len(basis)}, expected {expected}"
        )

    return SchurRealization(a, m, ambient, basis, parents, weights)


def _highest_vectors(real: SchurRealization, target) -> list[tuple[Fraction, ...]]:
    """Highest weight vectors of the given weight in (module) x C^m,
    coordinates indexed i*m + t."""
    m = real.m
    target = tuple(target)
    candidates = [
        (i, t)
        for i, w in enumerate(real.weights)
        for t in range(m)
        if w[:t] + (w[t] + 1,) + w[t + 1 :] == target
    ]
    if not candidates:
        return []

    def images(p: int):
        """Images of the candidates under E_{p,p+1} x 1 + 1 x E_{p,p+1},
        read off the e_p columns of the candidates only."""
        per_candidate = []
        for i, t in candidates:
            image = {(i2, t): c for i2, c in enumerate(real.op_column("e", p, i)) if c}
            if t == p:  # E_{p,p+1} sends e_{p+1} to e_p (0-based t)
                image[(i, p - 1)] = 1
            per_candidate.append(image)
        return per_candidate

    out = []
    for vec in _raising_kernel(len(candidates), (images(p) for p in range(1, m))):
        full = [Fraction(0)] * (real.dim * m)
        for pos, (i, t) in enumerate(candidates):
            full[i * m + t] = vec[pos]
        out.append(tuple(full))
    return out


class PieriMatrix(NamedTuple):
    """The equivariant one-box map from the module of the larger shape
    into (module of the smaller shape) x C^m, normalized so the highest
    vector maps to kappa x e_row plus lower terms with coefficient 1.
    Rows are indexed i*m + t over the target realization basis."""

    source: Shape
    target: Shape
    row: int
    m: int
    matrix: Matrix


@lru_cache(maxsize=None)
def _pieri_highest(a: Shape, row: int, m: int) -> tuple[Fraction, ...]:
    """Normalized image of the highest vector of a+box under the one-box
    map into (module a) x C^m."""
    if not box_addable(a, row, m):
        raise DomainError(f"cannot add a box in row {row} of {a} inside {m} rows")
    real = realize(a, m)
    target = add_box(a, row)
    content = tuple(list(target) + [0] * (m - len(target)))
    sols = _highest_vectors(real, content)
    if len(sols) != 1:
        raise InternalCheckError(
            f"one-box map space for {a} + row {row} has dimension {len(sols)}"
        )
    z = sols[0]
    norm = z[real.kappa * m + (row - 1)]
    if norm == 0:
        raise InternalCheckError("normalizing coefficient vanished in one-box map")
    # zeros stay the shared zero of _highest_vectors
    return tuple(x / norm if x else x for x in z)


@lru_cache(maxsize=None)
def _pieri_column(a: Shape, row: int, m: int, j: int) -> tuple[Fraction, ...]:
    """Column j of the normalized one-box map: the highest column
    lowered along the ancestors of j in the lowering tree of the
    realization of a+box only."""
    if j == 0:
        return _pieri_highest(a, row, m)
    parent, i = realize(add_box(a, row), m).parents[j]
    return _lower_step(realize(a, m), _pieri_column(a, row, m, parent), i)


@lru_cache(maxsize=None)
def pieri_map(a: Shape, row: int, m: int) -> PieriMatrix:
    """Full matrix of the normalized one-box map, columns over the
    realization of a+box, assembled from its _pieri_column columns."""
    a = rootsys.check_partition(a)
    _pieri_highest(a, row, m)  # validates the box
    source = realize(add_box(a, row), m)
    cols = [_pieri_column(a, row, m, j) for j in range(source.dim)]
    return PieriMatrix(source.shape, a, row, m, linalg.transpose(cols))


def _lower_step(real: SchurRealization, col, i: int) -> tuple[Fraction, ...]:
    """f_i x 1 + 1 x f_i applied to one column of (module real) x C^m,
    coordinates b*m + t, reading the f_i columns it meets.  Only the
    one-box maps are lowered: the side constants of the relation check
    are read from two-step coefficients, with no product-map summands."""
    m = real.m
    out = [Fraction(0)] * (real.dim * m)
    for idx, c in enumerate(col):
        if c == 0:
            continue
        b, t = divmod(idx, m)
        for b2, fc in enumerate(real.op_column("f", i, b)):
            if fc != 0:
                out[b2 * m + t] += c * fc
        if t == i - 1:  # f_i sends e_i to e_{i+1} (0-based t)
            out[b * m + i] += c
    return tuple(out)


def two_step_coefficients(a: Shape, rows: tuple[int, int], m: int) -> tuple[Fraction, Fraction]:
    """Compose the one-box maps adding a box in rows[0] then rows[1]
    (each normalized) and read the coefficients of kappa x e_i x e_j and
    kappa x e_j x e_i in the image of the top highest vector."""
    i, j = rows
    a = rootsys.check_partition(a)
    if not box_addable(a, i, m):
        raise DomainError(f"cannot add a box in row {i} of {a}")
    a1 = add_box(a, i)
    if not box_addable(a1, j, m):
        raise DomainError(f"cannot add a box in row {j} of {a1}")
    z2 = _pieri_highest(a1, j, m)
    kappa_block = realize(a, m).kappa * m

    def coefficient(r: int, t: int) -> Fraction:
        """Coordinate kappa x e_r of psi1 = pieri_map(a, i, m) applied to
        the e_t slice of z2 (0-based r, t): column b of psi1 is read
        only where the slice is nonzero."""
        return sum(
            (
                _pieri_column(a, i, m, b)[kappa_block + r] * z
                for b, z in enumerate(z2[t::m])
                if z
            ),
            Fraction(0),
        )

    return coefficient(i - 1, j - 1), coefficient(j - 1, i - 1)


def _side_constant(a: Shape, m: int, first_row: int, second_row: int,
                   fed_first: int, fed_second: int, memo: dict | None = None) -> Fraction | None:
    """kappa coefficient of m2(e_fed2 x m1(e_fed1 x kappa)) on one side,
    or None when a step is invalid.  m1 and m2 are the equivariant
    surjections (module) x C^m onto the module with a box added in
    first_row, then in second_row, each normalized to send kappa x e_row
    to kappa.  memo, when given, holds the two-step coefficients already
    computed, keyed by (a, rows, m), and gains the ones computed here.

    The constant is a two-step coefficient.  Each one-box step has
    multiplicity one, so each normalized surjection is a scalar multiple
    of the contravariant adjoint of the normalized one-box inclusion.
    kappa alone spans its weight space, so the constant is one scalar
    times the kappa x e_fed1 x e_fed2 coordinate of the composite
    inclusion applied to the top vector.  Both read 1 at (fed1, fed2) =
    (first_row, second_row), so the scalar is 1.  Any other (fed1, fed2)
    has the wrong weight, and its constant is 0.
    """
    if not box_addable(a, first_row, m):
        return None
    if not box_addable(add_box(a, first_row), second_row, m):
        return None
    rows, fed = (first_row, second_row), (fed_first, fed_second)
    if fed != rows and fed != rows[::-1]:
        return Fraction(0)
    if memo is None:
        memo = {}
    key = (a, rows, m)
    if key not in memo:
        memo[key] = two_step_coefficients(a, rows, m)
    c_ij, c_ji = memo[key]
    return c_ij if fed == rows else c_ji


def wedge_functionals(space: Space, w, boxes):
    """Evaluation constants of the antisymmetrized two-step compositions.

    Returns (paths, functionals): paths is the ordered list of existing
    two-step paths (first box pair, second box pair); each functional is
    the list of constants multiplying the corresponding path composites
    in one component of the quadratic obstruction.
    """
    (pa, qa), (pb, qb) = boxes
    p1, p2 = min(pa, pb), max(pa, pb)
    q1, q2 = min(qa, qb), max(qa, qb)
    sh = rootsys.weight_to_shape(space, w)
    mu, mq = space.k + 1, space.n - space.k

    path_list = sorted({
        ((pi, qj), (p1 + p2 - pi, q1 + q2 - qj))
        for pi in (p1, p2)
        for qj in (q1, q2)
    })

    memo = {}  # one two-step computation per (shape, rows, m) in this call

    def term(path, fed1, fed2):
        (pi, qj), (pl, qm) = path
        ku = _side_constant(sh.alpha, mu, pi, pl, fed1[0], fed2[0], memo)
        kq = _side_constant(sh.beta, mq, qj, qm, fed1[1], fed2[1], memo)
        if ku is None or kq is None:
            return None
        return ku * kq

    def functional(nA, nB):
        values = []
        for path in path_list:
            t1 = term(path, nB, nA)
            t2 = term(path, nA, nB)
            if t1 is None and t2 is None:
                values.append(None)
            else:
                values.append((t1 or Fraction(0)) - (t2 or Fraction(0)))
        return values

    wedges = []
    if p1 != p2 and q1 != q2:
        wedges.append(functional((p1, q2), (p2, q1)))
        wedges.append(functional((p1, q1), (p2, q2)))
    elif p1 == p2 and q1 != q2:
        wedges.append(functional((p1, q1), (p1, q2)))
    elif p1 != p2 and q1 == q2:
        wedges.append(functional((p1, q1), (p2, q1)))
    return path_list, wedges


def verify_relation_coefficients(space: Space, w, boxes) -> bool:
    """Check the emitted relation equations against the oracle constants.

    The span of the oracle functionals over existing paths must equal the
    span of the relation equations; mismatch raises.
    """
    path_list, wedges = wedge_functionals(space, w, boxes)
    # a functional entry is None exactly on the paths that cannot be added
    exists = [i for i, x in enumerate(wedges[0]) if x is not None] if wedges else []
    rows_oracle = []
    for func in wedges:
        row = [func[i] if func[i] is not None else Fraction(0) for i in exists]
        rows_oracle.append(row)
    equations = relation_system(space, w, boxes)
    rows_eq = []
    for equation in equations:
        coeffs = {(f, s): c for f, s, c in equation.terms}
        rows_eq.append([coeffs.get(path_list[i], Fraction(0)) for i in exists])

    oracle_nonzero = [r for r in rows_oracle if any(x != 0 for x in r)]
    if not rows_eq:
        if oracle_nonzero:
            raise InternalCheckError(
                f"oracle finds obstructions at {w} {boxes} but no equations emitted"
            )
        return True
    if not oracle_nonzero:
        raise InternalCheckError(
            f"equations emitted at {w} {boxes} but oracle functionals vanish"
        )
    if not _same_row_span(rows_oracle, rows_eq):
        raise InternalCheckError(
            f"relation equations at {w} {boxes} disagree with oracle constants: "
            f"oracle {rows_oracle}, equations {rows_eq}"
        )
    return True


def _same_row_span(rows_a, rows_b) -> bool:
    if not rows_a or not rows_b:
        return not rows_a and not rows_b
    a = mat(rows_a)
    b = mat(rows_b)
    ra = linalg.rank(a)
    rb = linalg.rank(b)
    rab = linalg.rank(mat(list(rows_a) + list(rows_b)))
    return ra == rb == rab


# -------------------------------------------------------------- P^2 matrices


Ext = tuple[Fraction, Fraction, Fraction, Fraction]  # 1, x, y, x^y


def ext(c0=0, cx=0, cy=0, cxy=0) -> Ext:
    return (Fraction(c0), Fraction(cx), Fraction(cy), Fraction(cxy))


def ext_mul(u: Ext, v: Ext) -> Ext:
    a0, ax, ay, axy = u
    b0, bx, by, bxy = v
    return (
        a0 * b0,
        a0 * bx + ax * b0,
        a0 * by + ay * b0,
        a0 * bxy + axy * b0 + ax * by - ay * bx,
    )


def ext_add(u: Ext, v: Ext) -> Ext:
    return tuple(a + b for a, b in zip(u, v))


def ext_zero(u: Ext) -> bool:
    return all(c == 0 for c in u)


def ext_matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    if len(A[0]) != inner:
        raise InternalCheckError(f"shape mismatch {rows}x{len(A[0])} times {inner}x{cols}")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ext()
            for k in range(inner):
                acc = ext_add(acc, ext_mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def ext_mat_add(A, B):
    return [[ext_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ext_mat_zero(A) -> bool:
    return all(ext_zero(x) for row in A for x in row)


def p2_matrices(k: int):
    """The bidiagonal extension matrices over the rank-2 exterior algebra
    (entries in 1, x, y, x^y), with their 1/(k+1) and 1/k prefactors."""
    if k < 1:
        raise DomainError("k must be >= 1")
    c = [[ext() for _ in range(k + 1)] for _ in range(k)]
    for i in range(k):
        c[i][i] = ext(cx=Fraction(1, k + 1))
        c[i][i + 1] = ext(cy=Fraction(1, k + 1))
    b = [[ext() for _ in range(k)] for _ in range(k + 1)]
    for i in range(k):
        b[i][i] = ext(cy=Fraction(-(k - i), k))
        b[i + 1][i] = ext(cx=Fraction(i + 1, k))
    return c, b


def wedge_check(k: int) -> bool:
    """Verify the three composition identities tying consecutive
    extension matrices together."""
    c_k, b_k = p2_matrices(k)
    c_k1, b_k1 = p2_matrices(k + 1)
    if not ext_mat_zero(ext_matmul(c_k, c_k1)):
        return False
    if not ext_mat_zero(ext_matmul(b_k1, b_k)):
        return False
    mixed = ext_mat_add(ext_matmul(c_k1, b_k1), ext_matmul(b_k, c_k))
    return ext_mat_zero(mixed)
