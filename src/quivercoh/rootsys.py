"""Type A weight lattice and the bundle dictionary for Gr(P^k, P^n).

Weights are tuples of integers: the coefficients of the fundamental
weights of SL(n+1).  The space Gr(P^k, P^n) is the quotient of SL(n+1)
by the parabolic subgroup crossed at node k+1; projective space is the
case k = 0.  Irreducible homogeneous bundles are indexed by weights in
D_1 (coordinates nonnegative away from the crossed node), equivalently
by triples (alpha, beta, t): two partitions and an integer twist.

Everything here is pure int/Fraction arithmetic, so all values are
immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import DomainError, InternalCheckError

Weight = tuple[int, ...]


class _SpaceFields(NamedTuple):
    k: int
    n: int


class Space(_SpaceFields):
    """The Grassmannian of projective k-planes in P^n."""

    __slots__ = ()

    def __new__(cls, k, n):
        k, n = as_int(k, "k"), as_int(n, "n")
        if not (0 <= k < n):
            raise DomainError(f"need 0 <= k < n, got k={k}, n={n}")
        return super().__new__(cls, k, n)

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return (self.k + 1) * (self.n - self.k)

    @property
    def crossed(self) -> int:
        """1-based index of the crossed Dynkin node."""
        return self.k + 1

    def __str__(self):
        return f"P^{self.n}" if self.k == 0 else f"Gr({self.k},{self.n})"


def as_int(x, what: str) -> int:
    """An integral number as an int; anything else is a DomainError,
    never truncated."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} {x!r} is not an integer") from None
    if n != x:
        raise DomainError(f"{what} {x!r} is not an integer")
    return n


def as_ints(xs, what: str) -> tuple[int, ...]:
    """xs as a tuple of ints read by as_int; an all-int tuple is kept."""
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:
            return tuple(as_int(x, what) for x in xs)
    return xs


def check_weight(space: Space, w) -> Weight:
    w = as_ints(w, "weight entry")
    if len(w) != space.rank:
        raise DomainError(f"weight length {len(w)} != rank {space.rank}")
    return w


def wadd(w1: Weight, w2: Weight) -> Weight:
    return tuple(a + b for a, b in zip(w1, w2))


def wsub(w1: Weight, w2: Weight) -> Weight:
    return tuple(a - b for a, b in zip(w1, w2))


def wscale(c: int, w: Weight) -> Weight:
    return tuple(c * a for a in w)


def g_weight(space: Space) -> Weight:
    """Sum of the fundamental weights (all coordinates 1)."""
    return (1,) * space.rank


def fundamental(space: Space, i: int) -> Weight:
    if not 1 <= i <= space.rank:
        raise DomainError(f"fundamental weight index {i} out of range")
    return tuple(1 if j == i - 1 else 0 for j in range(space.rank))


def simple_root(space: Space, i: int) -> Weight:
    """alpha_i in fundamental-weight coordinates (a Cartan matrix row)."""
    if not 1 <= i <= space.rank:
        raise DomainError(f"simple root index {i} out of range")
    w = [0] * space.rank
    w[i - 1] = 2
    if i >= 2:
        w[i - 2] = -1
    if i < space.rank:
        w[i] = -1
    return tuple(w)


def to_eps(space: Space, w) -> tuple[int, ...]:
    """GL(n+1) coordinates with the last entry pinned to 0.

    e_i - e_{i+1} = w_i, so e is the suffix-sum vector of w.
    """
    w = check_weight(space, w)
    e = [0] * (space.rank + 1)
    for i in range(space.rank - 1, -1, -1):
        e[i] = e[i + 1] + w[i]
    return tuple(e)


def from_eps(space: Space, e) -> Weight:
    e = tuple(int(x) for x in e)
    if len(e) != space.rank + 1:
        raise DomainError(f"eps length {len(e)} != {space.rank + 1}")
    return tuple(e[i] - e[i + 1] for i in range(space.rank))


def killing(space: Space, w1, w2) -> Fraction:
    """Invariant pairing normalized so every root has square length 2."""
    e1 = to_eps(space, w1)
    e2 = to_eps(space, w2)
    m = space.rank + 1
    dot = sum(a * b for a, b in zip(e1, e2))
    return Fraction(dot) - Fraction(sum(e1) * sum(e2), m)


def _root_positions(space: Space, phi) -> tuple[int, int]:
    """For a root phi = eps_p - eps_q return 0-based (p, q)."""
    e = to_eps(space, phi)
    m = space.rank + 1
    total = sum(e)
    if total % m != 0:
        raise DomainError(f"{phi} is not a root")
    shift = total // m
    centered = [x - shift for x in e]
    pos = [i for i, x in enumerate(centered) if x == 1]
    neg = [i for i, x in enumerate(centered) if x == -1]
    rest = [x for x in centered if x not in (0, 1, -1)]
    if len(pos) != 1 or len(neg) != 1 or rest:
        raise DomainError(f"{phi} is not a root")
    return pos[0], neg[0]


def reflect(space: Space, phi, w) -> Weight:
    """Reflection of w in the hyperplane orthogonal to the root phi.

    In eps coordinates this swaps the two entries singled out by phi.
    """
    p, q = _root_positions(space, phi)
    e = list(to_eps(space, w))
    e[p], e[q] = e[q], e[p]
    last = e[-1]
    return from_eps(space, [x - last for x in e])


def check_partition(a) -> tuple[int, ...]:
    a = as_ints(a, "partition part")
    if any(x < 0 for x in a):
        raise DomainError(f"negative part in partition {a}")
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
        raise DomainError(f"partition {a} is not weakly decreasing")
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def weyl_dim(a, m: int) -> int:
    """dim of the Schur module with shape a on an m-dimensional space."""
    a = check_partition(a)
    if len(a) > m:
        raise DomainError(f"partition {a} has more than {m} parts")
    row = list(a) + [0] * (m - len(a))
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= row[i] - row[j] + j - i
            den *= j - i
    if num % den:
        raise InternalCheckError(f"Weyl dimension of {a} on C^{m} is not an integer")
    return num // den


class BundleShape(NamedTuple):
    """Canonical (alpha, beta, t) data of an irreducible bundle
    S^alpha(U) . S^beta(Q*) (t): alpha has strictly fewer than k+2 parts
    with the column of height k+1 absorbed into t, and likewise beta."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    t: int


def make_shape(space: Space, alpha, beta, t: int) -> BundleShape:
    """Canonicalize shape data: validate, strip zeros, absorb full columns."""
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    if len(alpha) > space.k + 1:
        raise DomainError(f"alpha {alpha} has more than {space.k + 1} parts")
    if len(beta) > space.n - space.k:
        raise DomainError(f"beta {beta} has more than {space.n - space.k} parts")
    t = as_int(t, "twist")
    if len(alpha) == space.k + 1 and alpha[-1] > 0:
        m = alpha[-1]
        alpha = check_partition(tuple(x - m for x in alpha))
        t -= m
    if len(beta) == space.n - space.k and beta[-1] > 0:
        m = beta[-1]
        beta = check_partition(tuple(x - m for x in beta))
        t -= m
    return BundleShape(alpha, beta, t)


def omega1_boxes(space: Space) -> list[tuple[int, int]]:
    """Box pairs (p, q), p a row of alpha and q a row of beta, indexing
    the weights of the cotangent bundle."""
    return [
        (p, q)
        for p in range(1, space.k + 2)
        for q in range(1, space.n - space.k + 1)
    ]


def box_weight(space: Space, p: int, q: int) -> Weight:
    """Weight translation of the arrow adding a box to alpha row p and
    beta row q: minus the run alpha_lo + ... + alpha_hi of simple roots
    crossing the marked node, which telescopes to omega_(lo-1) - omega_lo
    - omega_hi + omega_(hi+1), with omega_0 = omega_(n+1) = 0."""
    if not (1 <= p <= space.k + 1 and 1 <= q <= space.n - space.k):
        raise DomainError(f"box pair ({p}, {q}) out of range")
    lo = space.k + 2 - p
    hi = space.k + q
    w = [0] * (space.rank + 2)  # omega_0, ..., omega_(n+1)
    for i, c in ((lo - 1, 1), (lo, -1), (hi, -1), (hi + 1, 1)):
        w[i] += c
    return tuple(w[1:-1])


def omega1_weights(space: Space) -> list[Weight]:
    """Weights of the cotangent bundle, in box-pair order."""
    return [box_weight(space, p, q) for p, q in omega1_boxes(space)]


def in_d1(space: Space, w) -> bool:
    return _in_d1(space, check_weight(space, w))


def _in_d1(space: Space, w: Weight) -> bool:
    cross = space.crossed - 1
    return all(c >= 0 for i, c in enumerate(w) if i != cross)


def require_d1(space: Space, w) -> Weight:
    w = check_weight(space, w)
    if not _in_d1(space, w):
        raise DomainError(f"weight {w} is not in D_1 for {space}")
    return w


def shape_to_weight(space: Space, sh: BundleShape) -> Weight:
    """Dominant-for-the-Levi weight of S^alpha(U) . S^beta(Q*) (t).

    Pinned by two requirements: the empty shape with twist t maps to
    t times the Picard generator, and adding the (p, q) box pair
    translates by box_weight(space, p, q).
    """
    k, n = space.k, space.n
    alpha = list(sh.alpha) + [0] * (k + 1 - len(sh.alpha))
    beta = list(sh.beta) + [0] * (n - k - len(sh.beta))
    w = [0] * n
    for i in range(1, k + 1):
        w[i - 1] = alpha[k - i] - alpha[k + 1 - i]
    w[k] = sh.t - alpha[0] - beta[0]
    for i in range(k + 2, n + 1):
        w[i - 1] = beta[i - k - 2] - beta[i - k - 1]
    return tuple(w)


def shape_rows(space: Space, w: Weight) -> tuple[Weight, Weight]:
    """Rows of alpha and beta of a D_1 weight, padded to k+1 and n-k rows
    (the last row of each is 0).  No validation: callers pass weights
    already checked at the boundary."""
    k, n = space.k, space.n
    alpha = tuple(sum(w[:k + 1 - j]) for j in range(1, k + 2))
    beta = tuple(sum(w[k + j:]) for j in range(1, n - k + 1))
    return alpha, beta


def weight_to_shape(space: Space, w) -> BundleShape:
    w = require_d1(space, w)
    alpha, beta = shape_rows(space, w)
    return make_shape(space, alpha, beta, w[space.k] + alpha[0] + beta[0])


def box_addable(part: tuple[int, ...], row: int, nrows: int) -> bool:
    """Whether a box fits in the given row of a partition with at most
    nrows rows."""
    if not 1 <= row <= nrows:
        return False
    padded = list(part) + [0] * max(0, row - len(part))
    return row == 1 or padded[row - 1] + 1 <= padded[row - 2]


def add_box(part: tuple[int, ...], row: int) -> tuple[int, ...]:
    padded = list(part) + [0] * max(0, row - len(part))
    padded[row - 1] += 1
    return check_partition(padded)


def bundle_rank(space: Space, w) -> int:
    """Rank of the bundle: the Weyl dimensions of its two shapes.  A full
    column changes no Weyl dimension, so the rows need no canonical form."""
    alpha, beta = shape_rows(space, require_d1(space, w))
    return weyl_dim(alpha, space.k + 1) * weyl_dim(beta, space.n - space.k)


def slope(space: Space, w) -> Fraction:
    """First Chern class over rank: the level over the dimension.  Both
    are linear in w and take -(n + 1) / dim on every box weight, and the
    box weights span the weight space."""
    return Fraction(level(space, require_d1(space, w)), space.dim)


def omega1_slope(space: Space) -> Fraction:
    return Fraction(-(space.n + 1), space.dim)


def level(space: Space, w: Weight) -> int:
    """(n + 1) times the pairing of w with the fundamental coweight of
    the crossed node p: sum of c_i w_i with c_i = min(i, p)(n + 1 -
    max(i, p)).  Every box weight is minus a run of simple roots holding
    alpha_p once, so every quiver arrow lowers the level by exactly
    n + 1.  Integer arithmetic, no validation."""
    return sum(map(mul, _level_coefficients(space), w))


@lru_cache(maxsize=None)
def _level_coefficients(space: Space) -> tuple[int, ...]:
    p, r = space.crossed, space.rank
    return tuple(min(i, p) * (r + 1 - max(i, p)) for i in range(1, r + 1))


def first_chern(space: Space, w) -> int:
    c1 = slope(space, w) * bundle_rank(space, w)
    if c1.denominator != 1:
        raise InternalCheckError(f"first Chern class {c1} of {w} is not an integer")
    return int(c1)


def twist(space: Space, w, t: int) -> Weight:
    """Tensor by the t-th power of the Picard generator."""
    w = check_weight(space, w)
    cross = space.crossed - 1
    return tuple(c + t if i == cross else c for i, c in enumerate(w))


def dual_weight(space: Space, w) -> Weight:
    """Weight of the dual bundle.

    In eps coordinates: negate, then reverse within each Levi block
    (positions 1..k+1 and k+2..n+1), then renormalize the last entry.
    """
    e = to_eps(space, w)
    cut = space.k + 1
    block1 = [-x for x in e[:cut]][::-1]
    block2 = [-x for x in e[cut:]][::-1]
    out = block1 + block2
    last = out[-1]
    return from_eps(space, [x - last for x in out])


def component_class(space: Space, w) -> int:
    """Label of the connected component of the quiver containing w:
    the class of w in the weight lattice modulo the root lattice."""
    w = check_weight(space, w)
    m = space.rank + 1
    return sum((i + 1) * c for i, c in enumerate(w)) % m


def module_dim(space: Space, nu) -> int:
    """Dimension of the irreducible SL(n+1) module with highest weight nu."""
    nu = check_weight(space, nu)
    if any(c < 0 for c in nu):
        raise DomainError(f"weight {nu} is not dominant")
    return weyl_dim(to_eps(space, nu), space.rank + 1)


@lru_cache(maxsize=None)
def _space_cache(k: int, n: int) -> Space:
    return Space(k, n)


def space(k: int, n: int) -> Space:
    return _space_cache(k, n)
