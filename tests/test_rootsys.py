import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercoh import pieri, quiver, rootsys
from quivercoh.errors import DomainError
from quivercoh.rootsys import Space

from conftest import GR13, GR24, P2, P3

SPACES = [P2, P3, GR13, GR24, rootsys.space(1, 4), rootsys.space(2, 5)]


def weights_st(space, lo=-5, hi=5):
    return st.tuples(*[st.integers(lo, hi) for _ in range(space.rank)])


def d1_weights(space, bound):
    ranges = []
    for i in range(space.rank):
        if i == space.k:
            ranges.append(range(-bound, bound + 1))
        else:
            ranges.append(range(0, bound + 1))
    return itertools.product(*ranges)


class TestIntegralInput:
    @pytest.mark.parametrize("k, n", [(0.5, 3), ("0", "3"), (0, "3"), (Fraction(1, 2), 2), (-1, 3)])
    def test_space_rejects_non_integral_or_out_of_range_arguments(self, k, n):
        # Space(0.5, 3) used to be accepted, with dim 3.75
        with pytest.raises(DomainError):
            Space(k, n)

    @pytest.mark.parametrize("k, n", [(0, 3.0), (Fraction(1), 3), (1.0, Fraction(4))])
    def test_space_keeps_integral_arguments_as_ints(self, k, n):
        space = Space(k, n)
        assert type(space.k) is int and type(space.n) is int
        assert repr(space) == f"Space(k={int(k)}, n={int(n)})"

    def test_non_integral_weight_entries_are_rejected(self):
        for bad in [(0.5, 0.5), (Fraction(1, 2), 0), ("1", 0), (float("nan"), 0)]:
            with pytest.raises(DomainError):
                rootsys.check_weight(P2, bad)
        # truncation used to answer with the arrows of (0, 0)
        with pytest.raises(DomainError):
            quiver.arrows_from(P2, (0.5, 0.5))
        with pytest.raises(DomainError):
            quiver.make_rep(P2, [((0, 0), 1.5)], [])

    def test_integral_entries_of_any_type_are_kept(self):
        assert rootsys.check_weight(P2, [1, -2]) == (1, -2)
        assert rootsys.check_weight(P2, (2.0, Fraction(-3))) == (2, -3)
        assert all(type(x) is int for x in rootsys.check_weight(P2, (2.0, Fraction(-3))))

    def test_non_integral_partition_parts_are_rejected(self):
        # truncation used to read each of these as the shape (1,) or (2, 1)
        calls = [
            lambda: rootsys.check_partition((1.5,)),
            lambda: rootsys.check_partition((2, Fraction(1, 2))),
            lambda: rootsys.check_partition(("1",)),
            lambda: rootsys.weyl_dim((2.7, 1), 3),
            lambda: pieri.realize((1.5,), 2),
            lambda: rootsys.make_shape(GR13, (1,), (), 1.5),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_integral_partition_parts_of_any_type_are_kept(self):
        parts = rootsys.check_partition((2.0, Fraction(1), 0))
        assert parts == (2, 1) and all(type(x) is int for x in parts)
        assert rootsys.weyl_dim((2.0, 1), 3) == rootsys.weyl_dim((2, 1), 3) == 8
        shape = rootsys.make_shape(GR13, (1,), (), Fraction(2))
        assert shape == rootsys.make_shape(GR13, (1,), (), 2) and type(shape.t) is int


class TestEps:
    def test_zero(self):
        assert rootsys.to_eps(P2, (0, 0)) == (0, 0, 0)

    def test_fundamental(self):
        assert rootsys.to_eps(P2, (1, 0)) == (1, 0, 0)

    def test_derived_example(self):
        assert rootsys.to_eps(P2, (1, 1)) == (2, 1, 0)

    @given(w=weights_st(P3))
    def test_round_trip(self, w):
        assert rootsys.from_eps(P3, rootsys.to_eps(P3, w)) == w

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            rootsys.to_eps(P2, (1, 2, 3))


class TestKilling:
    def test_fundamental_vs_simple(self):
        assert rootsys.killing(P3, rootsys.fundamental(P3, 1), rootsys.simple_root(P3, 1)) == 1
        assert rootsys.killing(P3, rootsys.fundamental(P3, 1), rootsys.simple_root(P3, 2)) == 0

    def test_g_pairs_to_one_with_every_simple_root(self):
        for space in SPACES:
            g = rootsys.g_weight(space)
            for i in range(1, space.rank + 1):
                assert rootsys.killing(space, g, rootsys.simple_root(space, i)) == 1

    def test_roots_have_square_length_two(self):
        for space in SPACES:
            for phi in rootsys.omega1_weights(space):
                assert rootsys.killing(space, phi, phi) == 2

    @given(w1=weights_st(P3), w2=weights_st(P3))
    def test_symmetric(self, w1, w2):
        assert rootsys.killing(P3, w1, w2) == rootsys.killing(P3, w2, w1)


class TestReflect:
    def test_fixes_other_fundamentals(self):
        assert rootsys.reflect(P3, rootsys.simple_root(P3, 1), rootsys.fundamental(P3, 2)) == (0, 1, 0)

    def test_moves_own_fundamental(self):
        assert rootsys.reflect(P3, rootsys.simple_root(P3, 2), rootsys.fundamental(P3, 2)) == (1, -1, 1)

    @given(w=weights_st(P3), i=st.integers(1, 3))
    def test_involution(self, w, i):
        phi = rootsys.simple_root(P3, i)
        assert rootsys.reflect(P3, phi, rootsys.reflect(P3, phi, w)) == w

    @given(w1=weights_st(P3, -3, 3), w2=weights_st(P3, -3, 3), i=st.integers(1, 3))
    @settings(max_examples=60)
    def test_preserves_killing(self, w1, w2, i):
        phi = rootsys.simple_root(P3, i)
        r1 = rootsys.reflect(P3, phi, w1)
        r2 = rootsys.reflect(P3, phi, w2)
        assert rootsys.killing(P3, r1, r2) == rootsys.killing(P3, w1, w2)

    def test_omega1_weights_are_roots(self):
        for space in SPACES:
            for phi in rootsys.omega1_weights(space):
                rootsys.reflect(space, phi, rootsys.g_weight(space))

    def test_non_root_rejected(self):
        with pytest.raises(DomainError):
            rootsys.reflect(P2, (1, 0), (0, 0))


def count_ssyt(a, m):
    """Semistandard tableaux count by brute-force filling."""
    from quivercoh.pieri import semistandard_tableaux

    return len(semistandard_tableaux(a, m))


class TestWeylDim:
    @pytest.mark.parametrize(
        "a,m,expected",
        [((1,), 4, 4), ((2,), 2, 3), ((2, 1), 3, 8), ((), 3, 1), ((1, 1), 4, 6)],
    )
    def test_values(self, a, m, expected):
        assert rootsys.weyl_dim(a, m) == expected

    def test_matches_tableau_count(self):
        shapes = [
            (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
            (4,), (3, 1), (2, 2), (2, 1, 1), (5,), (3, 2),
        ]
        for a in shapes:
            for m in range(len(a) or 1, 5):
                assert rootsys.weyl_dim(a, m) == count_ssyt(a, m)

    def test_too_many_parts(self):
        with pytest.raises(DomainError):
            rootsys.weyl_dim((1, 1, 1), 2)


class TestOmega1:
    def test_p2(self):
        a1 = rootsys.simple_root(P2, 1)
        a12 = tuple(x + y for x, y in zip(a1, rootsys.simple_root(P2, 2)))
        expected = {tuple(-x for x in a1), tuple(-x for x in a12)}
        assert set(rootsys.omega1_weights(P2)) == expected

    def test_gr13_count(self):
        assert len(rootsys.omega1_weights(GR13)) == 4

    def test_count_is_dimension(self):
        for k in range(0, 4):
            for n in range(k + 1, 8):
                space = rootsys.space(k, n)
                ws = rootsys.omega1_weights(space)
                assert len(ws) == space.dim
                assert len(set(ws)) == space.dim

    @pytest.mark.parametrize("n", range(1, 10))
    def test_box_weight_is_minus_a_run_of_simple_roots(self, n):
        for k in range(n):
            space = rootsys.space(k, n)
            for p, q in rootsys.omega1_boxes(space):
                run = [rootsys.simple_root(space, i) for i in range(k + 2 - p, k + q + 1)]
                expected = tuple(-sum(column) for column in zip(*run))
                assert rootsys.box_weight(space, p, q) == expected

    def test_box_weight_range_check(self):
        for p, q in [(0, 1), (3, 1), (1, 0), (1, 3)]:
            with pytest.raises(DomainError, match=rf"box pair \({p}, {q}\) out of range"):
                rootsys.box_weight(GR13, p, q)


class TestShapeDictionary:
    def test_picard_generator(self):
        sh = rootsys.make_shape(P2, (), (), 1)
        assert rootsys.shape_to_weight(P2, sh) == (1, 0)

    def test_cotangent_p2(self):
        sh = rootsys.make_shape(P2, (1,), (1,), 0)
        assert rootsys.shape_to_weight(P2, sh) == (-2, 1)

    def test_round_trip_gr13(self):
        for w in d1_weights(GR13, 4):
            sh = rootsys.weight_to_shape(GR13, w)
            assert rootsys.shape_to_weight(GR13, sh) == w

    def test_not_d1_rejected(self):
        with pytest.raises(DomainError):
            rootsys.weight_to_shape(P2, (0, -1))

    @pytest.mark.parametrize("space", [GR13, GR24])
    def test_box_addition_invariant(self, space):
        ka, kb = space.k + 1, space.n - space.k
        shapes = [
            (alpha, beta)
            for alpha in itertools.product(range(4), repeat=ka - 1)
            for beta in itertools.product(range(4), repeat=kb - 1)
            if all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))
            and all(beta[i] >= beta[i + 1] for i in range(len(beta) - 1))
            and sum(alpha) <= 3 and sum(beta) <= 3
        ]
        from quivercoh.pieri import add_box, box_addable

        for alpha, beta in shapes:
            alpha = rootsys.check_partition(alpha)
            beta = rootsys.check_partition(beta)
            base = rootsys.shape_to_weight(space, rootsys.make_shape(space, alpha, beta, 0))
            for p in range(1, ka + 1):
                for q in range(1, kb + 1):
                    if not (box_addable(alpha, p, ka) and box_addable(beta, q, kb)):
                        continue
                    bigger = rootsys.make_shape(
                        space, add_box(alpha, p), add_box(beta, q), 0
                    )
                    diff = rootsys.wsub(
                        rootsys.shape_to_weight(space, bigger), base
                    )
                    assert diff == rootsys.box_weight(space, p, q)

    def test_column_absorption(self):
        # a full column on either side is a twist by O(-1)
        sh = rootsys.make_shape(GR13, (2,), (1, 1), 0)
        assert sh == rootsys.make_shape(GR13, (2,), (), -1)
        sh2 = rootsys.make_shape(GR13, (1, 1), (), 5)
        assert sh2.alpha == () and sh2.t == 4
        sh3 = rootsys.make_shape(GR13, (2, 1), (1, 1), 0)
        assert sh3 == rootsys.BundleShape((1,), (), -2)


class TestSlope:
    def test_cotangent_gr13(self):
        w = rootsys.shape_to_weight(GR13, rootsys.make_shape(GR13, (1,), (1,), 0))
        assert rootsys.slope(GR13, w) == -1

    def test_line_bundles(self):
        for t in range(-3, 4):
            assert rootsys.slope(P2, (t, 0)) == t

    def test_cotangent_pn(self):
        for n in range(2, 6):
            space = rootsys.space(0, n)
            omega = rootsys.box_weight(space, 1, 1)
            assert rootsys.slope(space, omega) == Fraction(-(n + 1), n)
            assert rootsys.omega1_slope(space) == Fraction(-(n + 1), n)

    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_level_over_dim_and_shape_formula(self, space):
        # slope = level / dim, and = t - |alpha| / (k + 1) - |beta| / (n - k)
        rng = random.Random(7)
        for _ in range(200):
            w = tuple(
                rng.randint(-6, 6) if i == space.k else rng.randint(0, 4)
                for i in range(space.rank)
            )
            sh = rootsys.weight_to_shape(space, w)
            by_shape = (
                sh.t
                - Fraction(sum(sh.alpha), space.k + 1)
                - Fraction(sum(sh.beta), space.n - space.k)
            )
            assert rootsys.slope(space, w) == Fraction(rootsys.level(space, w), space.dim)
            assert rootsys.slope(space, w) == by_shape

    def test_levelled(self):
        # adding any cotangent weight shifts the slope by the cotangent slope
        for space in [P2, GR13, GR24]:
            mu = rootsys.omega1_slope(space)
            for w in itertools.islice(d1_weights(space, 2), 40):
                for xi in rootsys.omega1_weights(space):
                    shifted = rootsys.wadd(w, xi)
                    if rootsys.in_d1(space, shifted):
                        assert rootsys.slope(space, shifted) == rootsys.slope(space, w) + mu

    @pytest.mark.parametrize("space", SPACES + [rootsys.space(0, 4)], ids=str)
    def test_every_box_shift_lowers_the_level_by_n_plus_one(self, space):
        # the grading behind tangent_dim's column orders
        drop = space.n + 1
        for w in itertools.islice(d1_weights(space, 2), 60):
            for xi in rootsys.omega1_weights(space):
                shifted = rootsys.wadd(w, xi)
                assert rootsys.level(space, shifted) == rootsys.level(space, w) - drop


class TestDualWeight:
    def test_line_bundle(self):
        for space in SPACES:
            for t in (-2, 0, 3):
                ot = rootsys.twist(space, (0,) * space.rank, t)
                assert rootsys.dual_weight(space, ot) == rootsys.twist(
                    space, (0,) * space.rank, -t
                )

    def test_involution(self):
        for space in [P2, GR13, GR24]:
            for w in itertools.islice(d1_weights(space, 2), 60):
                assert rootsys.dual_weight(space, rootsys.dual_weight(space, w)) == w

    def test_rank_preserved(self):
        for w in itertools.islice(d1_weights(GR13, 2), 40):
            dual = rootsys.dual_weight(GR13, w)
            assert rootsys.bundle_rank(GR13, dual) == rootsys.bundle_rank(GR13, w)

    def test_slope_negated(self):
        for w in itertools.islice(d1_weights(GR24, 2), 40):
            dual = rootsys.dual_weight(GR24, w)
            assert rootsys.slope(GR24, dual) == -rootsys.slope(GR24, w)


class TestSerialization:
    def test_module_dim(self):
        assert rootsys.module_dim(P3, (0, 1, 0)) == 6
        assert rootsys.module_dim(P2, (1, 1)) == 8

    def test_component_class_invariant_under_arrows(self):
        for space in [P2, GR13]:
            for w in itertools.islice(d1_weights(space, 2), 30):
                c = rootsys.component_class(space, w)
                for xi in rootsys.omega1_weights(space):
                    shifted = rootsys.wadd(w, xi)
                    assert rootsys.component_class(space, shifted) == c

    def test_space_validation(self):
        with pytest.raises(DomainError):
            Space(2, 2)
