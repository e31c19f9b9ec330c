import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercoh import bott, cohomology, rootsys
from quivercoh.bott import BottValue
from quivercoh.errors import DomainError

from conftest import GR13, GR14, P2, P3, P4

GR25 = rootsys.space(2, 5)
# ranks 6 and 7 give the longest eps vectors the oracle meets
P6 = rootsys.space(0, 6)
GR37 = rootsys.space(3, 7)
from test_rootsys import d1_weights


def bott_oracle(space, w):
    """Independent check: insertion sort with explicit swap counting."""
    e = list(rootsys.to_eps(space, rootsys.wadd(w, rootsys.g_weight(space))))
    if len(set(e)) != len(e):
        return None
    swaps = 0
    arr = list(e)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] < arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            swaps += 1
            j -= 1
    nu = tuple(arr[i] - arr[i + 1] - 1 for i in range(len(arr) - 1))
    return (swaps, nu)


def dot_action_bott(space, w):
    """Independent check in the Weyl group of the Cartan matrix: reflect
    mu = w + rho by simple roots (Cartan rows, fundamental coordinates)
    while some coordinate is negative; a zero coordinate is a wall."""
    cartan = bott.cartan_matrix("A", space.rank)
    mu = [x + 1 for x in w]
    steps = 0
    while any(x < 0 for x in mu):
        i = next(i for i, x in enumerate(mu) if x < 0)
        c = mu[i]
        mu = [x - c * a for x, a in zip(mu, cartan[i])]
        steps += 1
    if 0 in mu:
        return None
    return (steps, tuple(x - 1 for x in mu))


@st.composite
def spaced_d1_weights(draw):
    space = draw(st.sampled_from([P3, GR13, GR14, GR25, P6, GR37]))
    w = [draw(st.integers(-12, 12) if i == space.k else st.integers(0, 5))
         for i in range(space.rank)]
    return space, tuple(w)


class TestDotActionOracle:
    @settings(max_examples=400, deadline=None)
    @given(spaced_d1_weights())
    def test_matches_bott(self, case):
        space, w = case
        value = bott.bott(space, w)
        expected = dot_action_bott(space, w)
        assert (value and (value.degree, value.nu)) == expected

    @pytest.mark.parametrize(
        "space,bound", [(P3, 5), (GR13, 5), (GR14, 4), (GR25, 3), (P6, 2), (GR37, 2)]
    )
    def test_matches_bott_on_a_box(self, space, bound):
        kinds = set()
        for w in d1_weights(space, bound):
            value = bott.bott(space, w)
            assert (value and (value.degree, value.nu)) == dot_action_bott(space, w)
            kinds.add(value is None)
        assert kinds == {True, False}  # singular and regular weights both met


class TestBott:
    def test_p4_cotangent(self):
        assert bott.bott(P4, (-2, 1, 0, 0)) == BottValue(1, (0, 0, 0, 0))

    def test_trivial_bundle(self):
        for space in [P2, P3, GR13, GR14]:
            zero = (0,) * space.rank
            assert bott.bott(space, zero) == BottValue(0, zero)

    def test_o_minus_one_singular(self):
        assert bott.bott(P2, (-1, 0)) is None

    def test_rejects_outside_d1(self):
        with pytest.raises(DomainError):
            bott.bott(P2, (0, -1))

    @pytest.mark.parametrize("space,bound", [(P2, 4), (P3, 4), (GR13, 4)])
    def test_matches_oracle(self, space, bound):
        for w in d1_weights(space, bound):
            value = bott.bott(space, w)
            expected = bott_oracle(space, w)
            if expected is None:
                assert value is None
            else:
                assert value is not None
                assert (value.degree, value.nu) == expected

    @pytest.mark.parametrize("space", [P2, GR13])
    def test_serre_duality(self, space):
        n = space.n
        for w in d1_weights(space, 3):
            value = bott.bott(space, w)
            dual = rootsys.twist(space, rootsys.dual_weight(space, w), -(n + 1))
            dual_value = bott.bott(space, dual)
            if value is None:
                assert dual_value is None
                continue
            assert dual_value is not None
            assert value.degree + dual_value.degree == space.dim
            assert rootsys.module_dim(space, value.nu) == rootsys.module_dim(
                space, dual_value.nu
            )

    def test_degree_bound_and_dominance(self):
        for w in d1_weights(GR13, 3):
            value = bott.bott(GR13, w)
            if value is not None:
                assert 0 <= value.degree <= GR13.dim
                assert all(c >= 0 for c in value.nu)


class TestChambers:
    def test_p4_table(self):
        assert bott.chamber_vertices(P4) == (
            ((0, 0, 0, 0), 0),
            ((-2, 1, 0, 0), 1),
            ((-3, 0, 1, 0), 2),
            ((-4, 0, 0, 1), 3),
            ((-5, 0, 0, 0), 4),
        )

    def test_gr14_histogram(self):
        hist = [0] * (GR14.dim + 1)
        for _, d in bott.chamber_vertices(GR14):
            hist[d] += 1
        assert hist == [1, 1, 2, 2, 2, 1, 1]
        assert sum(hist) == 10

    def test_pn_one_vertex_per_degree(self):
        for n in range(1, 6):
            space = rootsys.space(0, n)
            verts = bott.chamber_vertices(space)
            assert len(verts) == n + 1
            assert sorted(d for _, d in verts) == list(range(n + 1))

    def test_count_is_euler_characteristic(self):
        for k, n in [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]:
            space = rootsys.space(k, n)
            assert len(bott.chamber_vertices(space)) == math.comb(n + 1, k + 1)

    def test_vertices_map_to_trivial_module(self):
        for w, d in bott.chamber_vertices(GR14):
            value = bott.bott(GR14, w)
            assert value == BottValue(d, (0,) * GR14.rank)


class TestMirrors:
    def test_p4_first_step(self):
        found = [m for m in bott.mirrors(P4, (0, 0, 0, 0)) if m.box == (1, 1)]
        assert found == [bott.Mirror((-2, 1, 0, 0), (1, 1), 1, True)]

    def test_pn_closed_form(self):
        # the step count across direction i+1 is the displayed coefficient
        for w in [(0, 0, 0), (2, 1, 0), (-3, 2, 1)]:
            for m in bott.mirrors(P3, w):
                if not m.up:
                    continue
                _, q = m.box
                coeff = sum(w[j] + 1 for j in range(q))
                xi = rootsys.box_weight(P3, 1, q)
                assert rootsys.wsub(m.target, w) == rootsys.wscale(coeff, xi)
                assert m.steps == coeff

    def test_p2_rejects_blocked_wall(self):
        boxes = [m.box for m in bott.mirrors(P2, (0, 0))]
        assert (1, 2) not in boxes
        assert boxes == [(1, 1)]

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            bott.mirrors(P2, (-1, 0))

    @pytest.mark.parametrize("space", [P3, GR13, GR14])
    def test_mirror_properties(self, space):
        for w in itertools.islice(d1_weights(space, 2), 60):
            value = bott.bott(space, w)
            if value is None:
                continue
            seen_chambers = set()
            for m in bott.mirrors(space, w):
                tv = bott.bott(space, m.target)
                assert tv is not None
                assert tv.nu == value.nu
                assert tv.degree == value.degree + (1 if m.up else -1)
                diff = rootsys.wsub(m.target, w)
                xi = rootsys.box_weight(space, *m.box)
                sign = 1 if m.up else -1
                assert diff == rootsys.wscale(sign * m.steps, xi)
                key = bott.chamber_key(space, m.target)
                assert key not in seen_chambers
                seen_chambers.add(key)
                # the same swap from the target returns to the source
                back = [
                    mm for mm in bott.mirrors(space, m.target) if mm.target == w
                ]
                assert len(back) == 1
                assert back[0].steps == m.steps
                assert back[0].up != m.up

    @pytest.mark.parametrize("w", [(1, 0, 0), (1,), ("a", 0), (1.5, 0)])
    def test_chamber_key_rejects_malformed_weight(self, w):
        # checked like every other weight, not truncated to the rank
        with pytest.raises(DomainError):
            bott.chamber_key(P2, w)


class TestHasse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projective_space_is_a_chain(self, n):
        assert bott.hasse_degree(rootsys.space(0, n)) == 1

    def test_gr13(self):
        assert bott.hasse_degree(GR13) == 2

    def test_gr14(self):
        assert bott.hasse_degree(GR14) == 5

    @pytest.mark.parametrize("n", range(1, 10))
    def test_standard_tableaux_of_the_rectangle(self, n):
        # independent oracle: maximal chains of the (k + 1) x (n - k) box
        # are its standard tableaux, counted by the hook length formula
        for k in range(n):
            rows, cols = k + 1, n - k
            hooks = math.prod(i + j + 1 for i in range(rows) for j in range(cols))
            assert bott.hasse_degree(rootsys.space(k, n)) == math.factorial(rows * cols) // hooks


def test_chamber_layer_digest():
    # vertices, edges, chain counts and signs for every Gr(k, n) with
    # n <= 9, pinned before the chamber walk was merged into one pass
    h = hashlib.sha256()
    for n in range(1, 10):
        for k in range(n):
            space = rootsys.space(k, n)
            h.update(repr(bott.chamber_vertices(space)).encode())
            h.update(repr(bott.chamber_graph(space)).encode())
            h.update(repr(bott.hasse_degree(space)).encode())
            h.update(repr(sorted(cohomology._sign_table(space).items())).encode())
    assert h.hexdigest() == "5cd9211bbbebb2eae8d622aba877079ed2d5e56827b43c66d848037b06a1a9d6"


class TestComponents:
    def test_table(self):
        assert bott.components_count(bott.cartan_matrix("A", 4)) == 5
        assert bott.components_count(bott.cartan_matrix("A", 6)) == 7
        assert bott.components_count(bott.cartan_matrix("B", 3)) == 2
        assert bott.components_count(bott.cartan_matrix("D", 5)) == 4
        assert bott.components_count(bott.cartan_matrix("C", 4)) == 2
        assert bott.components_count(bott.cartan_matrix("E", 6)) == 3
        assert bott.components_count(bott.cartan_matrix("E", 7)) == 2

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            bott.components_count([[2, -1, 0], [-1, 2, -1]])
