import random
from fractions import Fraction
from itertools import product

import pytest

from quivercoh import linalg, quiver, rootsys, stability
from quivercoh.cli import main
from quivercoh.errors import DomainError, InternalCheckError
from quivercoh.generate import random_rep
from quivercoh.linalg import mat, matmul

from conftest import (
    GR13,
    GR14,
    P1,
    P2,
    P3,
    adv_rep,
    dual_euler_rep,
    euler_rep,
    ex73_rep,
    generic_ex73_rep,
    random_segment_rep,
    reference_rank,
    rescaled_ex73_rep,
    segment_rep,
    terminal_witnesses,
)


def oo2_rep(arrow):
    """O and O(-2) on the projective line."""
    arrows = [((0,), (1, 1), [[arrow]])] if arrow else []
    return quiver.make_rep(P1, [((0,), 1), ((-2,), 1)], arrows)


class TestCharacter:
    def test_ex73_values(self):
        rep = generic_ex73_rep()
        ch = stability.canonical_character(rep)
        assert ch.scale == 1
        expected = {
            (0, 0): 0,
            (1, 1): -72,
            (-2, 1): 72,
            (-1, 2): 0,
            (0, 3): -144,
            (-3, 3): 144,
            (-2, 4): 0,
        }
        assert dict(ch.sigma) == expected

    def test_single_vertex_zero(self):
        rep = quiver.make_rep(GR13, [((2, 0, 1), 3)], [])
        ch = stability.canonical_character(rep)
        assert all(s == 0 for _, s in ch.sigma)

    def test_full_dimension_vector_pairs_to_zero(self, rng):
        for _ in range(6):
            rep = random_segment_rep(P2, rng)
            ch = stability.canonical_character(rep)
            full = {v.weight: v.dim for v in rep.vertices}
            assert stability.pairing(ch, full) == 0


class TestPairing:
    def test_supersheaf_signs(self):
        ch = stability.canonical_character(oo2_rep(1))
        assert stability.pairing(ch, {(0,): 1}) == -2
        assert stability.pairing(ch, {(-2,): 1}) == 2
        assert stability.pairing(ch, {(0,): 1, (-2,): 1}) == 0

    def test_matches_slope_identity(self):
        # pairing = rk(sub) rk(whole) (mu(whole) - mu(sub)) up to scale
        rep = oo2_rep(1)
        ch = stability.canonical_character(rep)
        mu_whole = Fraction(-2, 2)
        for subdims, rk, c1 in [({(0,): 1}, 1, 0), ({(-2,): 1}, 1, -2)]:
            mu_sub = Fraction(c1, rk)
            expected = rk * 2 * (mu_whole - mu_sub)
            assert stability.pairing(ch, subdims) == expected * ch.scale


def spans_at(rep, weight):
    spans = [[] for _ in rep.vertices]
    spans[rep.vertex_index(weight)] = [[1]]
    return spans


class TestWitness:
    def test_nonsplit_terminal_sub_semistable(self):
        rep = oo2_rep(1)
        ch = stability.canonical_character(rep)
        report = stability.check_witness(rep, spans_at(rep, (0,)), ch)
        # closure drags the generator to the terminal vertex
        assert not report.arrow_closed
        assert report.pairing == 0
        terminal = stability.check_witness(rep, spans_at(rep, (-2,)), ch)
        assert terminal.arrow_closed
        assert terminal.pairing == 2
        assert not terminal.destabilizes

    def test_split_destabilized_at_top(self):
        rep = oo2_rep(0)
        ch = stability.canonical_character(rep)
        report = stability.check_witness(rep, spans_at(rep, (0,)), ch)
        assert report.arrow_closed
        assert report.pairing == -2
        assert report.destabilizes

    def test_euler_rep_has_no_destabilizer(self):
        rep = euler_rep(P2)
        ch = stability.canonical_character(rep)
        both = [[[1]] for _ in rep.vertices]
        for spans in (spans_at(rep, (0, 0)), spans_at(rep, (1, 1)), both):
            report = stability.check_witness(rep, spans, ch)
            assert not report.destabilizes

    def test_rescaling_arrows_changes_nothing(self, rng):
        rep = random_segment_rep(P2, rng)
        scaled = quiver.make_rep(
            rep.space,
            rep.vertices,
            [
                (a.src, a.dst, a.box, [[Fraction(5, 3) * x for x in row] for row in a.matrix])
                for a in rep.arrows
            ],
        )
        ch = stability.canonical_character(rep)
        for spans, nonzero in terminal_witnesses(rep):
            if not nonzero:
                continue
            a = stability.check_witness(rep, spans, ch)
            b = stability.check_witness(scaled, spans, ch)
            assert a.pairing == b.pairing
            assert a.destabilizes == b.destabilizes


class TestPathSemistable:
    def test_split_pair_unstable(self):
        rep = oo2_rep(0)
        ch = stability.canonical_character(rep)
        assert not stability.path_semistable(rep, ch)

    def test_nonsplit_pair_semistable(self):
        rep = oo2_rep(1)
        ch = stability.canonical_character(rep)
        assert stability.path_semistable(rep, ch)

    def test_euler_semistable(self):
        rep = euler_rep(P2)
        ch = stability.canonical_character(rep)
        assert stability.path_semistable(rep, ch)

    def test_doubled_interval_same_verdict(self):
        single = oo2_rep(1)
        doubled = segment_rep(
            P1, (0,), (1, 1), [2, 2], [[[1, 0], [0, 1]]]
        )
        ch1 = stability.canonical_character(single)
        ch2 = stability.canonical_character(doubled)
        assert stability.path_semistable(single, ch1) == stability.path_semistable(
            doubled, ch2
        )

    @pytest.mark.parametrize("space_name,seed", [("P2", 5), ("GR13", 6), ("P1", 7)])
    def test_agrees_with_exhaustive_witnesses(self, space_name, seed):
        space = {"P1": P1, "P2": P2, "GR13": GR13}[space_name]
        rng = random.Random(seed)
        for _ in range(12):
            rep = random_segment_rep(space, rng, total_dim=6)
            ch = stability.canonical_character(rep)
            verdict = stability.path_semistable(rep, ch)
            worst = 0
            for spans, nonzero in terminal_witnesses(rep):
                if not nonzero:
                    continue
                report = stability.check_witness(rep, spans, ch)
                assert report.arrow_closed
                worst = min(worst, report.pairing)
            assert verdict == (worst >= 0)

    def test_rejects_non_segment(self):
        ch = stability.canonical_character(adv_rep())
        with pytest.raises(DomainError):
            stability.path_semistable(adv_rep(), ch)

    def test_builds_one_relation_plan_per_call(self, monkeypatch):
        built = []

        def counting_plan(rep):
            built.append(1)
            return quiver.relation_plan(rep)

        monkeypatch.setattr(stability, "relation_plan", counting_plan)
        rng = random.Random(11)
        for space in (P2, GR13):
            rep = random_segment_rep(space, rng, total_dim=6)
            ch = stability.canonical_character(rep)
            for call in (
                lambda: stability.path_semistable(rep, ch),
                lambda: stability.interval_multiplicities(rep),
            ):
                built.clear()
                call()
                assert len(built) == 1


class TestTangent:
    def test_generic_family_point(self):
        assert stability.tangent_dim(generic_ex73_rep()) == 1

    def test_irreducible_vertex_rigid(self):
        rep = quiver.make_rep(P2, [((3, 2), 4)], [])
        assert stability.tangent_dim(rep) == 0

    def test_two_distant_vertices(self):
        rep = quiver.make_rep(P2, [((0, 0), 1), ((3, 0), 1)], [])
        assert stability.tangent_dim(rep) == 0

    def test_invalid_rep_rejected(self):
        bad = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        with pytest.raises(DomainError):
            stability.tangent_dim(bad)

    def test_base_change_invariance(self, rng):
        rep = generic_ex73_rep()
        for _ in range(3):
            conjugated = _conjugate(rep, rng)
            assert quiver.check_relations(conjugated) == []
            assert stability.tangent_dim(conjugated) == 1

    @pytest.mark.parametrize("space", [P2, P3, GR13, GR14], ids=str)
    def test_base_change_invariance_on_random_reps(self, space):
        rng = random.Random(23)
        for max_dim in (2, 3, 3, 4):
            rep = _random_valid_rep(space, rng, max_dim)
            expected = stability.tangent_dim(rep)
            conjugated = _conjugate(rep, rng)
            assert quiver.check_relations(conjugated) == []
            assert stability.tangent_dim(conjugated) == expected

    @pytest.mark.parametrize("space", [P2, P3, GR13, GR14], ids=str)
    @pytest.mark.parametrize("max_dim", [2, 3, 4])
    def test_matches_full_endomorphism_system(self, space, max_dim):
        rng = random.Random(100 * max_dim + space.n)
        for _ in range(9):
            rep = _random_valid_rep(space, rng, max_dim)
            assert stability.tangent_dim(rep) == _tangent_oracle(rep)

    def test_negative_dimension_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        # the gauge rank is at most the number of free coordinates it is
        # read at, so only a broken _gauge_rank can make the result negative
        monkeypatch.setattr(stability, "_gauge_rank", lambda *args: 10**6)
        rep = generic_ex73_rep()
        with pytest.raises(InternalCheckError, match="negative tangent dimension"):
            stability.tangent_dim(rep)
        path = tmp_path / "rep.json"
        path.write_text(quiver.rep_to_json(rep))
        assert main(["stability", "tangent", "--rep", str(path)]) == 3
        assert capsys.readouterr().err.startswith("internal error: negative tangent dimension")


@pytest.mark.parametrize("space", [P2, P3, GR13, GR14, rootsys.space(2, 5)], ids=str)
@pytest.mark.parametrize("order", ["plain", "reversed"])
def test_answer_does_not_depend_on_the_column_order(monkeypatch, space, order):
    # rank does not depend on column order, and the free-coordinate
    # argument holds for an echelon basis in any column order
    calls = []

    def ascending(keys):
        calls.append(len(keys))
        plain = list(range(len(keys)))
        return plain if order == "plain" else plain[::-1]

    monkeypatch.setattr(stability, "_ascending", ascending)
    rng = random.Random(31 * space.n + space.k)
    for max_dim in (1, 2, 3, 4, 5):
        rep = _random_valid_rep(space, rng, max_dim)
        assert stability.tangent_dim(rep) == _tangent_oracle(rep)
    # both eliminations took their column order from the helper
    assert len(calls) == 10


@pytest.mark.parametrize("space", [P2, P3, GR13, GR14], ids=str)
@pytest.mark.parametrize("isolated", [False, True])
@pytest.mark.parametrize("drop_level", [False, True])
def test_jacobian_annihilates_the_gauge_orbit(space, isolated, drop_level):
    # the premise of tangent_dim's free-coordinate rank, in exact arithmetic
    rng = random.Random(7 * space.n + 2 * isolated + drop_level)
    absent = moved = 0
    for _ in range(6):
        rep = _random_valid_rep(space, rng, 3, isolated, drop_level)
        slots = quiver.relation_plan(rep).slots
        absent += len(rep.arrows) < len(slots)
        orbit = _orbit_vectors(rep, slots)
        moved += any(map(any, orbit))
        for row, _ in quiver.relation_jacobian(rep, slots):
            for vec in orbit:
                assert sum(x * vec[c] for c, x in row.items()) == 0
    assert moved and (absent or not drop_level)


def _random_valid_rep(space, rng, max_dim, isolated=None, drop_level=None):
    """A seeded rep that satisfies the relations.  isolated adds a vertex
    far from every other; drop_level removes every arrow out of the
    vertices of one slope, which keeps each relation: either every path
    of it uses an arrow out of that slope or none does.  Each is drawn
    at random when None."""
    rep = random_rep(space, rng, max_dim=max_dim, max_vertices=10)
    if isolated is None:
        isolated = rng.random() < 0.3
    if drop_level is None:
        drop_level = rng.random() < 0.3
    vertices = [(v.weight, v.dim) for v in rep.vertices]
    arrows = [(rep.vertices[a.src].weight, a.box, a.matrix) for a in rep.arrows]
    if isolated:
        # a twist by a multiple of n + 1 stays in the component
        far = rootsys.twist(space, vertices[0][0], 20 * (space.n + 1))
        vertices.append((far, rng.randint(1, max_dim)))
    if drop_level and arrows:
        level = rootsys.slope(space, rng.choice(arrows)[0])
        arrows = [a for a in arrows if rootsys.slope(space, a[0]) != level]
    rep = quiver.make_rep(space, vertices, arrows)
    assert quiver.check_relations(rep) == []
    return rep


def _orbit_vectors(rep, slots):
    """u_dst A - A u_src over the slots, dense and row-major per slot as
    in relation_jacobian, for u each elementary matrix at each vertex:
    these span the tangent space of the gauge orbit."""
    dims = rep.dims()
    blocks = [(i, j, rep.arrow_matrix(i, j)) for i, j in slots]
    out = []
    for v, d in enumerate(dims):
        for a, b in product(range(d), repeat=2):
            vec = []
            for i, j, m in blocks:
                for r, c in product(range(dims[j]), range(dims[i])):
                    x = Fraction(0)
                    if m is not None and j == v and r == a:
                        x += m[b][c]
                    if m is not None and i == v and c == b:
                        x -= m[r][a]
                    vec.append(x)
            out.append(vec)
    return out


def _endomorphism_dim(rep):
    """Dimension of the vertex maps commuting with every arrow, from the
    full system: one row per entry of every arrow, in Fractions."""
    dims = rep.dims()
    offsets = [sum(d * d for d in dims[:i]) for i in range(len(dims))]
    width = sum(d * d for d in dims)
    rows = []
    for a in rep.arrows:
        m, du, dv = a.matrix, dims[a.src], dims[a.dst]
        dst, src = offsets[a.dst], offsets[a.src]
        for r, c in product(range(dv), range(du)):
            # (u_dst A - A u_src)[r][c] = 0
            row = {dst + r * dv + x: m[x][c] for x in range(dv) if m[x][c]}
            row.update({src + x * du + c: -m[r][x] for x in range(du) if m[r][x]})
            rows.append(row)
    return width - reference_rank(rows, width)


def _tangent_oracle(rep):
    """tangent_dim with the gauge orbit ranked on every slot coordinate:
    dim ker J minus (sum of d^2 minus the endomorphism dimension).  Both
    ranks go through the plain Fraction elimination of the tests, so a
    fault in linalg.SpanBasis cannot pass in the engine and here alike."""
    plan = quiver.relation_plan(rep)
    dims = rep.dims()
    width = sum(dims[j] * dims[i] for i, j in plan.slots)
    rank = reference_rank([row for row, _ in quiver.relation_jacobian(rep, plan.slots, plan)], width)
    return width - rank - (sum(d * d for d in dims) - _endomorphism_dim(rep))


def _conjugate(rep, rng):
    """Random invertible base change at every vertex."""
    changes = []
    for v in rep.vertices:
        while True:
            m = [
                [Fraction(rng.randint(-2, 2)) for _ in range(v.dim)]
                for _ in range(v.dim)
            ]
            if linalg.rank(mat(m)) == v.dim:
                changes.append(mat(m))
                break
    inverses = []
    for m in changes:
        n = len(m)
        cols = []
        for j in range(n):
            e = [Fraction(1 if i == j else 0) for i in range(n)]
            cols.append(linalg.solve(m, e))
        inverses.append(linalg.transpose(mat(cols)))
    arrows = [
        (a.src, a.dst, a.box, matmul(changes[a.dst], matmul(a.matrix, inverses[a.src])))
        for a in rep.arrows
    ]
    return quiver.make_rep(rep.space, rep.vertices, arrows)


class TestEx73:
    def test_generic(self):
        report = stability.ex73_invariants(generic_ex73_rep())
        assert report.branch == "generic"
        assert report.s != report.t
        assert not report.middle_destabilized

    def test_outer_multiplicity_other_than_one_rejected(self):
        # top_in of dim 2 and two failing relations once read as s = 0, t = 1
        rep = quiver.make_rep(
            P2,
            [((0, 0), 1), ((1, 1), 2), ((-2, 1), 1), ((-1, 2), 2), ((0, 3), 1),
             ((-3, 3), 1), ((-2, 4), 1)],
            [
                ((1, 1), (1, 1), [[1, 0], [0, 1]]),
                ((0, 3), (1, 2), [[1], [1]]),
                ((-1, 2), (1, 1), [[1, 0]]),
                ((-1, 2), (1, 2), [[0, 1]]),
            ],
        )
        assert len(quiver.check_relations(rep)) == 2
        with pytest.raises(DomainError, match="top_in multiplicity must be 1"):
            stability.ex73_invariants(rep)

    def test_failing_relation_rejected(self):
        rep = rescaled_ex73_rep()
        assert quiver.check_relations(rep)
        with pytest.raises(DomainError, match="valid points only"):
            stability.ex73_invariants(rep)

    def test_s_zero_branch(self):
        # image of the incoming map equals the kernel of the outgoing one
        report = stability.ex73_invariants(
            ex73_rep([[1], [0]], [[1], [3]], [[1, 1]], [[0, 1]])
        )
        assert report.branch == "s_zero"
        assert report.s == 0 and report.t != 0

    def test_s_equals_t_branch(self):
        # equal columns: the two incoming images coincide
        report = stability.ex73_invariants(
            ex73_rep([[1], [2]], [[1], [2]], [[1, 1]], [[2, 1]])
        )
        assert report.branch == "s_equals_t"
        assert report.s == report.t != 0

    def test_t_zero_branch(self):
        report = stability.ex73_invariants(
            ex73_rep([[1], [0]], [[1], [3]], [[0, 1]], [[1, 1]])
        )
        assert report.branch == "t_zero"
        assert report.t == 0 and report.s != 0

    def test_middle_row_destabilizes(self):
        # image of the second incoming map inside the kernel of the
        # outgoing map: flagged unstable
        report = stability.ex73_invariants(
            ex73_rep([[1], [1]], [[1], [0]], [[0, 1]], [[1, 1]])
        )
        assert report.middle_destabilized
        assert not report.semistable_flag

    def test_ratio_invariant_under_base_change(self, rng):
        rep = generic_ex73_rep()
        base = stability.ex73_invariants(rep)
        for _ in range(4):
            conj = _conjugate(rep, rng)
            report = stability.ex73_invariants(conj)
            assert report.s * base.t == report.t * base.s

    def test_wrong_support_rejected(self):
        with pytest.raises(DomainError):
            stability.ex73_invariants(adv_rep())


# tangent_dim(random_rep(space, Random(seed), max_dim=3, max_vertices=12))
# for seeds 0-4, recorded with the Fraction elimination the integer rows
# replaced, and for (2, 5) with both eliminations in plain vertex and
# plan column order; the rank behind each value is exact, so it must not
# move.
TANGENT_GOLDEN = {
    (0, 2): [0, 0, 0, 1, 1],
    (0, 3): [0, 0, 0, 1, 1],
    (1, 3): [4, 0, 0, 0, 0],
    (1, 4): [0, 1, 4, 1, 8],
    (2, 5): [0, 11, 1, 1, 0],
}


@pytest.mark.parametrize("kn", sorted(TANGENT_GOLDEN))
def test_tangent_dim_golden_values(kn):
    from quivercoh.generate import random_rep

    space = rootsys.space(*kn)
    found = [
        stability.tangent_dim(
            random_rep(space, random.Random(seed), max_dim=3, max_vertices=12)
        )
        for seed in range(5)
    ]
    assert found == TANGENT_GOLDEN[kn]


# The fill-heavy reps of scripts/tangent_scale.py: random_rep(space,
# Random(seed), max_dim=5, max_vertices=14) for seeds 0, 1, 2, ...,
# the first four with at least 8 vertices.  Their eliminations meet
# most earlier pivots; the values were recorded before SpanBasis kept
# its rows in echelon form only.
TANGENT_FILL_GOLDEN = {
    (0, 3): [0, 1, 0, 0],
    (0, 4): [1, 2, 1, 0],
    (1, 3): [3, 2, 0, 0],
    (1, 4): [4, 6, 3, 21],
    (2, 5): [13, 0, 1, 17],
}


@pytest.mark.parametrize("kn", sorted(TANGENT_FILL_GOLDEN))
def test_tangent_dim_on_fill_heavy_reps(kn):
    space = rootsys.space(*kn)
    found = []
    for seed in range(200):
        rep = random_rep(space, random.Random(seed), max_dim=5, max_vertices=14)
        if len(rep.vertices) >= 8:
            found.append(stability.tangent_dim(rep))
            if len(found) == 4:
                break
    assert found == TANGENT_FILL_GOLDEN[kn]


def test_pairing_needs_every_vertex_in_the_character():
    ch = stability.canonical_character(oo2_rep(1))
    partial = stability.Character(ch.sigma[:1], ch.scale)
    missing = ch.sigma[1][0]
    with pytest.raises(DomainError):
        stability.pairing(partial, {missing: 1})
    with pytest.raises(DomainError):
        stability.check_witness(oo2_rep(1), [[], []], partial)
