import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from quivercoh import linalg, quiver, rootsys, stability
from quivercoh.errors import DomainError, ParseError
from quivercoh.linalg import mat, matmul

from conftest import (
    GR13,
    GR14,
    GR24,
    P1,
    P2,
    P3,
    adv_rep,
    dual_euler_rep,
    euler_rep,
    ex511_rep,
    generic_ex73_rep,
    random_rep,
    zero_weight,
    zeros,
)
from test_rootsys import d1_weights


class TestArrowsFrom:
    def test_generic_gr13(self):
        assert len(quiver.arrows_from(GR13, (3, -5, 3))) == 4

    def test_origin_p2(self):
        assert quiver.arrows_from(P2, (0, 0)) == [((1, 1), (-2, 1))]

    def test_origin_gr13(self):
        arrows = quiver.arrows_from(GR13, (0, 0, 0))
        assert [box for box, _ in arrows] == [(1, 1)]

    def test_targets_stay_in_d1(self):
        for w in itertools.islice(d1_weights(GR24, 2), 50):
            for box, target in quiver.arrows_from(GR24, w):
                assert rootsys.in_d1(GR24, target)
                assert rootsys.wsub(target, w) == rootsys.box_weight(GR24, *box)

    def test_rejects_outside_d1(self):
        with pytest.raises(DomainError):
            quiver.arrows_from(P2, (0, -1))


class TestMakeRep:
    @pytest.mark.parametrize("box", [(1.5, 1), (1, 1, 7), (1,), 5, "11", (Fraction(1, 2), 1)])
    def test_malformed_box_is_a_domain_error(self, box):
        vertices = [((1, 0), 1), ((-1, 1), 1)]
        for arrow in [((1, 0), box, [[1]]), (0, 1, box, [[1]])]:
            with pytest.raises(DomainError):
                quiver.make_rep(P2, vertices, [arrow])

    def test_integral_box_entries_of_any_type_are_kept(self):
        vertices = [((1, 0), 1), ((-1, 1), 1)]
        rep = quiver.make_rep(P2, vertices, [((1, 0), (1.0, Fraction(1)), [[1]])])
        assert rep == quiver.make_rep(P2, vertices, [((1, 0), (1, 1), [[1]])])
        assert all(type(x) is int for x in rep.arrows[0].box)

    @pytest.mark.parametrize(
        "matrix", [[["abc"]], [[float("nan")]], [[None]], [[[1]]], [[float("inf")]], 5, [3]]
    )
    def test_non_rational_entry_is_a_domain_error(self, matrix):
        vertices = [((1, 0), 1), ((-1, 1), 1)]
        named = {
            "(1, 0) along (1, 1)": ((1, 0), (1, 1), matrix),
            "0 -> 1 along (1, 1)": (0, 1, (1, 1), matrix),
        }
        for name, arrow in named.items():
            with pytest.raises(DomainError, match=re.escape(f"arrow {name}: ")):
                quiver.make_rep(P2, vertices, [arrow])

    @pytest.mark.parametrize(
        "entry", [0.5, 0.1, -2.0, True, False, "1/2", " -3/6 ", "7", Fraction(2, 4), -3, 0]
    )
    def test_rational_entries_are_read_exactly(self, entry):
        vertices = [((1, 0), 1), ((-1, 1), 1)]
        rep = quiver.make_rep(P2, vertices, [((1, 0), (1, 1), [[entry]])])
        (a,) = rep.arrows
        assert a.matrix == ((Fraction(entry),),)
        assert (a.rows, a.den) == (((Fraction(entry).numerator,),), Fraction(entry).denominator)


class TestRelationSystem:
    def test_case_i4_empty(self):
        # both tilde values 1: no equations at all
        assert quiver.relation_system(GR13, (0, 0, 0), ((1, 1), (2, 2))) == []

    def test_case_ii2_single_nilpotency(self):
        eqs = quiver.relation_system(P2, (3, 0), ((1, 1), (1, 2)))
        assert len(eqs) == 1
        assert eqs[0].terms == (((1, 1), (1, 2), Fraction(1)),)

    def test_case_i1_two_equations(self):
        eqs = quiver.relation_system(GR13, (1, -2, 1), ((1, 1), (2, 2)))
        assert len(eqs) == 2
        first = {(f, s): c for f, s, c in eqs[0].terms}
        # leading coefficient is 1/qt - 1/pt with pt = qt = 2 here
        assert first[((1, 1), (2, 2))] == 0
        assert first[((1, 2), (2, 1))] == -1
        assert first[((2, 1), (1, 2))] == 1

    def test_case_ii1_coefficient(self):
        eqs = quiver.relation_system(P2, (3, 1), ((1, 1), (1, 2)))
        assert len(eqs) == 1
        coeffs = {(f, s): c for f, s, c in eqs[0].terms}
        # qt = 2, so the leading coefficient is (1 + qt)/qt
        assert coeffs[((1, 1), (1, 2))] == Fraction(3, 2)
        assert coeffs[((1, 2), (1, 1))] == -1

    @pytest.mark.parametrize("space", [GR13, GR24])
    def test_equation_count_cases(self, space):
        ka, kb = space.k + 1, space.n - space.k
        for w in itertools.islice(d1_weights(space, 2), 40):
            alpha, beta = rootsys.shape_rows(space, w)
            for boxes in quiver.double_additions(space, w):
                eqs = quiver.relation_system(space, w, boxes)
                (pa, qa), (pb, qb) = boxes
                p1, p2 = min(pa, pb), max(pa, pb)
                q1, q2 = min(qa, qb), max(qa, qb)
                if p1 == p2 and q1 == q2:
                    assert eqs == []
                elif p1 == p2 or q1 == q2:
                    assert len(eqs) == 1
                else:
                    pt = alpha[p1 - 1] - alpha[p2 - 1] + p2 - p1
                    qt = beta[q1 - 1] - beta[q2 - 1] + q2 - q1
                    if pt == 1 and qt == 1:
                        assert eqs == []
                    else:
                        assert len(eqs) == (2 if pt != 1 and qt != 1 else 1)

    def test_invalid_double_addition(self):
        with pytest.raises(DomainError):
            quiver.relation_system(P2, (0, 0), ((1, 2), (1, 2)))


class TestCheckRelations:
    def test_adv_valid_and_rescales_to_commuting(self):
        rep = adv_rep()
        assert quiver.check_relations(rep) == []
        resc = quiver.rescale_to_commutative(rep)
        # commutativity of the square in the rescaled picture
        paths = {}
        for a in resc.arrows:
            paths[(resc.vertices[a.src].weight, resc.vertices[a.dst].weight)] = a.matrix
        via_s = matmul(paths[((-1, 2), (-2, 1))], paths[((1, 1), (-1, 2))])
        via_o = matmul(paths[((0, 0), (-2, 1))], paths[((1, 1), (0, 0))])
        assert via_s == via_o

    def test_p2_chain_violation(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        violations = quiver.check_relations(rep)
        assert len(violations) == 1
        assert violations[0].source == (1, 0)
        assert violations[0].target == (-2, 0)

    def test_zero_maps_valid(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [],
        )
        assert quiver.check_relations(rep) == []

    def test_ex511_both_arrows_valid(self):
        assert quiver.check_relations(ex511_rep()) == []


class TestRescale:
    def test_bidirectional_on_random_supports(self, rng):
        for space in [P2, P3]:
            for _ in range(8):
                rep = random_rep(space, rng)
                scaled = quiver.rescale_to_commutative(rep)
                assert _squares_commute(scaled)
                back = quiver.unscale_from_commutative(scaled)
                assert back == rep

    def test_invalid_rep_fails_commutativity(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        assert quiver.check_relations(rep)
        assert not _squares_commute(quiver.rescale_to_commutative(rep))

    def test_single_arrow_scaled_positively(self):
        rep = dual_euler_rep(P2)
        scaled = quiver.rescale_to_commutative(rep)
        ratio = scaled.arrows[0].matrix[0][0] / rep.arrows[0].matrix[0][0]
        assert ratio > 0

    def test_grassmannian_rejected(self):
        with pytest.raises(DomainError):
            quiver.rescale_to_commutative(ex511_rep())


def _path_product(rep, src, first, second):
    """Matrix of (second arrow) o (first arrow) from vertex src, or None
    when the path leaves the support."""
    space = rep.space
    mid_w = rootsys.wadd(rep.vertices[src].weight, rootsys.box_weight(space, *first))
    mid = rep.vertex_index(mid_w)
    end = rep.vertex_index(rootsys.wadd(mid_w, rootsys.box_weight(space, *second)))
    if mid is None or end is None:
        return None
    m1, m2 = rep.arrow_matrix(src, mid), rep.arrow_matrix(mid, end)
    if m1 is None or m2 is None:
        return zeros(rep.vertices[end].dim, rep.vertices[src].dim)
    return matmul(m2, m1)


def _squares_commute(rep):
    """Commutativity of every two-box square, absent corners reading as
    zero: the normalized relation on projective space."""
    space = rep.space
    for src, v in enumerate(rep.vertices):
        for boxes in quiver.double_additions(space, v.weight):
            (b1, b2) = boxes
            if b1 == b2:
                continue
            end = rootsys.wadd(
                rootsys.wadd(v.weight, rootsys.box_weight(space, *b1)),
                rootsys.box_weight(space, *b2),
            )
            tgt = rep.vertex_index(end)
            if tgt is None:
                continue
            one = _path_product(rep, src, b1, b2)
            two = _path_product(rep, src, b2, b1)
            zero = zeros(rep.vertices[tgt].dim, v.dim)
            one = one if one is not None else zero
            two = two if two is not None else zero
            if one != two:
                return False
    return True


class TestDual:
    def test_involution(self, rng):
        for _ in range(5):
            rep = random_rep(P2, rng)
            double = quiver.dual_rep(quiver.dual_rep(rep))
            assert double.space == rep.space
            assert double.vertices == rep.vertices
            assert {
                (a.src, a.dst, a.box): a.matrix for a in double.arrows
            } == {(a.src, a.dst, a.box): a.matrix for a in rep.arrows}

    def test_line_bundle(self):
        rep = quiver.make_rep(P2, [((4, 0), 1)], [])
        dual = quiver.dual_rep(rep)
        assert dual.vertices[0].weight == (-4, 0)

    def test_euler_dualizes_to_dual_euler(self):
        dual = quiver.dual_rep(euler_rep(P2))
        weights = {v.weight for v in dual.vertices}
        assert weights == {(0, 0), (-2, 1)}

    def test_validity_preserved(self, rng):
        for _ in range(6):
            rep = random_rep(GR13, rng)
            assert (quiver.check_relations(rep) == []) == (
                quiver.check_relations(quiver.dual_rep(rep)) == []
            )

    def test_violations_preserved(self):
        bad = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        assert quiver.check_relations(bad)
        assert quiver.check_relations(quiver.dual_rep(bad))


class TestConstructions:
    def test_direct_sum_dims(self):
        r = dual_euler_rep(P2)
        s = quiver.direct_sum(r, r)
        assert s.dims() == (2, 2)
        assert s.arrows[0].matrix == mat([[1, 0], [0, 1]])

    def test_submodule_full_spans_is_identity(self, rng):
        rep = random_rep(P2, rng)
        spans = [
            [[1 if i == j else 0 for i in range(v.dim)] for j in range(v.dim)]
            for v in rep.vertices
        ]
        sub = quiver.submodule_generated(rep, spans)
        assert sub.dims() == rep.dims()

    def test_submodule_closure_is_arrow_closed(self, rng):
        for _ in range(6):
            rep = random_rep(GR13, rng)
            spans = [[] for _ in rep.vertices]
            spans[0] = [[1] + [0] * (rep.vertices[0].dim - 1)]
            sub = quiver.submodule_generated(rep, spans)
            for a in sub.arrows:
                assert linalg.shape(a.matrix) == (
                    sub.vertices[a.dst].dim,
                    sub.vertices[a.src].dim,
                )

    def test_quotient_arriving_at_terminal_vertex(self):
        rep = euler_rep(P2)
        top = rep.vertex_index((1, 1))
        quot = quiver.quotient_arriving_at(rep, top)
        assert [v.weight for v in quot.vertices] == [(1, 1)]

    def test_quotient_arriving_at_sink_keeps_connected_part(self):
        rep = euler_rep(P2)
        sink = rep.vertex_index((0, 0))
        quot = quiver.quotient_arriving_at(rep, sink)
        assert quot.dims() == rep.dims()

    def test_ex73_closure_from_top_reaches_four_more(self):
        from conftest import generic_ex73_rep

        rep = generic_ex73_rep()
        spans = [[] for _ in rep.vertices]
        top = rep.vertex_index((0, 3))
        spans[top] = [[1]]
        sub = quiver.submodule_generated(rep, spans)
        assert len(sub.vertices) == 5  # the generator plus four reached



def _check_witness(rep, spans):
    return stability.check_witness(rep, spans, stability.canonical_character(rep))


@pytest.mark.parametrize(
    "build",
    [quiver.submodule_generated, quiver.quotient_by, _check_witness],
    ids=["submodule_generated", "quotient_by", "check_witness"],
)
@pytest.mark.parametrize("extra", [-1, 1], ids=["too_few", "too_many"])
def test_span_list_count_must_match_the_vertices(build, extra):
    rep = euler_rep(P2)
    with pytest.raises(DomainError, match="one list per vertex"):
        build(rep, [[[1]]] * (len(rep.vertices) + extra))


def _seeded_reps(count):
    for space in [P2, P3, GR13, GR14]:
        rng = random.Random(f"subquotients {space}")
        yield from (random_rep(space, rng, max_dim=3) for _ in range(count))


def _by_weight(rep):
    return {v.weight: v.dim for v in rep.vertices}


def _path_rank(rep, src, dst):
    """Rank of the dense products of the arrow matrices along every path
    src -> dst, stacked; the empty path counts at src == dst."""
    out = {a.src: [] for a in rep.arrows}
    for a in rep.arrows:
        out[a.src].append((a.dst, a.matrix))
    rows = []
    stack = [(src, linalg.identity(rep.vertices[src].dim))]
    while stack:
        i, product = stack.pop()
        if i == dst:
            rows.extend(product)
        stack.extend((j, matmul(m, product)) for j, m in out.get(i, []))
    return linalg.rank(rows) if rows else 0


class TestSubquotients:
    def test_quotient_arriving_at_matches_path_ranks(self):
        """Dimension i of the quotient invisible-from-v is the rank of
        the stacked path products i -> v: the functionals paths carry
        back from v, whose common kernel is divided out."""
        for rep in _seeded_reps(10):
            for v in range(len(rep.vertices)):
                quot = quiver.quotient_arriving_at(rep, v)
                ranks = {w.weight: _path_rank(rep, i, v) for i, w in enumerate(rep.vertices)}
                assert _by_weight(quot) == {w: r for w, r in ranks.items() if r}
                assert not quiver.check_relations(quot)

    def test_sub_and_quotient_dimensions_add_up(self):
        for r, rep in enumerate(_seeded_reps(10)):
            rng = random.Random(r)
            for v in range(len(rep.vertices)):
                spans = [[] for _ in rep.vertices]
                spans[v] = [[rng.randint(-2, 2) for _ in range(rep.vertices[v].dim)]]
                sub = _by_weight(quiver.submodule_generated(rep, spans))
                quot = _by_weight(quiver.quotient_by(rep, spans))
                for w, d in _by_weight(rep).items():
                    assert sub.get(w, 0) + quot.get(w, 0) == d

    @pytest.mark.parametrize("name", ["ex73", "gr13"])
    def test_constructions_are_pinned(self, name):
        """The exact JSON of the three constructions on the seven-vertex
        family and on one seeded Gr(1,3) rep."""
        if name == "ex73":
            rep = generic_ex73_rep()
            spans = [[] for _ in rep.vertices]
            spans[rep.vertex_index((0, 3))] = [[1]]
            vertex = rep.vertex_index((-1, 2))
        else:
            rep = random_rep(GR13, random.Random(4), max_dim=3)
            spans = [[[1, 0]]] + [[] for _ in rep.vertices[1:]]
            vertex = 1
        pins = json.loads((Path(__file__).parent / "subquotient_pins.json").read_text())[name]
        built = {
            "submodule_generated": quiver.submodule_generated(rep, spans),
            "quotient_by": quiver.quotient_by(rep, spans),
            "quotient_arriving_at": quiver.quotient_arriving_at(rep, vertex),
        }
        for key, quot in built.items():
            assert quiver.rep_to_json(quot) == json.dumps(pins[key], indent=2, sort_keys=True)


class TestJson:
    def test_round_trip(self, rng):
        for space in [P2, GR13]:
            rep = random_rep(space, rng)
            text = quiver.rep_to_json(rep)
            again = quiver.rep_from_json(text)
            assert again == rep
            assert quiver.rep_to_json(again) == text

    def test_make_rep_and_rep_from_json_agree(self):
        """Both constructors store the same integer rows over the lcm of
        the reduced entry denominators, and the plan reads those rows."""
        reps = [adv_rep(), generic_ex73_rep(), ex511_rep(2, -3), euler_rep(P3, 5)]
        for space in [P2, P3, GR13, GR14]:
            rng = random.Random(f"integer arrows {space}")
            reps += [random_rep(space, rng, max_dim=3) for _ in range(50)]
        for rep in reps:
            text = quiver.rep_to_json(rep)
            data = json.loads(text)
            made = quiver.make_rep(
                rep.space,
                [(v["weight"], v["dim"]) for v in data["vertices"]],
                [(a["from"], a["to"], a["box"], a["matrix"]) for a in data["arrows"]],
            )
            parsed = quiver.rep_from_json(text)
            assert made == parsed == rep
            plan = quiver.relation_plan(parsed)
            for a in parsed.arrows:
                entries = [x for row in a.matrix for x in row]
                assert a.den == lcm(*(x.denominator for x in entries))
                assert gcd(a.den, *(x for row in a.rows for x in row)) == 1
                assert all(type(x) is int for row in a.rows for x in row)
                assert a.matrix == tuple(tuple(Fraction(x, a.den) for x in row) for row in a.rows)
                rows, cols, den = plan.arrows[(a.src, a.dst)]
                assert rows is a.rows and den == a.den
                assert cols == tuple(zip(*a.rows))

    @pytest.mark.parametrize("text", ["-2/4", "3", " 1/2 ", "0/5", " 3 / -6 "])
    def test_entry_reader_agrees_with_parse_frac(self, text):
        num, den = quiver.parse_ratio(text)
        assert Fraction(num, den) == quiver.parse_frac(text)
        assert den > 0 and gcd(num, den) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "bad rational '1/0': Fraction(1, 0)"),
            ("abc", "bad rational 'abc': invalid literal for int() with base 10: 'abc'"),
            ("1/2/3", "bad rational '1/2/3': too many values to unpack (expected 2)"),
            ("", "bad rational '': invalid literal for int() with base 10: ''"),
            (1, 'bad rational 1: expected a string such as "-1/2"'),
            ([1], 'bad rational [1]: expected a string such as "-1/2"'),
            ({}, 'bad rational {}: expected a string such as "-1/2"'),
        ],
    )
    def test_entry_reader_rejects_what_parse_frac_rejects(self, text, message):
        for read in (quiver.parse_ratio, quiver.parse_frac):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                read(text)
        data = json.loads(quiver.rep_to_json(dual_euler_rep(P2)))
        data["arrows"][0]["matrix"] = [[text]]
        with pytest.raises(ParseError, match=re.escape(message)):
            quiver.rep_from_data(data)

    def test_rationals_normalized(self):
        rep = quiver.make_rep(
            P2,
            [((0, 0), 1), ((-2, 1), 1)],
            [((0, 0), (1, 1), [[Fraction(2, 4)]])],
        )
        assert '"1/2"' in quiver.rep_to_json(rep)

    def test_vertex_order_canonical(self):
        text = quiver.rep_to_json(dual_euler_rep(P2))
        data_weights = [
            tuple(v["weight"]) for v in __import__("json").loads(text)["vertices"]
        ]
        assert data_weights == sorted(data_weights)

    def test_bad_schema(self):
        with pytest.raises(ParseError):
            quiver.rep_from_json("{}")
        with pytest.raises(ParseError):
            quiver.rep_from_json("not json")

    def test_mixed_components_rejected(self):
        with pytest.raises(DomainError):
            quiver.make_rep(P2, [((0, 0), 1), ((1, 0), 1)], [])

    def test_matrix_shape_validated(self):
        with pytest.raises(DomainError):
            quiver.make_rep(
                P2,
                [((0, 0), 1), ((-2, 1), 2)],
                [((0, 0), (1, 1), [[1]])],
            )

    def test_wrong_box_rejected(self):
        with pytest.raises(DomainError):
            quiver.make_rep(
                P2,
                [((0, 0), 1), ((-2, 1), 1)],
                [(0, 1, (1, 2), [[1]])],
            )


class TestComponentLabels:
    def test_slope_class_constant_on_components(self, rng):
        for _ in range(6):
            rep = random_rep(P3, rng)
            classes = {
                (3 * rootsys.slope(P3, v.weight)) % 4 for v in rep.vertices
            }
            assert len(classes) == 1
