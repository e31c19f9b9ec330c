import random
from collections import Counter
from fractions import Fraction

import pytest

from quivercoh import bott, cohomology, linalg, quiver, rootsys, stability
from quivercoh.bott import chamber_key
from quivercoh.cohomology import (
    CohomologyTable,
    build_complex,
    graded_cohomology,
    graded_table,
    truncated_complex,
)
from quivercoh.errors import DomainError, InternalCheckError

from conftest import (
    GR13,
    GR14,
    P2,
    P3,
    adv_rep,
    dual_euler_rep,
    euler_rep,
    ex511_rep,
    interval_basis,
    random_rep,
    random_segment_rep,
    reversed_rows,
    transpose_rep,
)


def table_dict(table: CohomologyTable):
    return {(r.degree, r.nu): r.multiplicity for r in table.rows}


class TestGraded:
    def test_euler_rep_pieces(self):
        pieces = graded_cohomology(euler_rep(P3))
        keyed = {(p.nu, p.degree) for p in pieces}
        assert keyed == {((0, 0, 0), 0), ((1, 0, 1), 0)}

    def test_singular_vertex_dropped(self):
        rep = quiver.make_rep(P2, [((-1, 0), 1)], [])
        assert graded_cohomology(rep) == []

    def test_zero_maps_table_equals_graded(self):
        rep = quiver.make_rep(
            P2, [((1, 0), 1), ((-1, 1), 2), ((-3, 2), 1)], []
        )
        assert table_dict(cohomology.cohomology(rep)) == table_dict(graded_table(rep))

    def test_requires_valid_rep(self):
        bad = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        with pytest.raises(DomainError):
            cohomology.cohomology(bad)


class TestBuildComplex:
    def test_dual_euler_single_differential(self):
        cx = build_complex(dual_euler_rep(P2, arrow=7))
        assert len(cx.classes) == 1
        cls = cx.classes[0]
        assert cls.nu == (0, 0)
        assert cls.degrees == (0, 1)
        assert cls.maps[0] in (
            quiver.mat([[7]]),
            quiver.mat([[-7]]),
        )

    def test_two_step_segment_through_singular_vertex(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-3, 2), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 1), [[1]])],
        )
        cx = build_complex(rep)
        cls = [c for c in cx.classes if c.nu == (1, 0)][0]
        assert cls.maps[0] in (quiver.mat([[1]]), quiver.mat([[-1]]))

    def test_pn_signs_all_positive(self):
        table = cohomology._sign_table(P3)
        assert all(v == 1 for v in table.values())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_square_anticommutes(self, n):
        """On every Gr(k, n): at most two chambers lie between a pair at
        distance 2, and where there are two, the four signs around the
        square multiply to -1."""
        for k in range(n):
            space = rootsys.space(k, n)
            weights, edges = bott.chamber_graph(space)
            keys = [chamber_key(space, w) for w in weights]
            outgoing = {}
            for a, b in edges:
                outgoing.setdefault(a, []).append(b)
            signs = cohomology._sign_table(space)
            assert len(signs) == len(edges)
            for a, mids in outgoing.items():
                between = {}
                for b in mids:
                    for c in outgoing.get(b, []):
                        between.setdefault(c, []).append(b)
                for c, path in between.items():
                    assert len(path) <= 2, (space, a, c)
                    if len(path) == 2:
                        product = 1
                        for b in path:
                            product *= signs[(keys[a], keys[b])] * signs[(keys[b], keys[c])]
                        assert product == -1, (space, a, c)

    def test_engine_never_walks_the_chambers(self):
        """Each sign is read at its mirror, so neither the complex nor its
        truncation walks the space's chambers."""
        for module in (bott, cohomology):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        rep = dual_euler_rep(rootsys.space(4, 9))
        cohomology.cohomology(rep)
        truncated_complex(rep, 1)
        assert bott._chamber_walk.cache_info().currsize == 0

    def test_missing_intermediate_vertex_zeroes_composite(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-3, 2), 1)],
            [],
        )
        cx = build_complex(rep)
        cls = [c for c in cx.classes if c.nu == (1, 0)][0]
        assert all(x == 0 for row in cls.maps[0] for x in row)


class TestTables:
    def test_dual_euler_cancellation(self):
        for space in [P2, P3]:
            assert cohomology.cohomology(dual_euler_rep(space)).is_empty()

    def test_dual_euler_split(self):
        for space in [P2, P3]:
            table = cohomology.cohomology(dual_euler_rep(space, arrow=0))
            zero = (0,) * space.rank
            assert table_dict(table) == {(0, zero): 1, (1, zero): 1}

    def test_wedge_square_trivial_bundle(self):
        table = cohomology.cohomology(ex511_rep())
        assert table_dict(table) == {(0, (0, 1, 0)): 1}
        assert table.rows[0].dim == 6

    def test_adjoint_trivial_bundle(self):
        table = cohomology.cohomology(adv_rep())
        assert table_dict(table) == {(0, (1, 1)): 1}
        assert table.rows[0].dim == 8

    def test_euler_rep_two_modules(self):
        table = cohomology.cohomology(euler_rep(P2))
        assert table_dict(table) == {(0, (0, 0)): 1, (0, (1, 1)): 1}


class TestTruncated:
    def test_full_when_steps_cover_diameter(self, rng):
        for _ in range(4):
            rep = random_rep(P2, rng)
            result = truncated_complex(rep, 20)
            assert result.is_full
            assert table_dict(result.table) == table_dict(cohomology.cohomology(rep))

    def test_single_vertex_all_truncations_zero(self):
        rep = quiver.make_rep(GR13, [((1, 0, 2), 3)], [])
        result = truncated_complex(rep, 1)
        assert result.is_full
        assert table_dict(result.table) == {(0, (1, 0, 2)): 3}

    def test_distance_two_chain_truncates_away(self):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-3, 2), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 1), [[1]])],
        )
        assert cohomology.cohomology(rep).is_empty()
        result = truncated_complex(rep, 1)
        assert not result.is_full
        assert result.is_complex
        assert table_dict(result.table) == {(0, (1, 0)): 1, (1, (1, 0)): 1}

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            truncated_complex(dual_euler_rep(P2), 0)


def _chain_walk(steps):
    """A hand-built walk: one class in degrees 0, 1 and 2, one vertex of
    dimension 1 each, differentials 1 and -1/2 along segments of the
    given steps, so the composite is not zero."""
    one = ((1,),)
    blocks = {0: ((0, 1),), 1: ((1, 1),), 2: ((2, 1),)}
    parts = {0: [(0, 0, steps, 1, one, 1)], 1: [(0, 0, steps, -1, one, 2)]}
    return [((0, 0), (0, 1, 2), blocks, parts)]


def _single_flips(walked):
    """Copies of a walk with the sign of one block flipped, for every
    block of a differential followed by another differential."""
    for c, (nu, degrees, blocks, parts) in enumerate(walked):
        for d, part in parts.items():
            if d + 1 not in parts:
                continue
            for k, block in enumerate(part):
                flipped = dict(parts)
                flipped[d] = part[:k] + [block[:3] + (-block[3],) + block[4:]] + part[k + 1 :]
                yield walked[:c] + [(nu, degrees, blocks, flipped)] + walked[c + 1 :]


def _squares_to_zero_dense(cx) -> bool:
    return all(
        all(x == 0 for row in linalg.matmul(cls.maps[d + 1], cls.maps[d]) for x in row)
        for cls in cx.classes
        for d in cls.maps
        if d + 1 in cls.maps
    )


def _dense_differential(rep, blocks, d):
    """The differential out of degree d rebuilt from the public API: the
    rational arrow products along each up-mirror segment, pasted at the
    vertices' offsets with the sign table's sign."""
    space, signs = rep.space, cohomology._sign_table(rep.space)

    def offsets(pairs):
        starts = [0]
        for _, dim in pairs:
            starts.append(starts[-1] + dim)
        return {i: start for (i, _), start in zip(pairs, starts)}, starts[-1]

    rows, nrows = offsets(blocks[d + 1])
    cols, ncols = offsets(blocks[d])
    out = [[Fraction(0)] * ncols for _ in range(nrows)]
    for src in cols:
        weight = rep.vertices[src].weight
        for mirror in bott.mirrors(space, weight):
            dst = rep.vertex_index(mirror.target)
            if not mirror.up or dst not in rows:
                continue
            product, i = linalg.identity(rep.vertices[src].dim), src
            for _ in range(mirror.steps):
                step = rootsys.box_weight(space, *mirror.box)
                j = rep.vertex_index(rootsys.wadd(rep.vertices[i].weight, step))
                arrow = None if j is None else rep.arrow_matrix(i, j)
                if arrow is None:
                    break
                product, i = linalg.matmul(arrow, product), j
            else:
                sign = signs[(chamber_key(space, weight), chamber_key(space, mirror.target))]
                for r, values in enumerate(product):
                    for c, x in enumerate(values):
                        out[rows[dst] + r][cols[src] + c] = sign * x
    return tuple(map(tuple, out))


class TestSparseDifferentials:
    def test_square_check_fires_in_full_and_one_step(self):
        walked = _chain_walk(1)
        with pytest.raises(InternalCheckError):
            cohomology._assemble(P2, walked, None)
        with pytest.raises(InternalCheckError, match="one-step"):
            cohomology._assemble(P2, walked, 1)
        cx = cohomology._assemble(P2, walked, 2)
        assert not cx.is_complex
        assert cx.classes[0].maps == {0: ((Fraction(1),),), 1: ((Fraction(-1, 2),),)}

    def test_intermediate_truncation_reports_without_raising(self):
        walked = _chain_walk(2)
        assert cohomology._assemble(P2, walked, 1).is_complex
        assert not cohomology._assemble(P2, walked, 2).is_complex
        with pytest.raises(InternalCheckError):
            cohomology._assemble(P2, walked, None)

    def test_square_check_agrees_with_dense_product_on_sign_flips(self):
        rng = random.Random(2)
        broken = 0
        for _ in range(40):
            rep = random_rep(GR13, rng, max_dim=3, max_vertices=14)
            for walked in _single_flips(cohomology._walk(rep)):
                every = cohomology._assemble(GR13, walked, 99)  # all blocks, never raises
                assert every.is_complex == _squares_to_zero_dense(every)
                if not every.is_complex:
                    broken += 1
                    with pytest.raises(InternalCheckError):
                        cohomology._assemble(GR13, walked, None)
        assert broken

    @pytest.mark.parametrize("space", [P2, GR13], ids=["p2", "gr13"])
    def test_dense_view_matches_sparse_rows(self, space):
        rng = random.Random(17)
        ranked = 0
        for _ in range(25):
            rep = random_rep(space, rng, max_dim=3)
            walked = cohomology._walk(rep)
            full = cohomology._assemble(space, walked, None)
            assert _squares_to_zero_dense(full)
            for cls in full.classes:
                for d, matrix in cls.maps.items():
                    assert matrix == _dense_differential(rep, cls.blocks, d)
            rows = []
            for cls in full.classes:
                dims = {d: sum(dim for _, dim in b) for d, b in cls.blocks.items()}
                ranks = {d: linalg.rank(m) for d, m in cls.maps.items()}
                for d, (sparse, _) in cls.differentials.items():
                    assert ranks[d] == linalg.row_rank(sparse, dims[d])
                    ranked += ranks[d] > 0
                for d in cls.degrees:
                    if mult := dims[d] - ranks.get(d, 0) - ranks.get(d - 1, 0):
                        rows.append(((d, cls.nu), mult))
            assert dict(rows) == table_dict(cohomology.cohomology(rep))
            for n in (1, 2, 20):
                part = cohomology._assemble(space, walked, n)
                dense_full = [c.maps for c in part.classes] == [c.maps for c in full.classes]
                assert truncated_complex(rep, n).is_full == dense_full
        assert ranked


def _longest_segment(rep) -> int:
    """Steps of the longest up-mirror segment with both ends in rep, 0 if
    there is none."""
    weights = {v.weight for v in rep.vertices}
    return max(
        (
            mirror.steps
            for w in weights
            if bott.bott(rep.space, w) is not None
            for mirror in bott.mirrors(rep.space, w)
            if mirror.up and mirror.target in weights
        ),
        default=0,
    )


class TestRandomSuite:
    """Complex property, transposition, Euler characteristic."""

    @pytest.mark.parametrize("space_name,seed", [("P2", 101), ("GR13", 202), ("GR14", 303)])
    def test_fifty_reps_each(self, space_name, seed):
        space = {"P2": P2, "GR13": GR13, "GR14": GR14}[space_name]
        rng = random.Random(seed)
        for _ in range(50):
            rep = random_rep(space, rng)
            assert quiver.check_relations(rep) == []
            build_complex(rep)           # raises unless every square is zero
            result = truncated_complex(rep, 1)
            assert result.is_complex     # one-step truncation is a complex
            table = cohomology.cohomology(rep)
            assert table.euler_characteristic() == graded_table(rep).euler_characteristic()
            assert cohomology.cohomology(transpose_rep(rep)).rows == reversed_rows(table)
            # the longest segment joining two vertices bounds the truncations
            longest = _longest_segment(rep)
            full = [truncated_complex(rep, n).is_full for n in range(1, longest + 2)]
            assert full == sorted(full)  # once full, full for every longer bound
            for n in range(max(longest, 1), longest + 2):
                result = truncated_complex(rep, n)
                assert result.is_full and result.caveat is None
                assert result.table == table

    def test_additivity_over_direct_sums(self, rng):
        done = 0
        while done < 6:
            r1 = random_rep(P2, rng)
            r2 = random_rep(P2, rng)
            c1 = rootsys.component_class(P2, r1.vertices[0].weight)
            c2 = rootsys.component_class(P2, r2.vertices[0].weight)
            if c1 != c2:
                continue
            done += 1
            total = cohomology.cohomology(quiver.direct_sum(r1, r2))
            merged = Counter(table_dict(cohomology.cohomology(r1)))
            merged.update(table_dict(cohomology.cohomology(r2)))
            assert table_dict(total) == {k: v for k, v in merged.items() if v}

    def test_submodule_euler_additivity(self, rng):
        for _ in range(5):
            rep = random_rep(GR13, rng)
            spans = [[] for _ in rep.vertices]
            spans[0] = [[1] + [0] * (rep.vertices[0].dim - 1)]
            sub = quiver.submodule_generated(rep, spans)
            quot = quiver.quotient_by(rep, spans)
            chi = cohomology.cohomology(rep).euler_characteristic()
            chi_sub = cohomology.cohomology(sub).euler_characteristic() if sub.vertices else 0
            chi_quot = cohomology.cohomology(quot).euler_characteristic() if quot.vertices else 0
            assert chi == chi_sub + chi_quot
            # sanity bound: nothing exceeds its graded multiplicity
            graded_sub = table_dict(graded_table(sub)) if sub.vertices else {}
            for key, mult in table_dict(cohomology.cohomology(sub)).items():
                assert mult <= graded_sub[key]


class TestSerreDuality:
    """H^i(E) = H^(dim - i)(E* (x) O(-n-1))^*: the canonical bundle of the
    Grassmannian is O(-n-1), and the dual of the module with Dynkin
    labels nu has the labels reversed."""

    @pytest.mark.parametrize("space_name", ["P2", "P3", "GR13", "GR14"])
    def test_random_reps(self, space_name):
        space = {"P2": P2, "P3": P3, "GR13": GR13, "GR14": GR14}[space_name]
        rng = random.Random(space.n * 10 + space.k)
        for _ in range(10):
            rep = random_rep(space, rng, max_dim=2, max_vertices=8)
            dual = quiver.twist_rep(quiver.dual_rep(rep), -space.n - 1)
            lhs = table_dict(cohomology.cohomology(rep))
            rhs = {
                (space.dim - degree, nu[::-1]): mult
                for (degree, nu), mult in table_dict(cohomology.cohomology(dual)).items()
            }
            assert lhs == rhs

    def test_twist_round_trip(self):
        rep = quiver.twist_rep(dual_euler_rep(P2), 3)
        assert [v.weight for v in rep.vertices] == [
            rootsys.twist(P2, v.weight, 3) for v in dual_euler_rep(P2).vertices
        ]
        assert quiver.check_relations(rep) == []
        assert quiver.twist_rep(rep, -3) == dual_euler_rep(P2)


class TestGrassmannianTransposition:
    """Gr(k, n) and Gr(n - k - 1, n) are one variety: transpose_rep reads
    a rep on the other side, where the chamber keys, mirrors and signs
    all differ, and its table must be the original with each nu
    reversed."""

    @pytest.mark.parametrize("k,n", [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5)])
    def test_tables_and_tangent_dims(self, k, n):
        space = rootsys.space(k, n)
        rng = random.Random(1000 * k + n)
        differs = 0
        for i in range(30):
            rep = random_rep(space, rng, max_dim=3, max_vertices=10)
            other = transpose_rep(rep)
            assert other.space == rootsys.space(n - k - 1, n)
            assert quiver.check_relations(other) == []
            assert transpose_rep(other) == rep
            table = cohomology.cohomology(rep)
            assert cohomology.cohomology(other).rows == reversed_rows(table)
            differs += table != graded_table(rep)
            if i < 10:
                assert stability.tangent_dim(other) == stability.tangent_dim(rep)
        assert differs  # some differential has nonzero rank


class TestPathOracle:
    """Segment representations match the interval-splitting prediction."""

    @pytest.mark.parametrize("space_name,seed", [("P2", 11), ("P3", 22), ("GR13", 33)])
    def test_interval_prediction(self, space_name, seed):
        space = {"P2": P2, "P3": P3, "GR13": GR13}[space_name]
        rng = random.Random(seed)
        for _ in range(10):
            rep = random_segment_rep(space, rng)
            chain, threads = interval_basis(rep)
            mults = Counter((b, d) for b, d, _ in threads)
            assert dict(mults) == stability.interval_multiplicities(rep)
            weights = [rep.vertices[i].weight for i in chain]
            values = [bott.bott(space, w) for w in weights]
            predicted: Counter = Counter()
            for (b, d), m in mults.items():
                for j in range(b, d + 1):
                    if values[j] is None:
                        continue
                    partners = [
                        j2
                        for j2 in range(b, d + 1)
                        if j2 != j
                        and values[j2] is not None
                        and values[j2].nu == values[j].nu
                    ]
                    assert len(partners) <= 1
                    if partners:
                        continue
                    predicted[(values[j].degree, values[j].nu)] += m
            assert dict(predicted) == table_dict(cohomology.cohomology(rep))
