"""Acceptance suite: every criterion exact (tolerance zero), one printed
verdict line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from quivercoh import bott, cli, cohomology, linalg, pieri, quiver, rootsys, stability

from conftest import (
    GR13,
    GR14,
    GR24,
    P1,
    P2,
    P3,
    P4,
    adv_rep,
    dual_euler_rep,
    euler_rep,
    ex511_rep,
    ex73_rep,
    generic_ex73_rep,
    random_rep,
    random_segment_rep,
    reversed_rows,
    terminal_witnesses,
    transpose_rep,
)
from test_bott import bott_oracle
from test_cohomology import table_dict
from test_pieri import partitions_up_to
from test_rootsys import d1_weights
from test_stability import oo2_rep, spans_at


def report(n, text):
    print(f"criterion {n:>2}: PASS  {text}")


def test_criterion_01_chamber_tables(capsys):
    out = run_cli(["chambers", "--space", "p:4", "--json"])
    data = json.loads(out)
    assert [tuple(v["weight"]) for v in data["vertices"]] == [
        (0, 0, 0, 0),
        (-2, 1, 0, 0),
        (-3, 0, 1, 0),
        (-4, 0, 0, 1),
        (-5, 0, 0, 0),
    ]
    assert [v["degree"] for v in data["vertices"]] == [0, 1, 2, 3, 4]
    out = run_cli(["chambers", "--space", "gr:1,4", "--json"])
    data = json.loads(out)
    assert data["histogram"] == [1, 1, 2, 2, 2, 1, 1]
    assert len(data["vertices"]) == 10
    with capsys.disabled():
        report(1, "chamber tables for p:4 and gr:1,4")


def run_cli(argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0
    return buffer.getvalue()


def test_criterion_02_component_counts(capsys):
    counts = [
        bott.components_count(bott.cartan_matrix("A", 4)),   # n + 1 with n = 4
        bott.components_count(bott.cartan_matrix("B", 4)),
        bott.components_count(bott.cartan_matrix("D", 5)),
        bott.components_count(bott.cartan_matrix("D", 6)),
        bott.components_count(bott.cartan_matrix("C", 4)),
        bott.components_count(bott.cartan_matrix("E", 6)),
        bott.components_count(bott.cartan_matrix("E", 7)),
    ]
    assert counts == [5, 2, 4, 4, 2, 3, 2]
    for n in range(1, 7):
        assert bott.components_count(bott.cartan_matrix("A", n)) == n + 1
    with capsys.disabled():
        report(2, "component counts n+1, 2, 4, 4, 2, 3, 2")


def test_criterion_03_bott_oracle_and_serre(capsys):
    checked = 0
    for space in (P2, P3, GR13):
        for w in d1_weights(space, 4):
            value = bott.bott(space, w)
            expected = bott_oracle(space, w)
            if expected is None:
                assert value is None
            else:
                assert (value.degree, value.nu) == expected
            checked += 1
    for space in (P2, GR13):
        for w in d1_weights(space, 3):
            value = bott.bott(space, w)
            dual = rootsys.twist(
                space, rootsys.dual_weight(space, w), -(space.n + 1)
            )
            dv = bott.bott(space, dual)
            if value is None:
                assert dv is None
            else:
                assert value.degree + dv.degree == space.dim
                assert rootsys.module_dim(space, value.nu) == rootsys.module_dim(
                    space, dv.nu
                )
    with capsys.disabled():
        report(3, f"independent sorting oracle + duality on {checked} weights")


def test_criterion_04_cancellation(capsys):
    for space in (P2, P3):
        assert cohomology.cohomology(dual_euler_rep(space, arrow=1)).is_empty()
        split = cohomology.cohomology(dual_euler_rep(space, arrow=0))
        zero = (0,) * space.rank
        assert table_dict(split) == {(0, zero): 1, (1, zero): 1}
    with capsys.disabled():
        report(4, "two-term cancellation on p:2 and p:3, split and nonsplit")


def test_criterion_05_trivial_bundle_recoveries(capsys):
    table = cohomology.cohomology(ex511_rep())
    assert table_dict(table) == {(0, (0, 1, 0)): 1}
    assert table.rows[0].dim == 6
    table = cohomology.cohomology(adv_rep())
    assert table_dict(table) == {(0, (1, 1)): 1}
    assert table.rows[0].dim == 8
    with capsys.disabled():
        report(5, "trivial bundles recovered with fibers of dim 6 and 8")


def test_criterion_06_complex_property_and_gauge(capsys):
    rng = random.Random(4242)
    count = 0
    for space in (P2, GR13):
        for _ in range(55):
            rep = random_rep(space, rng)
            assert quiver.check_relations(rep) == []
            cohomology.build_complex(rep)           # errors unless d o d = 0
            tr = cohomology.truncated_complex(rep, 1)
            assert tr.is_complex
            base = cohomology.cohomology(rep)
            other = cohomology.cohomology(transpose_rep(rep))
            assert other.rows == reversed_rows(base)
            count += 1
    assert count >= 100
    with capsys.disabled():
        report(6, f"d o d = 0 and the transposed table on {count} random points")


def test_criterion_07_euler_characteristic(capsys):
    rng = random.Random(97)
    count = 0
    for space in (P2, GR13):
        for _ in range(55):
            rep = random_rep(space, rng)
            table = cohomology.cohomology(rep)
            assert (
                table.euler_characteristic()
                == cohomology.graded_table(rep).euler_characteristic()
            )
            count += 1
    sums = 0
    while sums < 4:
        r1 = random_rep(P2, rng)
        r2 = random_rep(P2, rng)
        if rootsys.component_class(P2, r1.vertices[0].weight) != rootsys.component_class(
            P2, r2.vertices[0].weight
        ):
            continue
        sums += 1
        merged = Counter(table_dict(cohomology.cohomology(r1)))
        merged.update(table_dict(cohomology.cohomology(r2)))
        total = table_dict(cohomology.cohomology(quiver.direct_sum(r1, r2)))
        assert total == {k: v for k, v in merged.items() if v}
    with capsys.disabled():
        report(7, f"alternating sums match on {count} points; sums additive")


def test_criterion_08_pieri_oracle(capsys):
    checked = 0
    for m in range(1, 5):
        for a in partitions_up_to(4, m):
            for i in range(1, m + 1):
                if not pieri.box_addable(a, i, m):
                    continue
                a1 = pieri.add_box(a, i)
                for j in range(1, m + 1):
                    if not pieri.box_addable(a1, j, m):
                        continue
                    c_ij, c_ji = pieri.two_step_coefficients(a, (i, j), m)
                    padded = list(a) + [0] * (m - len(a))
                    assert c_ij == 1
                    if i < j:
                        assert c_ji == Fraction(-1, padded[i - 1] - padded[j - 1] + j - i)
                    elif i > j:
                        assert c_ji == 0
                    else:
                        assert c_ji == 1
                    checked += 1
    cases = [
        (GR13, (1, -2, 1), ((1, 1), (2, 2))),
        (GR13, (0, -1, 1), ((1, 1), (2, 2))),
        (GR13, (1, -1, 0), ((1, 1), (2, 2))),
        (GR13, (0, 0, 0), ((1, 1), (2, 2))),
        (GR13, (0, -1, 1), ((1, 1), (1, 2))),
        (GR13, (0, 0, 0), ((1, 1), (1, 2))),
        (GR24, (1, 1, -3, 1), ((1, 1), (2, 2))),
        (GR24, (0, 1, -2, 1), ((2, 1), (3, 2))),
        (GR24, (2, 0, -2, 1), ((1, 1), (2, 2))),
        (GR24, (0, 0, -1, 1), ((1, 1), (1, 2))),
        (GR24, (0, 0, 0, 0), ((1, 1), (2, 2))),
    ]
    for space, w, boxes in cases:
        assert pieri.verify_relation_coefficients(space, w, boxes)
    for k in range(1, 7):
        assert pieri.wedge_check(k)
    with capsys.disabled():
        report(8, f"{checked} two-step ratios, {len(cases)} relation cases, 6 matrix identities")


def test_criterion_09_commutativity_normalization(capsys):
    from test_quiver import _squares_commute

    rng = random.Random(31)
    count = 0
    for space in (P2, P3):
        for _ in range(10):
            rep = random_rep(space, rng)
            scaled = quiver.rescale_to_commutative(rep)
            assert _squares_commute(scaled)
            assert quiver.unscale_from_commutative(scaled) == rep
            count += 1
    bad = quiver.make_rep(
        P2,
        [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
        [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
    )
    assert not _squares_commute(quiver.rescale_to_commutative(bad))
    with capsys.disabled():
        report(9, f"commutativity normalization both ways on {count} supports")


def test_criterion_10_moduli_family(capsys):
    rep = generic_ex73_rep()
    ch = stability.canonical_character(rep)
    expected = {
        (0, 0): 0, (1, 1): -72, (-2, 1): 72, (-1, 2): 0,
        (0, 3): -144, (-3, 3): 144, (-2, 4): 0,
    }
    assert dict(ch.sigma) == expected and ch.scale == 1
    assert stability.tangent_dim(rep) == 1
    assert stability.tangent_dim(quiver.make_rep(P2, [((2, 3), 5)], [])) == 0
    assert stability.ex73_invariants(
        ex73_rep([[1], [0]], [[1], [3]], [[1, 1]], [[0, 1]])
    ).branch == "s_zero"
    assert stability.ex73_invariants(
        ex73_rep([[1], [2]], [[1], [2]], [[1, 1]], [[2, 1]])
    ).branch == "s_equals_t"
    assert stability.ex73_invariants(
        ex73_rep([[1], [0]], [[1], [3]], [[0, 1]], [[1, 1]])
    ).branch == "t_zero"
    flagged = stability.ex73_invariants(
        ex73_rep([[1], [1]], [[1], [0]], [[0, 1]], [[1, 1]])
    )
    assert flagged.middle_destabilized and not flagged.semistable_flag
    with capsys.disabled():
        report(10, "character 72(...), tangent dims 1 and 0, three loci, flag")


def test_criterion_11_stability(capsys):
    split = oo2_rep(0)
    nonsplit = oo2_rep(1)
    assert not stability.path_semistable(split, stability.canonical_character(split))
    assert stability.path_semistable(
        nonsplit, stability.canonical_character(nonsplit)
    )
    euler = euler_rep(P2)
    ch = stability.canonical_character(euler)
    assert stability.path_semistable(euler, ch)
    report_o = stability.check_witness(euler, spans_at(euler, (0, 0)), ch)
    assert report_o.pairing > 0  # even stable
    rng = random.Random(8)
    count = 0
    for space in (P1, P2, GR13):
        for _ in range(8):
            rep = random_segment_rep(space, rng, total_dim=6)
            chr_ = stability.canonical_character(rep)
            verdict = stability.path_semistable(rep, chr_)
            worst = 0
            for spans, nonzero in terminal_witnesses(rep):
                if not nonzero:
                    continue
                rep_report = stability.check_witness(rep, spans, chr_)
                assert rep_report.arrow_closed
                worst = min(worst, rep_report.pairing)
            assert verdict == (worst >= 0)
            count += 1
    with capsys.disabled():
        report(11, f"named pairs decided; exhaustive agreement on {count} segments")


def test_criterion_12_hasse_degrees(capsys):
    for n in range(1, 6):
        assert bott.hasse_degree(rootsys.space(0, n)) == 1
    assert bott.hasse_degree(GR13) == 2
    assert bott.hasse_degree(GR14) == 5
    with capsys.disabled():
        report(12, "embedding degrees 1 (p:n), 2 (gr:1,3), 5 (gr:1,4)")
