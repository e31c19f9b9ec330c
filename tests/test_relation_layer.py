"""The relation layer: its linearization is the derivative of its
evaluation, and malformed representations stop at the boundary."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercoh import quiver, rootsys
from quivercoh.errors import DomainError, ParseError
from quivercoh.generate import random_rep
from quivercoh.linalg import mat

from conftest import GR13, GR14, P2, P3, madd, zeros

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _perturbed(rep, rng, dens=(1, 2), num=3, drop=0.0):
    """rep with a random matrix added on every arrow slot of its support,
    which in general leaves the relation variety; entries of the noise
    are num-bounded over the denominators dens, and each arrow is left
    out with chance drop."""
    arrows = []
    for i, v in enumerate(rep.vertices):
        for box, target in quiver.arrows_from(rep.space, v.weight):
            j = rep.vertex_index(target)
            if j is None or (drop and rng.random() < drop):
                continue
            old = rep.arrow_matrix(i, j) or zeros(rep.vertices[j].dim, v.dim)
            noise = [[Fraction(rng.randint(-num, num), rng.choice(dens)) for _ in row] for row in old]
            arrows.append((v.weight, box, madd(old, mat(noise))))
    vertices = [(v.weight, v.dim) for v in rep.vertices]
    perturbed = quiver.make_rep(rep.space, vertices, arrows)
    return perturbed, quiver.relation_plan(perturbed).slots


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from([P2, P3, GR13, GR14]), seed=st.integers(0, 10**6))
def test_jacobian_is_derivative_of_evaluation(space, seed):
    # relations are homogeneous quadratics, so J(x) x = 2 R(x) (Euler)
    rng = random.Random(seed)
    rep, slots = _perturbed(random_rep(space, rng, max_vertices=8), rng)
    x = []
    for i, j in slots:
        x.extend(value for row in rep.arrow_matrix(i, j) for value in row)
    jacobian = [
        [Fraction(row.get(c, 0), scale) for c in range(len(x))]
        for row, scale in quiver.relation_jacobian(rep, slots)
    ]

    found = {(v.source, v.target, v.equation.terms): v.residual for v in quiver.check_relations(rep)}
    residuals = []
    for src, tgt, terms, _, _ in quiver.relation_plan(rep).relations:
        source, target = rep.vertices[src], rep.vertices[tgt]
        residual = found.pop((source.weight, target.weight, terms), zeros(target.dim, source.dim))
        residuals.extend(value for row in residual for value in row)
    assert not found
    assert len(jacobian) == len(residuals)
    for row, residual in zip(jacobian, residuals):
        assert len(row) == len(x)
        assert sum(a * b for a, b in zip(row, x)) == 2 * residual


def test_perturbation_leaves_the_variety():
    rng = random.Random(3)
    rep, _ = _perturbed(random_rep(GR13, rng, max_vertices=8), rng)
    assert quiver.check_relations(rep)


def _reference_relations(rep):
    """(src, tgt, mids, terms) of every relation, from the public
    double_additions and relation_system, whose target and some middle
    vertex lie in the support, in vertex, box and equation order: mids
    holds the middle vertex of each term, None where it is missing."""
    space = rep.space

    def step(i, box):
        return rep.vertex_index(rootsys.wadd(rep.vertices[i].weight, rootsys.box_weight(space, *box)))

    out = []
    for src, v in enumerate(rep.vertices):
        for boxes in quiver.double_additions(space, v.weight):
            for eq in quiver.relation_system(space, v.weight, boxes):
                tgt = rep.vertex_index(eq.target)
                mids = [step(src, first) for first, _, _ in eq.terms]
                if tgt is not None and any(mid is not None for mid in mids):
                    out.append((src, tgt, mids, eq.terms))
    return out


def _reference_violations(rep):
    """check_relations in plain Fraction arithmetic: (source, target,
    terms, residual) of every reference relation whose sum of
    coeff * (second arrow) (first arrow) is not zero."""
    out = []
    for src, tgt, mids, terms in _reference_relations(rep):
        rows, cols = rep.vertices[tgt].dim, rep.vertices[src].dim
        total = [[Fraction(0)] * cols for _ in range(rows)]
        for mid, (_, _, coeff) in zip(mids, terms):
            m1 = None if mid is None else rep.arrow_matrix(src, mid)
            m2 = None if mid is None else rep.arrow_matrix(mid, tgt)
            if m1 is None or m2 is None:
                continue
            for r in range(rows):
                for c in range(cols):
                    total[r][c] += coeff * sum(m2[r][x] * m1[x][c] for x in range(len(m1)))
        if any(x for row in total for x in row):
            out.append((rep.vertices[src].weight, rep.vertices[tgt].weight, terms, [list(row) for row in total]))
    return out


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from([P2, P3, GR13, GR14]),
    seed=st.integers(0, 10**6),
    drop=st.sampled_from([0.0, 0.3]),
    isolated=st.booleans(),
)
def test_relation_plan_walks_every_supported_relation(space, seed, drop, isolated):
    # holding relations count too: the plan is compared, not its violations
    rng = random.Random(seed)
    rep = random_rep(space, rng, max_vertices=8)
    if isolated:
        # a twist by n + 1 keeps the component; this one is far beyond
        # two steps of every other vertex
        far = rootsys.twist(space, rep.vertices[0].weight, 20 * (space.n + 1))
        vertices = [(v.weight, v.dim) for v in rep.vertices] + [(far, 1)]
        arrows = [(rep.vertices[a.src].weight, a.box, a.matrix) for a in rep.arrows]
        rep = quiver.make_rep(space, vertices, arrows)
    rep, _ = _perturbed(rep, rng, drop=drop)
    walked = [(src, tgt, terms) for src, tgt, terms, _, _ in quiver.relation_plan(rep).relations]
    assert walked == [(src, tgt, terms) for src, tgt, _, terms in _reference_relations(rep)]
    if isolated:
        i, steps = rep.vertex_index(far), quiver.relation_plan(rep).steps
        assert not steps[i] and all(i not in step.values() for step in steps)


@pytest.mark.parametrize("space", [GR13, GR14], ids=str)
def test_relation_plan_drops_zero_weight_paths(space):
    # a term whose coefficient 1/qt - 1/pt vanishes (pt = qt, rows distinct
    # on both sides, so never on projective space) fixes the relation's
    # target but adds no path
    rng = random.Random(5)
    dropped = 0
    for _ in range(10):
        plan = quiver.relation_plan(random_rep(space, rng, max_vertices=12))
        for src, _, terms, _, paths in plan.relations:
            step = plan.steps[src]
            present = [(step[first], coeff) for first, _, coeff in terms if first in step]
            assert [mid for mid, _ in paths] == [mid for mid, coeff in present if coeff]
            assert all(weight for _, weight in paths)
            dropped += any(not coeff for _, coeff in present)
    assert dropped


WIDE = (1, 2, 3, 7, 10**9 + 7, 2**31 - 1, 2**61 - 1)


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from([P2, P3, GR13, GR14]),
    seed=st.integers(0, 10**6),
    dens=st.sampled_from([(1,), (1, 2, 3), WIDE]),
    num=st.sampled_from([1, 3, 10**12]),
    drop=st.sampled_from([0.0, 0.3]),
)
def test_check_relations_matches_fraction_reference(space, seed, dens, num, drop):
    rng = random.Random(seed)
    rep, _ = _perturbed(random_rep(space, rng, max_vertices=8), rng, dens, num, drop)
    found = [
        (v.source, v.target, v.equation.terms, [list(row) for row in v.residual])
        for v in quiver.check_relations(rep)
    ]
    assert found == _reference_violations(rep)


def _rep_text(arrow):
    return json.dumps(
        {
            "space": {"k": 0, "n": 2},
            "vertices": [
                {"weight": [-2, 1], "dim": 2},
                {"weight": [0, 0], "dim": 2},
            ],
            "arrows": [arrow],
        }
    )


MALFORMED = {
    "ragged_rows": (
        _rep_text({"from": 1, "to": 0, "box": [1, 1], "matrix": [["1", "0"], ["0"]]}),
        DomainError,
    ),
    "from_past_end": (
        _rep_text({"from": 5, "to": 0, "box": [1, 1], "matrix": [["1", "0"], ["0", "1"]]}),
        DomainError,
    ),
    "from_negative": (
        _rep_text({"from": -1, "to": 0, "box": [1, 1], "matrix": [["1", "0"], ["0", "1"]]}),
        DomainError,
    ),
    "number_entry": (
        _rep_text({"from": 1, "to": 0, "box": [1, 1], "matrix": [[1, 0], [0, 1]]}),
        ParseError,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_rep_from_json_rejects(case):
    text, error = MALFORMED[case]
    with pytest.raises(error):
        quiver.rep_from_json(text)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_check_rejects_without_traceback(case, tmp_path):
    text, error = MALFORMED[case]
    path = tmp_path / "rep.json"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "quivercoh.cli", "check", "--rep", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == (1 if error is DomainError else 2)
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_make_rep_rejects_unknown_source_weight():
    with pytest.raises(DomainError):
        quiver.make_rep(P2, [((0, 0), 1)], [((3, 0), (1, 1), [[1]])])
