"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    spec = benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_reports_only_listed_metrics():
    units = run.per_layer_units()
    t = tracer.Tracer()
    t.span("cli.main", lambda: None)()
    assert set(t.metrics()) <= set(units)
    assert {"cli.import_s", "cli.process_s", "trace.wall_s", "trace.overhead_frac"} <= set(units)


def test_p90_needs_a_hundred_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(1000, 0, -1)), 50) == 500


@pytest.fixture
def small_plans(monkeypatch):
    """Fewer and smaller reps, so the generator runs in well under a second."""
    monkeypatch.setitem(gen.REP_PLANS, "cohomology_batch", (6, [("p:3", 6, 2), ("gr:1,3", 6, 2)]))
    monkeypatch.setitem(gen.REP_PLANS, "tangent_batch", (4, [("gr:1,4", 5, 2)]))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_input_digest(small_plans, workload):
    first = gen.digest(gen.inputs(workload, 3))
    assert gen.digest(gen.inputs(workload, 3)) == first
    assert gen.digest(gen.inputs(workload, 4)) != first


def test_generated_reps_satisfy_the_relations(small_plans):
    from quivercoh import quiver

    for item in gen.inputs("cohomology_batch", 0):
        assert quiver.check_relations(quiver.rep_from_json(item["rep"])) == []


def test_kernel_element_depends_only_on_the_row_space():
    import random

    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2), 2: Fraction(1), 3: Fraction(1)}]
    first = gen.random_kernel_element(rows, 4, random.Random(7))
    # reordered, rescaled, repeated and combined rows span the same space
    same_span = [
        {1: Fraction(4), 2: Fraction(2), 3: Fraction(2)},
        {0: Fraction(1, 3), 2: Fraction(-1, 3)},
        {0: Fraction(1), 1: Fraction(2), 3: Fraction(1)},
        {0: Fraction(-5), 2: Fraction(5)},
    ]
    assert gen.random_kernel_element(same_span, 4, random.Random(7)) == first
    for row in rows:
        assert sum(row[c] * first[c] for c in row) == 0


def cohomology_answers(inputs):
    from quivercoh import cohomology, quiver

    out = []
    for item in inputs:
        table = cohomology.cohomology(quiver.rep_from_json(item["rep"]))
        out.append(json.dumps([[r.degree, list(r.nu), r.multiplicity, r.dim] for r in table.rows]))
    return out


def test_checker_flags_a_wrong_cohomology_table(small_plans):
    inputs = gen.inputs("cohomology_batch", 1)
    answers = cohomology_answers(inputs)
    index = list(range(len(inputs)))
    assert checks.failed_ops("cohomology_batch", inputs, index, answers) == []
    nonempty = next(i for i, a in enumerate(answers) if json.loads(a))
    rows = json.loads(answers[nonempty])
    rows[0][2] += 1  # one more copy of the first module
    wrong = list(answers)
    wrong[nonempty] = json.dumps(rows)
    assert checks.failed_ops("cohomology_batch", inputs, index, wrong) == [nonempty]


def test_checker_flags_answers_that_differ_from_the_reference(small_plans):
    inputs = gen.inputs("cohomology_batch", 1)
    answers = cohomology_answers(inputs)
    index = list(range(len(inputs)))
    reference = {"answers": [checks.short_digest(a) for a in answers]}
    assert checks.failed_ops("cohomology_batch", inputs, index, answers, reference) == []
    reference["answers"][2] = checks.short_digest("[]" if answers[2] != "[]" else "[[0]]")
    assert checks.failed_ops("cohomology_batch", inputs, index, answers, reference) == [2]


def test_checker_flags_a_repeat_with_another_answer(small_plans):
    inputs = gen.inputs("tangent_batch", 0)[:2]
    # ops 0, 1, 0: the second answer to input 0 disagrees with the first
    assert checks.failed_ops("tangent_batch", inputs, [0, 1, 0], ["3", "0", "4"]) == [2]
    assert checks.failed_ops("tangent_batch", inputs, [0, 1], ["-1", "error: boom"]) == [0, 1]


def test_checker_flags_a_wrong_two_step_coefficient():
    inputs = gen.pieri_inputs(0)
    answers = []
    for a, (i, j), m in inputs["twostep"]:
        padded = list(a) + [0] * (m - len(a))
        c_ji = Fraction(-1, padded[i - 1] - padded[j - 1] + j - i) if i < j else Fraction(int(i == j))
        answers.append(f"1|{c_ji}")
    answers += ["True"] * len(inputs["verify"])
    index = list(range(len(answers)))
    assert checks.failed_ops("pieri_sweep", inputs, index, answers) == []
    wrong = list(answers)
    wrong[5] = "1|7"
    wrong[-1] = "False"
    assert checks.failed_ops("pieri_sweep", inputs, index, wrong) == [5, len(answers) - 1]


def test_tracer_self_time_on_a_nested_call():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    traced_inner = t.span("inner", inner)

    def outer():
        now[0] += 1.0
        traced_inner()
        traced_inner()
        now[0] += 3.0

    traced_outer = t.span("outer", outer)
    traced_outer()
    traced_outer()
    assert t.calls == {**t.calls, "outer": 2, "inner": 4}
    assert t.self_s["outer"] == pytest.approx(8.0)  # 2 x (8 - 4)
    assert t.self_s["inner"] == pytest.approx(8.0)  # 4 x 2
    assert t.stack == []


def test_tracer_wraps_every_binding_and_reports_misses():
    import quivercoh
    from quivercoh import cohomology, linalg, quiver, stability

    original = linalg.matmul
    method = quiver.QuiverRep.vertex_index
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missed() == []
        assert linalg.matmul is not original
        assert cohomology.matmul is linalg.matmul is quiver.matmul
        assert quivercoh.check_relations is quiver.check_relations is stability.check_relations
        assert quiver.QuiverRep.vertex_index is not method
        cohomology._planted = {"f": original}
        assert t.missed() == ["quivercoh.cohomology._planted[...] (linalg.matmul)"]
    finally:
        vars(cohomology).pop("_planted", None)
        t.uninstall()
    assert linalg.matmul is original is cohomology.matmul
    assert quiver.QuiverRep.vertex_index is method


def test_run_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
