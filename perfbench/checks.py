"""Answer checks, run in the parent after the timed loop.

Each op's answer is checked against an invariant that holds for every
seed, against the committed reference answer when the seed has one, and
against the other answers to the same input in the run.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from quivercoh import bott, rootsys


def short_digest(answer: str) -> str:
    """First 32 bits of the answer's SHA-256, as recorded in reference.json."""
    return hashlib.sha256(answer.encode()).hexdigest()[:8]


def graded_euler(doc: dict) -> int:
    """Euler characteristic of the associated graded bundle (what
    ``graded_table(rep).euler_characteristic()`` gives), from the vertex
    data alone."""
    space = rootsys.Space(doc["space"]["k"], doc["space"]["n"])
    total = 0
    for v in doc["vertices"]:
        value = bott.bott(space, tuple(v["weight"]))
        if value is not None:
            total += (-1) ** value.degree * v["dim"] * rootsys.module_dim(space, value.nu)
    return total


def _cohomology_ok(item, answer: str) -> bool:
    rows = json.loads(answer)
    euler = sum((-1) ** degree * mult * dim for degree, _, mult, dim in rows)
    return euler == graded_euler(json.loads(item["rep"]))


def _tangent_ok(item, answer: str) -> bool:
    return int(answer) >= 0


def _two_step_ok(case, answer: str) -> bool:
    """c_ij = 1, and c_ji = -1/(a_i - a_j + j - i) for i < j, 0 for
    i > j, 1 for i = j (acceptance criterion 8)."""
    a, (i, j), m = case
    c_ij, c_ji = (Fraction(x) for x in answer.split("|"))
    padded = list(a) + [0] * (m - len(a))
    if i < j:
        expected = Fraction(-1, padded[i - 1] - padded[j - 1] + j - i)
    else:
        expected = Fraction(int(i == j))
    return c_ij == 1 and c_ji == expected


def invariant_checks(workload: str, inputs) -> list:
    """One predicate per distinct input: answer -> bool."""
    if workload == "cohomology_batch":
        return [lambda ans, item=item: _cohomology_ok(item, ans) for item in inputs]
    if workload == "tangent_batch":
        return [lambda ans, item=item: _tangent_ok(item, ans) for item in inputs]
    if workload == "pieri_sweep":
        return [lambda ans, case=case: _two_step_ok(case, ans) for case in inputs["twostep"]] + [
            lambda ans: ans == "True" for _ in inputs["verify"]
        ]
    return [lambda ans: ans.startswith("0:") for _ in inputs["commands"]]


def failed_ops(workload: str, inputs, index: list[int], answers: list[str], reference=None) -> list[int]:
    """Positions of the ops whose answer is wrong: it raised, breaks the
    workload's invariant, differs from the reference answer for this
    seed, or differs from an earlier answer to the same input."""
    checks = invariant_checks(workload, inputs)
    expected = reference["answers"] if reference else None
    first: dict[int, str] = {}
    verdict: dict[str, bool] = {}
    failed = []
    for pos, (i, answer) in enumerate(zip(index, answers)):
        key = f"{i}\0{answer}"
        if key not in verdict:
            try:
                ok = checks[i](answer)
            except (ValueError, TypeError, ZeroDivisionError, json.JSONDecodeError):
                ok = False
            if expected is not None:
                ok = ok and expected[i] == short_digest(answer)
            verdict[key] = ok
        if not verdict[key] or first.setdefault(i, answer) != answer:
            failed.append(pos)
    return failed
