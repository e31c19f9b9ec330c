"""The result records are named tuples: their printed form, immutability,
hashing and caches, and the cost of importing the CLI that prints them."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quivercoh import bott, cohomology, pieri, quiver, stability
from quivercoh.rootsys import Space

from conftest import GR13, P2, adv_rep, generic_ex73_rep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_reprs():
    assert repr(Space(0, 3)) == "Space(k=0, n=3)"
    assert repr(quiver.Vertex((1, -2), 3)) == "Vertex(weight=(1, -2), dim=3)"
    assert repr(cohomology.TableRow(0, (0, 0), 1, 1)) == (
        "TableRow(degree=0, nu=(0, 0), multiplicity=1, dim=1)"
    )
    assert repr(bott.bott(P2, (-3, 0))) == "BottValue(degree=2, nu=(0, 0))"


def _records():
    rep = adv_rep()
    plan = quiver.relation_plan(rep)
    return [
        P2,
        rep,
        rep.vertices[0],
        rep.arrows[0],
        plan,
        bott.bott(P2, (-3, 0)),
        bott.mirrors(P2, (-3, 0))[0],
        quiver.relation_system(GR13, (1, -2, 1), ((1, 1), (2, 2)))[0],
        cohomology.graded_cohomology(rep)[0],
        cohomology.build_complex(rep),
        cohomology.build_complex(rep).classes[0],
        cohomology.cohomology(rep),
        cohomology.cohomology(rep).rows[0],
        cohomology.truncated_complex(rep, 1),
        stability.canonical_character(rep),
        pieri.pieri_map((1,), 1, 2),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_hash_is_the_hash_of_the_field_tuple(record):
    try:
        expected = hash(tuple(record))
    except TypeError:  # a dict or list field: unhashable either way
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert record == tuple(record)


def test_realize_returns_one_cached_realization_per_key():
    real = pieri.realize((2, 1), 3)
    column = real.op_column("f", 1, 0)
    assert pieri.realize((2, 1), 3) is real
    assert real.op_column("f", 1, 0) is column
    assert pieri.realize((2, 1), 4) is not real


@pytest.mark.parametrize("rep", [adv_rep(), generic_ex73_rep()], ids=["adv", "ex73"])
def test_maps_reads_equal_a_dense_rebuild(rep):
    classes = cohomology.build_complex(rep).classes
    assert any(cls.differentials for cls in classes)
    for cls in classes:
        widths = {d: sum(dim for _, dim in cls.blocks[d]) for d in cls.blocks}
        dense = {
            d: tuple(tuple(Fraction(row.get(c, 0), den) for c in range(widths[d])) for row in rows)
            for d, (rows, den) in cls.differentials.items()
        }
        assert cls.maps == dense
        assert cls.maps == dense


def _modules_after(code: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    bare = _modules_after("")
    loaded = _modules_after("import quivercoh.cli")
    assert "quivercoh.cli" in loaded
    assert {"dataclasses", "inspect"} & (loaded - bare) == set()
