"""Fuzzed rep files and command lines end in an exit code of 0, 1 or 2
and at most one stderr line: malformed input is a parse or domain error,
never an internal error or a traceback."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivercoh import quiver
from quivercoh.cli import main

from conftest import GR13, P2, P3, adv_rep, dual_euler_rep, ex511_rep, random_rep, random_segment_rep

# valid documents to mutate: known bundles, a segment and a random rep
BASES = [
    json.loads(quiver.rep_to_json(rep))
    for rep in (
        dual_euler_rep(P2),
        adv_rep(),
        ex511_rep(),
        random_segment_rep(P3, random.Random(2)),
        random_rep(GR13, random.Random(3)),
    )
]

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.integers(-(10**20), 10**20),
    st.lists(st.integers(-3, 3), max_size=4),
    st.just({}),
)
small = st.integers(-3, 4)


def mostly(good):
    """good mostly, junk now and then."""
    return st.integers(1, 4).flatmap(lambda i: junk if i == 4 else good)


entry = mostly(st.sampled_from(["1", "-1/2", "0", "3/4", "1/0", "x", "", "2.5", "4/-2"]))
matrix = mostly(st.lists(st.lists(entry, max_size=3), max_size=3))  # ragged as often as not
random_doc = st.fixed_dictionaries(
    {
        "space": mostly(
            st.sampled_from([(0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 2)]).map(
                lambda kn: {"k": kn[0], "n": kn[1]}
            )
        ),
        "vertices": mostly(
            st.lists(
                st.fixed_dictionaries(
                    {"weight": mostly(st.lists(small, min_size=2, max_size=4)), "dim": mostly(small)}
                ),
                min_size=1,
                max_size=4,
            )
        ),
        "arrows": st.lists(
            st.fixed_dictionaries(
                {
                    "from": mostly(small),
                    "to": mostly(small),
                    "box": mostly(st.lists(st.integers(-1, 4), max_size=3)),
                    "matrix": matrix,
                }
            ),
            max_size=3,
        ),
    }
)
commands = st.one_of(
    st.just(["cohomology"]),
    st.just(["check"]),
    st.one_of(st.integers(-2, 6), st.integers(-(10**30), 10**30)).map(
        lambda n: ["truncated", "--steps", str(n)]
    ),
    st.just(["stability", "path"]),
    st.just(["stability", "tangent"]),
)


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_doc(draw):
    """A valid document with up to two values replaced or keys dropped."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(mostly(st.one_of(small, entry, matrix)))
    return doc


def _run(tmp_path, doc, command, as_json):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    argv = command + ["--rep", str(path)] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, doc, err)
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(doc=st.one_of(random_doc, junk), command=commands, as_json=st.booleans())
def test_random_documents(tmp_path, doc, command, as_json):
    _run(tmp_path, doc, command, as_json)


@FUZZ
@given(doc=mutated_doc(), command=commands, as_json=st.booleans())
def test_mutated_valid_documents(tmp_path, doc, command, as_json):
    _run(tmp_path, doc, command, as_json)
