"""Malformed command lines and input files end in one stderr line and
the documented exit code, never in a traceback: an exception escaping
main fails these tests."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quivercoh import cohomology, quiver, rootsys, stability
from quivercoh.cli import main
from quivercoh.errors import InternalCheckError

from conftest import P2, dual_euler_rep, rescaled_ex73_rep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FILES = {
    "rep.json": quiver.rep_to_json(dual_euler_rep(P2)),
    "list.json": "[]",
    "sigma5.json": json.dumps({"sigma": 5}),
    "broken.json": '{"spans": [',
}

# argv (files relative to the working directory) -> exit code
CASES = {
    "witness_list": (["stability", "witness", "--rep", "rep.json", "--witness", "list.json"], 2),
    "witness_missing": (["stability", "witness", "--rep", "rep.json", "--witness", "nofile.json"], 2),
    "witness_bad_json": (["stability", "witness", "--rep", "rep.json", "--witness", "broken.json"], 2),
    "witness_flag_missing": (["stability", "witness", "--rep", "rep.json"], 2),
    "character_missing": (["stability", "path", "--rep", "rep.json", "--character", "missing.json"], 2),
    "character_sigma_int": (["stability", "path", "--rep", "rep.json", "--character", "sigma5.json"], 2),
    "character_list": (["stability", "path", "--rep", "rep.json", "--character", "list.json"], 2),
    "rep_list": (["cohomology", "--rep", "list.json"], 2),
    "matrix_truncated": (["components", "--matrix", "[[2,"], 2),
    "matrix_scalar": (["components", "--matrix", "5"], 2),
    "matrix_string": (["components", "--matrix", '[["a"]]'], 2),
    "matrix_float": (["components", "--matrix", "[[0.5]]"], 2),
    "matrix_bool": (["components", "--matrix", "[[true]]"], 2),
    "matrix_ragged": (["components", "--matrix", "[[1], [1, 2]]"], 1),
    "rank_zero": (["components", "--type", "A", "--rank", "0"], 1),
    "rank_negative": (["components", "--type", "A", "--rank", "-1"], 1),
    "twostep_no_rows": (["oracle", "twostep", "--partition", "2,1", "--m", "3"], 2),
    "twostep_one_row": (["oracle", "twostep", "--rows", "1"], 2),
    "relations_no_space": (["oracle", "relations", "--boxes", "1,1,2,2"], 2),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_with_one_line(case, workdir, capsys):
    argv, code = CASES[case]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_rejected_in_a_process_without_traceback(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "quivercoh.cli", *CASES["witness_list"][0]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


CHAMBERS = ["chambers", "--space", "gr:1,3"]


@pytest.mark.parametrize(
    "unbuffered, argv", [(True, CHAMBERS), (False, CHAMBERS), (False, ["--help"])]
)
def test_closed_pipe_exits_141_without_traceback(unbuffered, argv):
    # a reader that stops early (as in `| head -1`) closes the pipe; the
    # CLI exits as on SIGPIPE, whether the write or the flush at exit
    # fails (an unbuffered --help is left out: argparse ignores its own
    # failed write and exits 0)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quivercoh.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_internal_error_exits_3(workdir, monkeypatch, capsys):
    def broken(rep):
        raise InternalCheckError("differential squares to nonzero")

    monkeypatch.setattr(cohomology, "cohomology", broken)
    assert main(["cohomology", "--rep", "rep.json"]) == 3
    assert capsys.readouterr().err == "internal error: differential squares to nonzero\n"


def test_failed_internal_check_is_an_internal_error(workdir, monkeypatch, capsys):
    # first Chern classes are integers on these spaces; with a patched
    # slope the check raises InternalCheckError (an assert would vanish
    # under python -O) and the CLI exits 3
    monkeypatch.setattr(rootsys, "slope", lambda space, w: Fraction(1, 3))
    assert main(["stability", "character", "--rep", "rep.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: first Chern class ") and err.count("\n") == 1


def test_integer_matrix_still_accepted(capsys):
    assert main(["components", "--matrix", "[[2, -1], [-1, 2]]"]) == 0
    assert capsys.readouterr().out == "3\n"


def _rep_variant(change):
    data = json.loads(quiver.rep_to_json(dual_euler_rep(P2)))
    change(data)
    return json.dumps(data)


def _character(value=None, scale=1, keep=None):
    ch = stability.canonical_character(dual_euler_rep(P2))
    sigma = [
        {"weight": list(w), "value": s if value is None else value}
        for w, s in ch.sigma[:keep]
    ]
    return json.dumps({"sigma": sigma, "scale": scale})


def _one_arrow_rep(target_dim, matrix):
    return json.dumps(
        {
            "space": {"k": 0, "n": 2},
            "vertices": [{"weight": [-2, 1], "dim": target_dim}, {"weight": [0, 0], "dim": 1}],
            "arrows": [{"from": 1, "to": 0, "box": [1, 1], "matrix": matrix}],
        }
    )


CHECK = ["check", "--rep", "input.json"]
WITNESS = ["stability", "witness", "--rep", "rep.json", "--witness", "w.json"]
WITNESS += ["--character", "input.json"]

# rep and character files whose numbers are not JSON integers, a
# character missing a vertex, and a rep outside the ex73 family:
# (file text, argv, exit code)
STRICT = {
    "dim_true": (
        _rep_variant(lambda d: d["vertices"][0].update(dim=True)),
        CHECK,
        2,
    ),
    "dim_float": (
        _rep_variant(lambda d: d["vertices"][0].update(dim=1.0)),
        CHECK,
        2,
    ),
    "weight_half": (
        _rep_variant(lambda d: d["vertices"][0].update(weight=[0.5, 0.5])),
        CHECK,
        2,
    ),
    "box_string": (
        _rep_variant(lambda d: d["arrows"][0].update(box="12")),
        CHECK,
        2,
    ),
    "box_three": (
        _rep_variant(lambda d: d["arrows"][0].update(box=[1, 2, 1])),
        CHECK,
        2,
    ),
    "from_float": (
        _rep_variant(lambda d: d["arrows"][0].update({"from": 1.0})),
        CHECK,
        2,
    ),
    "space_bool": (
        _rep_variant(lambda d: d["space"].update(k=False)),
        CHECK,
        2,
    ),
    "matrix_rows_strings": (_one_arrow_rep(2, ["1", "2"]), CHECK, 2),
    "matrix_row_string": (_one_arrow_rep(1, ["12"]), CHECK, 2),
    "matrix_string": (_one_arrow_rep(1, "1"), CHECK, 2),
    "entry_zero_den": (_one_arrow_rep(1, [["1/0"]]), CHECK, 2),
    "entry_word": (_one_arrow_rep(1, [["abc"]]), CHECK, 2),
    "entry_two_slashes": (_one_arrow_rep(1, [["1/2/3"]]), CHECK, 2),
    "entry_empty": (_one_arrow_rep(1, [[""]]), CHECK, 2),
    "entry_number": (_one_arrow_rep(1, [[1]]), CHECK, 2),
    "entry_list": (_one_arrow_rep(1, [[[1]]]), CHECK, 2),
    "entry_object": (_one_arrow_rep(1, [[{}]]), CHECK, 2),
    "character_value_float": (_character(value=1.5), WITNESS, 2),
    "character_scale_float": (_character(scale=1.5), WITNESS, 2),
    "character_missing_vertex": (_character(keep=1), WITNESS, 1),
    "ex73_relation_fails": (
        quiver.rep_to_json(rescaled_ex73_rep()),
        ["stability", "ex73", "--rep", "input.json"],
        1,
    ),
}


@pytest.fixture
def strict_workdir(workdir):
    (workdir / "w.json").write_text(json.dumps({"spans": [[["1"]], []]}))
    return workdir


@pytest.mark.parametrize("case", sorted(STRICT))
def test_non_integer_input_rejected_with_one_line(case, strict_workdir, capsys):
    text, argv, code = STRICT[case]
    (strict_workdir / "input.json").write_text(text)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_canonical_character_file_still_accepted(strict_workdir, capsys):
    (strict_workdir / "input.json").write_text(_character())
    assert main(WITNESS) == 0
    with_file = capsys.readouterr().out
    assert main(WITNESS[:-2]) == 0
    assert capsys.readouterr().out == with_file


def test_dim_true_rejected_in_a_process_without_traceback(strict_workdir):
    (strict_workdir / "input.json").write_text(STRICT["dim_true"][0])
    proc = subprocess.run(
        [sys.executable, "-m", "quivercoh.cli", *CHECK],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
