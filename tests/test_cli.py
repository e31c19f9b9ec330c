import json

import pytest

from quivercoh import cli, quiver, rootsys
from quivercoh.cli import main, parse_bundle_expr, parse_space
from quivercoh.errors import ParseError

from conftest import GR13, P2, adv_rep, dual_euler_rep


def format_bundle_expr(shape: rootsys.BundleShape) -> str:
    """The canonical expression of a shape, as parse_bundle_expr reads it."""
    parts = []
    if shape.alpha:
        parts.append("S[" + ",".join(str(x) for x in shape.alpha) + "]U")
    if shape.beta:
        parts.append("S[" + ",".join(str(x) for x in shape.beta) + "]Q*")
    if shape.t or not parts:
        parts.append(f"O({shape.t})")
    return " ".join(parts)


class TestParsing:
    def test_space_syntax(self):
        assert parse_space("p:4") == rootsys.Space(0, 4)
        assert parse_space("gr:1,3") == rootsys.Space(1, 3)
        with pytest.raises(ParseError):
            parse_space("x:2")

    def test_line_bundle(self):
        sh = parse_bundle_expr(P2, "O(1)")
        assert sh == rootsys.BundleShape((), (), 1)

    def test_cotangent_expr(self):
        sh = parse_bundle_expr(P2, "S[1]U S[1]Q*")
        assert rootsys.shape_to_weight(P2, sh) == (-2, 1)

    def test_column_absorption(self):
        sh = parse_bundle_expr(GR13, "S[1,1]U O(1)")
        assert sh == rootsys.BundleShape((), (), 0)

    def test_twists_accumulate(self):
        sh = parse_bundle_expr(P2, "O(1) O(2)")
        assert sh.t == 3

    def test_round_trip_on_canonical_forms(self):
        for text in ["O(1)", "S[1]U S[1]Q*", "S[2,1]U S[1]Q* O(3)", "O(0)"]:
            space = GR13
            sh = parse_bundle_expr(space, text)
            assert parse_bundle_expr(space, format_bundle_expr(sh)) == sh

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError):
            parse_bundle_expr(P2, "O(1) nonsense")

    def test_bad_partition(self):
        with pytest.raises(ParseError):
            parse_bundle_expr(P2, "S[1,2]U")

    def test_too_many_parts(self):
        with pytest.raises(ParseError):
            parse_bundle_expr(P2, "S[1,1,1]Q*")


class TestCommands:
    def test_bott_p4(self, capsys):
        assert main(["bott", "--space", "p:4", "--weight", "-2,1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "degree 1" in out
        assert "0,0,0,0" in out

    def test_bott_singular(self, capsys):
        assert main(["bott", "--space", "p:2", "--weight", "-1,0"]) == 0
        assert "singular" in capsys.readouterr().out

    def test_bott_bundle_expr(self, capsys):
        assert main(["bott", "--space", "p:2", "--bundle", "S[1]U S[1]Q*", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"singular": False, "degree": 1, "nu": [0, 0], "dim": 1}

    def test_bott_outside_d1_is_domain_error(self, capsys):
        assert main(["bott", "--space", "p:2", "--weight", "0,-1"]) == 1

    def test_chambers(self, capsys):
        assert main(["chambers", "--space", "p:4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [v["weight"] for v in data["vertices"]] == [
            [0, 0, 0, 0],
            [-2, 1, 0, 0],
            [-3, 0, 1, 0],
            [-4, 0, 0, 1],
            [-5, 0, 0, 0],
        ]

    def test_components(self, capsys):
        assert main(["components", "--type", "A", "--rank", "4"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_components_explicit_matrix(self, capsys):
        matrix = json.dumps([[2, -1], [-1, 2]])
        assert main(["components", "--matrix", matrix]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_hasse(self, capsys):
        assert main(["hasse", "--space", "gr:1,4"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_quiver_arrows(self, capsys):
        assert main(["quiver-arrows", "--space", "gr:1,3", "--weight", "0,0,0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["arrows"] == [{"box": [1, 1], "target": [1, -2, 1]}]

    def test_cohomology_empty_table(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(quiver.rep_to_json(dual_euler_rep(P2)))
        assert main(["cohomology", "--rep", str(path)]) == 0
        assert "vanishes" in capsys.readouterr().out

    def test_check_violations_exit_code(self, tmp_path, capsys):
        bad = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-2, 0), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 2), [[1]])],
        )
        path = tmp_path / "bad.json"
        path.write_text(quiver.rep_to_json(bad))
        assert main(["check", "--rep", str(path)]) == 1
        assert "violated" in capsys.readouterr().out

    def test_rescale_round_trip(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(quiver.rep_to_json(adv_rep()))
        assert main(["rescale", "--rep", str(path)]) == 0
        text = capsys.readouterr().out
        rep = quiver.rep_from_json(text)
        assert rep.dims() == adv_rep().dims()

    def test_truncated_caveat(self, tmp_path, capsys):
        rep = quiver.make_rep(
            P2,
            [((1, 0), 1), ((-1, 1), 1), ((-3, 2), 1)],
            [((1, 0), (1, 1), [[1]]), ((-1, 1), (1, 1), [[1]])],
        )
        path = tmp_path / "chain.json"
        path.write_text(quiver.rep_to_json(rep))
        assert main(["truncated", "--rep", str(path), "--steps", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_full"] is False
        assert data["is_complex"] is True

    def test_stability_character(self, tmp_path, capsys):
        from conftest import generic_ex73_rep

        path = tmp_path / "fam.json"
        path.write_text(quiver.rep_to_json(generic_ex73_rep()))
        assert main(["stability", "character", "--rep", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        values = {tuple(e["weight"]): e["value"] for e in data["sigma"]}
        assert values[(1, 1)] == -72

    def test_stability_ex73(self, tmp_path, capsys):
        from conftest import generic_ex73_rep

        path = tmp_path / "fam.json"
        path.write_text(quiver.rep_to_json(generic_ex73_rep()))
        assert main(["stability", "ex73", "--rep", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["branch"] == "generic"

    def test_stability_path_and_witness(self, tmp_path, capsys):
        rep = quiver.make_rep(
            rootsys.Space(0, 1), [((0,), 1), ((-2,), 1)], []
        )
        rep_path = tmp_path / "pair.json"
        rep_path.write_text(quiver.rep_to_json(rep))
        assert main(["stability", "path", "--rep", str(rep_path)]) == 0
        assert "unstable" in capsys.readouterr().out
        witness = tmp_path / "w.json"
        spans = [[] for _ in rep.vertices]
        spans[rep.vertex_index((0,))] = [["1"]]
        witness.write_text(json.dumps({"spans": spans}))
        assert (
            main(
                [
                    "stability",
                    "witness",
                    "--rep",
                    str(rep_path),
                    "--witness",
                    str(witness),
                    "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["destabilizes"] is True

    def test_stability_character_from_file(self, tmp_path, capsys):
        rep = quiver.make_rep(
            rootsys.Space(0, 1), [((0,), 1), ((-2,), 1)], []
        )
        rep_path = tmp_path / "pair.json"
        rep_path.write_text(quiver.rep_to_json(rep))
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(
            json.dumps(
                {
                    "sigma": [
                        {"weight": [0], "value": -2},
                        {"weight": [-2], "value": 2},
                    ],
                    "scale": 1,
                }
            )
        )
        assert (
            main(
                [
                    "stability",
                    "path",
                    "--rep",
                    str(rep_path),
                    "--character",
                    str(ch_path),
                ]
            )
            == 0
        )
        assert "unstable" in capsys.readouterr().out

    def test_malformed_rational_rejected(self):
        text = quiver.rep_to_json(dual_euler_rep(P2)).replace('"1/1"', '"1/0"')
        with pytest.raises(Exception):
            quiver.rep_from_json(text)
        text2 = quiver.rep_to_json(dual_euler_rep(P2)).replace('"1/1"', '"a/b"')
        with pytest.raises(Exception):
            quiver.rep_from_json(text2)

    def test_oracle_twostep(self, capsys):
        assert main(["oracle", "twostep", "--partition", "", "--m", "2", "--rows", "1,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"c_ij": "1/1", "c_ji": "-1/1"}

    def test_oracle_relations(self, capsys):
        assert (
            main(
                [
                    "oracle",
                    "relations",
                    "--space",
                    "gr:1,3",
                    "--weight",
                    "0,0,0",
                    "--boxes",
                    "1,1,2,2",
                ]
            )
            == 0
        )
        assert "verified: True" in capsys.readouterr().out

    def test_oracle_p2(self, capsys):
        assert main(["oracle", "p2", "--k", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identities_hold"] is True

    def test_parse_error_exit_code(self, capsys):
        assert main(["bott", "--space", "nope", "--weight", "0,0"]) == 2

    def test_missing_file_exit_code(self, capsys):
        assert main(["cohomology", "--rep", "/nonexistent.json"]) == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(quiver.rep_to_json(adv_rep()))
        outputs = []
        for _ in range(2):
            assert main(["cohomology", "--rep", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_emitted_rep_reparses_equal(self, tmp_path, capsys):
        rep = adv_rep()
        path = tmp_path / "rep.json"
        path.write_text(quiver.rep_to_json(rep))
        assert main(["rescale", "--rep", str(path)]) == 0
        text = capsys.readouterr().out
        assert quiver.rep_from_json(quiver.rep_to_json(quiver.rep_from_json(text))) == quiver.rep_from_json(text)
