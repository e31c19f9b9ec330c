"""Command line front end.

Space syntax: p:n for projective space, gr:k,n for the Grassmannian of
projective k-planes in P^n.  Weights are comma-separated integers;
bundles may also be given as expressions like "S[2,1]U S[1]Q* O(3)".
All output is deterministic; --json switches to machine form.

Exit codes: 0 success, 1 domain errors (relation violations, weights
outside D_1 where required), 2 parse or shape errors, 3 internal errors
(a failed structural check: a bug, not bad input), 141 when the reader
closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import bott, cohomology, pieri, quiver, rootsys, stability
from .errors import DomainError, InternalCheckError, ParseError
from .rootsys import BundleShape, Space


def parse_space(text: str) -> Space:
    text = text.strip().lower()
    m = re.fullmatch(r"p:(\d+)", text)
    if m:
        return Space(0, int(m.group(1)))
    m = re.fullmatch(r"gr:(\d+),(\d+)", text)
    if m:
        return Space(int(m.group(1)), int(m.group(2)))
    raise ParseError(f"bad space {text!r}; use p:n or gr:k,n")


def _ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers from the flag --what."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad {what} {text!r}; use comma separated integers")


def parse_weight(space: Space, text: str):
    coords = _ints(text, "weight")
    if len(coords) != space.rank:
        raise ParseError(
            f"weight {text!r} has {len(coords)} coordinates, expected {space.rank}"
        )
    return coords


_TOKEN = re.compile(r"O\((-?\d+)\)|S\[([0-9,]*)\](U|Q\*)|\s+")


def parse_bundle_expr(space: Space, text: str) -> BundleShape:
    """Parse an irreducible bundle expression into its canonical shape."""
    alpha = None
    beta = None
    t = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"bad bundle syntax in {text!r}", position=pos)
        twist, parts, kind = m.group(1), m.group(2), m.group(3)
        if twist is not None:
            t += int(twist)
        elif kind is not None:
            try:
                partition = tuple(int(x) for x in parts.split(",")) if parts else ()
            except ValueError:
                raise ParseError(f"bad partition in {text!r}", position=pos)
            if kind == "U":
                if alpha is not None:
                    raise ParseError("duplicate U factor", position=pos)
                alpha = partition
            else:
                if beta is not None:
                    raise ParseError("duplicate Q* factor", position=pos)
                beta = partition
        pos = m.end()
    try:
        return rootsys.make_shape(space, alpha or (), beta or (), t)
    except DomainError as exc:
        raise ParseError(str(exc))




def _weight_of(args):
    if args.weight is not None:
        return parse_weight(args.space, args.weight)
    return rootsys.shape_to_weight(args.space, parse_bundle_expr(args.space, args.bundle))


def _read_json(path: str, schema: str, convert):
    """convert(the JSON content of a file).  A file that cannot be read,
    bad JSON and a schema that convert rejects are all ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"bad JSON in {path}: {exc}")
    try:
        return convert(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {schema} schema in {path}: {exc!r}")


def _load_rep(path: str) -> quiver.QuiverRep:
    return _read_json(path, "representation", quiver.rep_from_data)


def _weight_str(w) -> str:
    return ",".join(str(c) for c in w)


def _table_payload(table: cohomology.CohomologyTable) -> dict:
    return {
        "rows": [
            {
                "degree": r.degree,
                "nu": list(r.nu),
                "multiplicity": r.multiplicity,
                "dim": r.dim,
            }
            for r in table.rows
        ]
    }


def _table_human(table: cohomology.CohomologyTable) -> str:
    if table.is_empty():
        return "all cohomology vanishes"
    lines = [f"{'i':>3}  {'nu':<16} {'mult':>4} {'dim':>6}"]
    for r in table.rows:
        lines.append(
            f"{r.degree:>3}  {_weight_str(r.nu):<16} {r.multiplicity:>4} {r.dim:>6}"
        )
    return "\n".join(lines)


# Each cmd_* handler returns (JSON payload, human text), with the exit
# code as a third item when it is not 0; _run prints one of the two.


def cmd_bott(args):
    value = bott.bott(args.space, _weight_of(args))
    if value is None:
        return {"singular": True}, "singular: all cohomology vanishes"
    dim = rootsys.module_dim(args.space, value.nu)
    payload = {"singular": False, "degree": value.degree, "nu": list(value.nu), "dim": dim}
    return payload, f"degree {value.degree}, nu {_weight_str(value.nu)} (dim {dim})"


def cmd_chambers(args):
    verts = bott.chamber_vertices(args.space)
    histogram = [0] * (args.space.dim + 1)
    for _, d in verts:
        histogram[d] += 1
    rows = [{"weight": list(w), "degree": d} for w, d in verts]
    human = "\n".join(f"{d}  {_weight_str(w)}" for w, d in verts)
    human += "\nhistogram " + ",".join(str(x) for x in histogram)
    return {"vertices": rows, "histogram": histogram}, human


def cmd_hasse(args):
    value = bott.hasse_degree(args.space)
    return {"degree": value}, str(value)


def _parse_matrix(text: str) -> list[list[int]]:
    try:
        rows = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"bad --matrix JSON: {exc}")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in rows
    ):
        raise ParseError("--matrix must be a JSON list of rows of integers")
    return rows


def cmd_components(args):
    if args.matrix:
        matrix = _parse_matrix(args.matrix)
    else:
        if not args.type or args.rank is None:
            raise ParseError("need --type and --rank, or --matrix")
        matrix = bott.cartan_matrix(args.type, args.rank)
    value = bott.components_count(matrix)
    return {"components": value}, str(value)


def cmd_quiver_arrows(args):
    arrows = quiver.arrows_from(args.space, _weight_of(args))
    payload = [
        {"box": list(box), "target": list(target)} for box, target in arrows
    ]
    human = "\n".join(
        f"({box[0]},{box[1]}) -> {_weight_str(target)}" for box, target in arrows
    )
    return {"arrows": payload}, human or "no arrows"


def cmd_check(args):
    violations = quiver.check_relations(args.rep)
    payload = {
        "valid": not violations,
        "violations": [
            {
                "source": list(v.source),
                "target": list(v.target),
                "residual": [[quiver.frac_str(x) for x in row] for row in v.residual],
            }
            for v in violations
        ],
    }
    if violations:
        lines = [
            f"relation violated at ({_weight_str(v.source)}) -> "
            f"({_weight_str(v.target)})"
            for v in violations
        ]
        return payload, "\n".join(lines), 1
    return payload, "all relations hold"


def cmd_rescale(args):
    # the output is a representation file, with or without --json
    print(quiver.rep_to_json(quiver.rescale_to_commutative(args.rep)))


def cmd_cohomology(args):
    table = cohomology.cohomology(args.rep)
    return _table_payload(table), _table_human(table)


def cmd_truncated(args):
    result = cohomology.truncated_complex(args.rep, args.steps)
    payload = _table_payload(result.table)
    payload.update(
        {
            "steps": result.steps,
            "is_full": result.is_full,
            "is_complex": result.is_complex,
            "caveat": result.caveat,
        }
    )
    human = _table_human(result.table)
    if result.caveat:
        human += f"\nnote: {result.caveat}"
    return payload, human


def _character(args) -> stability.Character:
    if args.character == "auto":
        return stability.canonical_character(args.rep)

    def convert(data):
        sigma = tuple(
            (
                tuple(quiver.json_int(c) for c in entry["weight"]),
                quiver.json_int(entry["value"]),
            )
            for entry in data["sigma"]
        )
        return stability.Character(sigma, quiver.json_int(data.get("scale", 1)))

    return _read_json(args.character, "character", convert)


def cmd_character(args):
    ch = stability.canonical_character(args.rep)
    payload = {
        "sigma": [{"weight": list(w), "value": s} for w, s in ch.sigma],
        "scale": ch.scale,
    }
    human = "\n".join(f"{_weight_str(w)}  {s}" for w, s in ch.sigma)
    return payload, human + f"\nscale {ch.scale}"


def cmd_witness(args):
    ch = _character(args)
    spans = _read_json(
        args.witness,
        "witness",
        lambda data: [
            [[quiver.parse_frac(x) for x in vec] for vec in vertex_spans]
            for vertex_spans in data["spans"]
        ],
    )
    if len(spans) != len(args.rep.vertices):
        raise ParseError("witness needs one span list per vertex")
    report = stability.check_witness(args.rep, spans, ch)
    payload = {
        "arrow_closed": report.arrow_closed,
        "subdims": [{"weight": list(w), "dim": d} for w, d in report.subdims],
        "pairing": report.pairing,
        "destabilizes": report.destabilizes,
    }
    human = (
        f"pairing {report.pairing}; "
        + ("destabilizes" if report.destabilizes else "no destabilizer here")
    )
    return payload, human


def cmd_path(args):
    value = stability.path_semistable(args.rep, _character(args))
    return {"semistable": value}, "semistable" if value else "unstable"


def cmd_tangent(args):
    value = stability.tangent_dim(args.rep)
    return {"tangent_dim": value}, str(value)


def cmd_ex73(args):
    report = stability.ex73_invariants(args.rep)
    s, t = quiver.frac_str(report.s), quiver.frac_str(report.t)
    payload = {
        "S": s,
        "T": t,
        "branch": report.branch,
        "middle_destabilized": report.middle_destabilized,
    }
    human = (
        f"S = {s}, T = {t}, "
        f"branch {report.branch}"
        + (", middle row destabilizes" if report.middle_destabilized else "")
    )
    return payload, human


def cmd_twostep(args):
    a = _ints(args.partition, "partition") if args.partition else ()
    rows = _ints(args.rows, "rows")
    if len(rows) != 2:
        raise ParseError("rows must be i,j")
    c_ij, c_ji = map(quiver.frac_str, pieri.two_step_coefficients(a, rows, args.m))
    return {"c_ij": c_ij, "c_ji": c_ji}, f"c_ij = {c_ij}, c_ji = {c_ji}"


def cmd_relations(args):
    w = _weight_of(args)
    nums = _ints(args.boxes, "boxes")
    if len(nums) != 4:
        raise ParseError("boxes must be p1,q1,p2,q2")
    boxes = ((nums[0], nums[1]), (nums[2], nums[3]))
    ok = pieri.verify_relation_coefficients(args.space, w, boxes)
    equations = quiver.relation_system(args.space, w, boxes)
    payload = {
        "verified": ok,
        "equations": [
            {
                "target": list(eq.target),
                "terms": [
                    {
                        "first": list(f),
                        "second": list(s),
                        "coefficient": quiver.frac_str(c),
                    }
                    for f, s, c in eq.terms
                ],
            }
            for eq in equations
        ],
    }
    lines = [f"verified: {ok}"]
    for eq in equations:
        terms = " + ".join(
            f"({quiver.frac_str(c)}) g[{s}]g[{f}]" for f, s, c in eq.terms
        )
        lines.append(f"0 = {terms}")
    return payload, "\n".join(lines)


def cmd_p2(args):
    c, b = pieri.p2_matrices(args.k)
    ok = pieri.wedge_check(args.k)

    def ext_str(e):
        names = ["", "x", "y", "x^y"]
        terms = [
            (f"{quiver.frac_str(c)}" + (f"*{n}" if n else ""))
            for c, n in zip(e, names)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"

    payload = {
        "identities_hold": ok,
        "C": [[ext_str(x) for x in row] for row in c],
        "B": [[ext_str(x) for x in row] for row in b],
    }
    lines = [f"identities hold: {ok}", "C:"]
    lines += ["  " + "  ".join(ext_str(x) for x in row) for row in c]
    lines.append("B:")
    lines += ["  " + "  ".join(ext_str(x) for x in row) for row in b]
    return payload, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ParseError, so it leaves main like a bad
    input file: exit 2 and one "error:" line, not argparse's usage text."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quivercoh",
        description="cohomology of homogeneous bundles via quiver representations",
    )
    commands = parser.add_subparsers(required=True)

    def add(group, name, fn, help, space=False, weight=False, rep=False):
        p = group.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        if space:
            p.add_argument("--space", required=True, type=parse_space)
        if weight:
            either = p.add_mutually_exclusive_group(required=True)
            either.add_argument("--weight")
            either.add_argument("--bundle")
        if rep:
            p.add_argument("--rep", required=True, type=_load_rep)
        return p

    add(commands, "bott", cmd_bott, "cohomology of one irreducible bundle", space=True, weight=True)
    add(commands, "chambers", cmd_chambers, "chamber vertices and degree histogram", space=True)
    add(commands, "hasse", cmd_hasse, "maximal path count of the chamber graph", space=True)

    p = add(commands, "components", cmd_components, "component count from a Cartan matrix")
    p.add_argument("--type")
    p.add_argument("--rank", type=int)
    p.add_argument("--matrix")

    add(commands, "quiver-arrows", cmd_quiver_arrows, "arrows out of a vertex", space=True, weight=True)
    add(commands, "check", cmd_check, "verify the relations of a representation", rep=True)
    add(commands, "rescale", cmd_rescale, "commutativity normalization (projective space)", rep=True)
    add(commands, "cohomology", cmd_cohomology, "cohomology table of a representation", rep=True)
    p = add(commands, "truncated", cmd_truncated, "homology of the truncated sequence", rep=True)
    p.add_argument("--steps", type=int, required=True)

    group = commands.add_parser("stability", help="characters and semistability")
    group = group.add_subparsers(required=True)
    add(group, "character", cmd_character, "canonical character", rep=True)
    p = add(group, "witness", cmd_witness, "pair a subrepresentation with a character", rep=True)
    p.add_argument("--character", default="auto")
    p.add_argument("--witness", required=True)
    p = add(group, "path", cmd_path, "semistability along paths", rep=True)
    p.add_argument("--character", default="auto")
    add(group, "tangent", cmd_tangent, "tangent space dimension", rep=True)
    add(group, "ex73", cmd_ex73, "invariants of the seven-vertex family", rep=True)

    group = commands.add_parser("oracle", help="independent coefficient oracle")
    group = group.add_subparsers(required=True)
    p = add(group, "twostep", cmd_twostep, "two-step Pieri coefficients")
    p.add_argument("--partition", default="")
    p.add_argument("--rows", required=True)
    p.add_argument("--m", type=int, default=2)
    p = add(group, "relations", cmd_relations, "relations at a vertex", space=True, weight=True)
    p.add_argument("--boxes", required=True)
    p = add(group, "p2", cmd_p2, "the P^2 matrices and their identities")
    p.add_argument("--k", type=int, default=1)

    return parser


_VALUE_FLAGS = {"--weight", "--boxes", "--rows", "--partition"}


def _join_flag_values(argv):
    """Let values like -2,1,0,0 follow their flag without being read as
    option strings."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            return _run(list(argv))
        finally:  # also when --help leaves through SystemExit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as in `| head -1`): send what is
        # still buffered to /dev/null so the flush at exit stays quiet,
        # and exit as a process killed by SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(_join_flag_values(argv))
        result = args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if result is None:  # rescale printed its representation file
        return 0
    payload, human, *code = result
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else human)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
