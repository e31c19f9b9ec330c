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


def parse_space(text: str | None) -> Space:
    if text is None:
        raise ParseError("need --space")
    text = text.strip().lower()
    m = re.fullmatch(r"p:(\d+)", text)
    if m:
        return Space(0, int(m.group(1)))
    m = re.fullmatch(r"gr:(\d+),(\d+)", text)
    if m:
        return Space(int(m.group(1)), int(m.group(2)))
    raise ParseError(f"bad space {text!r}; use p:n or gr:k,n")


def _ints(text: str | None, what: str) -> tuple[int, ...]:
    """Comma-separated integers from the flag --what."""
    if text is None:
        raise ParseError(f"need --{what}")
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


def format_bundle_expr(shape: BundleShape) -> str:
    parts = []
    if shape.alpha:
        parts.append("S[" + ",".join(str(x) for x in shape.alpha) + "]U")
    if shape.beta:
        parts.append("S[" + ",".join(str(x) for x in shape.beta) + "]Q*")
    if shape.t or not parts:
        parts.append(f"O({shape.t})")
    return " ".join(parts)


def _weight_of(space: Space, args):
    if getattr(args, "weight", None):
        return parse_weight(space, args.weight)
    if getattr(args, "bundle", None):
        return rootsys.shape_to_weight(space, parse_bundle_expr(space, args.bundle))
    raise ParseError("need --weight or --bundle")


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


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


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


def cmd_bott(args) -> int:
    space = parse_space(args.space)
    w = _weight_of(space, args)
    value = bott.bott(space, w)
    if value is None:
        _emit(args, {"singular": True}, "singular: all cohomology vanishes")
        return 0
    dim = rootsys.module_dim(space, value.nu)
    _emit(
        args,
        {
            "singular": False,
            "degree": value.degree,
            "nu": list(value.nu),
            "dim": dim,
        },
        f"degree {value.degree}, nu {_weight_str(value.nu)} (dim {dim})",
    )
    return 0


def cmd_chambers(args) -> int:
    space = parse_space(args.space)
    verts = bott.chamber_vertices(space)
    histogram = [0] * (space.dim + 1)
    for _, d in verts:
        histogram[d] += 1
    rows = [{"weight": list(w), "degree": d} for w, d in verts]
    human = "\n".join(f"{d}  {_weight_str(w)}" for w, d in verts)
    human += "\nhistogram " + ",".join(str(x) for x in histogram)
    _emit(args, {"vertices": rows, "histogram": histogram}, human)
    return 0


def cmd_hasse(args) -> int:
    space = parse_space(args.space)
    value = bott.hasse_degree(space)
    _emit(args, {"degree": value}, str(value))
    return 0


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


def cmd_components(args) -> int:
    if args.matrix:
        matrix = _parse_matrix(args.matrix)
    else:
        if not args.type or args.rank is None:
            raise ParseError("need --type and --rank, or --matrix")
        matrix = bott.cartan_matrix(args.type, args.rank)
    value = bott.components_count(matrix)
    _emit(args, {"components": value}, str(value))
    return 0


def cmd_quiver_arrows(args) -> int:
    space = parse_space(args.space)
    w = _weight_of(space, args)
    arrows = quiver.arrows_from(space, w)
    payload = [
        {"box": list(box), "target": list(target)} for box, target in arrows
    ]
    human = "\n".join(
        f"({box[0]},{box[1]}) -> {_weight_str(target)}" for box, target in arrows
    )
    _emit(args, {"arrows": payload}, human or "no arrows")
    return 0


def cmd_check(args) -> int:
    rep = _load_rep(args.rep)
    violations = quiver.check_relations(rep)
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
        _emit(args, payload, "\n".join(lines))
        return 1
    _emit(args, payload, "all relations hold")
    return 0


def cmd_rescale(args) -> int:
    rep = _load_rep(args.rep)
    print(quiver.rep_to_json(quiver.rescale_to_commutative(rep)))
    return 0


def cmd_cohomology(args) -> int:
    rep = _load_rep(args.rep)
    table = cohomology.cohomology(rep)
    _emit(args, _table_payload(table), _table_human(table))
    return 0


def cmd_truncated(args) -> int:
    rep = _load_rep(args.rep)
    result = cohomology.truncated_complex(rep, args.steps)
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
    _emit(args, payload, human)
    return 0


def _character_for(args, rep) -> stability.Character:
    source = getattr(args, "character", "auto") or "auto"
    if source == "auto":
        return stability.canonical_character(rep)

    def convert(data):
        sigma = tuple(
            (
                tuple(quiver.json_int(c) for c in entry["weight"]),
                quiver.json_int(entry["value"]),
            )
            for entry in data["sigma"]
        )
        return stability.Character(sigma, quiver.json_int(data.get("scale", 1)))

    return _read_json(source, "character", convert)


def cmd_stability(args) -> int:
    rep = _load_rep(args.rep)
    sub = args.stability_command
    if sub == "character":
        ch = stability.canonical_character(rep)
        payload = {
            "sigma": [{"weight": list(w), "value": s} for w, s in ch.sigma],
            "scale": ch.scale,
        }
        human = "\n".join(f"{_weight_str(w)}  {s}" for w, s in ch.sigma)
        human += f"\nscale {ch.scale}"
        _emit(args, payload, human)
        return 0
    ch = _character_for(args, rep)
    if sub == "witness":
        if args.witness is None:
            raise ParseError("need --witness")
        spans = _read_json(
            args.witness,
            "witness",
            lambda data: [
                [[quiver.parse_frac(x) for x in vec] for vec in vertex_spans]
                for vertex_spans in data["spans"]
            ],
        )
        if len(spans) != len(rep.vertices):
            raise ParseError("witness needs one span list per vertex")
        report = stability.check_witness(rep, spans, ch)
        payload = {
            "arrow_closed": report.arrow_closed,
            "subdims": [
                {"weight": list(w), "dim": d} for w, d in report.subdims
            ],
            "pairing": report.pairing,
            "destabilizes": report.destabilizes,
        }
        human = (
            f"pairing {report.pairing}; "
            + ("destabilizes" if report.destabilizes else "no destabilizer here")
        )
        _emit(args, payload, human)
        return 0
    if sub == "path":
        value = stability.path_semistable(rep, ch)
        _emit(args, {"semistable": value}, "semistable" if value else "unstable")
        return 0
    if sub == "tangent":
        value = stability.tangent_dim(rep)
        _emit(args, {"tangent_dim": value}, str(value))
        return 0
    if sub == "ex73":
        report = stability.ex73_invariants(rep)
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
        _emit(args, payload, human)
        return 0
    raise ParseError(f"unknown stability command {sub!r}")


def cmd_oracle(args) -> int:
    sub = args.oracle_command
    if sub == "twostep":
        a = _ints(args.partition, "partition") if args.partition else ()
        rows = _ints(args.rows, "rows")
        if len(rows) != 2:
            raise ParseError("rows must be i,j")
        c_ij, c_ji = map(quiver.frac_str, pieri.two_step_coefficients(a, rows, args.m))
        _emit(args, {"c_ij": c_ij, "c_ji": c_ji}, f"c_ij = {c_ij}, c_ji = {c_ji}")
        return 0
    if sub == "relations":
        space = parse_space(args.space)
        w = _weight_of(space, args)
        nums = _ints(args.boxes, "boxes")
        if len(nums) != 4:
            raise ParseError("boxes must be p1,q1,p2,q2")
        boxes = ((nums[0], nums[1]), (nums[2], nums[3]))
        ok = pieri.verify_relation_coefficients(space, w, boxes)
        equations = quiver.relation_system(space, w, boxes)
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
        _emit(args, payload, "\n".join(lines))
        return 0
    if sub == "p2":
        k = args.k
        c, b = pieri.p2_matrices(k)
        ok = pieri.wedge_check(k)

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
        _emit(args, payload, "\n".join(lines))
        return 0
    raise ParseError(f"unknown oracle command {sub!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercoh",
        description="cohomology of homogeneous bundles via quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        return p

    p = add("bott", cmd_bott, help="cohomology of one irreducible bundle")
    p.add_argument("--space", required=True)
    p.add_argument("--weight")
    p.add_argument("--bundle")

    p = add("chambers", cmd_chambers, help="chamber vertices and degree histogram")
    p.add_argument("--space", required=True)

    p = add("hasse", cmd_hasse, help="maximal path count of the chamber graph")
    p.add_argument("--space", required=True)

    p = add("components", cmd_components, help="component count from a Cartan matrix")
    p.add_argument("--type")
    p.add_argument("--rank", type=int)
    p.add_argument("--matrix")

    p = add("quiver-arrows", cmd_quiver_arrows, help="arrows out of a vertex")
    p.add_argument("--space", required=True)
    p.add_argument("--weight")
    p.add_argument("--bundle")

    p = add("check", cmd_check, help="verify the relations of a representation")
    p.add_argument("--rep", required=True)

    p = add("rescale", cmd_rescale, help="commutativity normalization (projective space)")
    p.add_argument("--rep", required=True)

    p = add("cohomology", cmd_cohomology, help="cohomology table of a representation")
    p.add_argument("--rep", required=True)

    p = add("truncated", cmd_truncated, help="homology of the truncated sequence")
    p.add_argument("--rep", required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("stability", cmd_stability, help="characters and semistability")
    p.add_argument("stability_command", choices=["character", "witness", "path", "tangent", "ex73"])
    p.add_argument("--rep", required=True)
    p.add_argument("--character", default="auto")
    p.add_argument("--witness")

    p = add("oracle", cmd_oracle, help="independent coefficient oracle")
    p.add_argument("oracle_command", choices=["twostep", "relations", "p2"])
    p.add_argument("--partition", default="")
    p.add_argument("--rows")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--space")
    p.add_argument("--weight")
    p.add_argument("--bundle")
    p.add_argument("--boxes")
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
    parser = build_parser()
    args = parser.parse_args(_join_flag_values(argv))
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
