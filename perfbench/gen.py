"""Seeded workload inputs for the benchmark.

Runs in the benchmark's parent process, never in the timed worker.  The
random representation generator is a port of the test suite's
``random_support``/``random_rep``; the kernel of each level's relation
constraints is taken with the elimination below rather than with
``quivercoh.linalg``, so a change to the library's linear algebra cannot
silently change what the benchmark feeds it.  Every input set is hashed
(``digest``) and the hash is compared with the committed reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from quivercoh import quiver, rootsys

# space spec -> (k, n)
SPACES = {
    "p:3": (0, 3),
    "gr:1,3": (1, 3),
    "gr:1,4": (1, 4),
    "gr:2,5": (2, 5),
}

# workload -> (number of distinct reps, [(space spec, max vertices, max dim)])
REP_PLANS = {
    "cohomology_batch": (
        320,
        [("p:3", 20, 4), ("gr:1,3", 20, 4), ("gr:1,4", 20, 4), ("gr:2,5", 20, 4)],
    ),
    "tangent_batch": (
        400,
        [("p:3", 12, 3), ("gr:1,3", 12, 3), ("gr:1,4", 12, 3), ("gr:2,5", 12, 3)],
    ),
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"quivercoh-bench/{workload}/{seed}")


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def random_kernel_element(rows: list[dict[int, Fraction]], ncols: int, rng) -> list[Fraction]:
    """A random element of the right kernel of a sparse matrix (rows as
    {column: value}): one random coefficient per free column, in column
    order, and the pivot coordinates solved from them.

    Each stored row leads with its own pivot, so the pivots are those of
    the reduced row echelon form: they, and hence the element drawn,
    depend only on the row space, not on the order, scaling or
    repetition of the rows."""
    echelon: dict[int, dict[int, Fraction]] = {}  # pivot -> row leading there
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            p = min(row)
            prow = echelon.get(p)
            if prow is None:
                echelon[p] = row
                break
            f = row[p] / prow[p]
            for c, x in prow.items():
                v = row.get(c, 0) - f * x
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
    out = [Fraction(0)] * ncols
    for free in range(ncols):
        if free not in echelon:
            out[free] = _rand_frac(rng)
    for p in sorted(echelon, reverse=True):
        prow = echelon[p]
        out[p] = -sum((x * out[c] for c, x in prow.items() if c != p), Fraction(0)) / prow[p]
    return out


def _rand_frac(rng: random.Random, zero_chance: float = 0.2) -> Fraction:
    if rng.random() < zero_chance:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 1, 2, 3]))


def random_d1_weight(space, rng: random.Random) -> tuple[int, ...]:
    while True:
        w = tuple(
            rng.randint(-3, 2) if i == space.k else rng.randint(0, 3)
            for i in range(space.rank)
        )
        if rootsys.in_d1(space, w):
            return w


def random_support(space, rng: random.Random, max_vertices: int, depth: int = 3):
    """Closure of a random base vertex under a few random arrow steps."""
    base = random_d1_weight(space, rng)
    support = {base}
    frontier = [base]
    for _ in range(depth):
        new = []
        for w in frontier:
            for _, target in sorted(quiver.arrows_from(space, w)):
                if target not in support and rng.random() < 0.8:
                    support.add(target)
                    new.append(target)
                if len(support) >= max_vertices:
                    break
            if len(support) >= max_vertices:
                break
        frontier = new
        if len(support) >= max_vertices:
            break
    return sorted(support)


def random_rep(space, rng: random.Random, max_dim: int, max_vertices: int) -> dict:
    """Random relation-satisfying representation, as the JSON document
    ``quivercoh.quiver.rep_from_json`` reads.  Dimensions are random;
    arrows are filled level by level, each level drawn from the solution
    space of the relations given the levels below it."""
    support = random_support(space, rng, max_vertices)
    dims = {w: rng.randint(1, max_dim) for w in support}
    mu = rootsys.omega1_slope(space)
    base_slope = rootsys.slope(space, support[0])
    level = {w: int((rootsys.slope(space, w) - base_slope) / mu) for w in support}
    slots_by_level: dict[int, list] = {}
    for w in support:
        for box, target in sorted(quiver.arrows_from(space, w)):
            if target in dims:
                slots_by_level.setdefault(level[target], []).append((w, box, target))
    assigned: dict[tuple, list[list[Fraction]]] = {}
    for lv in sorted(slots_by_level):
        slots = slots_by_level[lv]
        offsets = {}
        total = 0
        for w, box, target in slots:
            offsets[(w, box)] = total
            total += dims[target] * dims[w]
        rows: list[dict[int, Fraction]] = []
        for src in support:
            if level[src] != lv - 2:
                continue
            for boxes in quiver.double_additions(space, src):
                for equation in quiver.relation_system(space, src, boxes):
                    if equation.target not in dims:
                        continue
                    nrows, ncols = dims[equation.target], dims[src]
                    block = [dict() for _ in range(nrows * ncols)]
                    touched = False
                    for first, second, coeff in equation.terms:
                        mid = rootsys.wadd(src, rootsys.box_weight(space, *first))
                        m1 = assigned.get((src, first))
                        if mid not in dims or m1 is None or (mid, second) not in offsets:
                            continue
                        touched = True
                        off = offsets[(mid, second)]
                        dmid = dims[mid]
                        for r in range(nrows):
                            for c in range(ncols):
                                row = block[r * ncols + c]
                                for x in range(dmid):
                                    col = off + r * dmid + x
                                    row[col] = row.get(col, 0) + coeff * m1[x][c]
                    if touched:
                        rows.extend(block)
        flat = random_kernel_element(rows, total, rng)
        for w, box, target in slots:
            off = offsets[(w, box)]
            nrows, ncols = dims[target], dims[w]
            entries = [
                [flat[off + r * ncols + c] for c in range(ncols)] for r in range(nrows)
            ]
            if any(x for row in entries for x in row):
                assigned[(w, box)] = entries
    index = {w: i for i, w in enumerate(support)}
    return {
        "space": {"k": space.k, "n": space.n},
        "vertices": [{"weight": list(w), "dim": dims[w]} for w in support],
        "arrows": [
            {
                "from": index[w],
                "to": index[rootsys.wadd(w, rootsys.box_weight(space, *box))],
                "box": list(box),
                "matrix": [[f"{x.numerator}/{x.denominator}" for x in row] for row in m],
            }
            for (w, box), m in sorted(assigned.items())
        ],
    }


def rep_inputs(workload: str, seed: int) -> list[dict]:
    """Distinct seeded reps for an in-process rep workload, cycling over
    its plan of (space, max vertices, max dim) so every seed gets the
    same mix of spaces and sizes."""
    count, plan = REP_PLANS[workload]
    rng = rng_for(workload, seed)
    seen = set()
    out = []
    while len(out) < count:
        spec, max_vertices, max_dim = plan[len(out) % len(plan)]
        doc = random_rep(rootsys.Space(*SPACES[spec]), rng, max_dim, max_vertices)
        key = digest(doc)
        if key not in seen:
            seen.add(key)
            out.append({"space": spec, "rep": json.dumps(doc, sort_keys=True)})
    return out


def partitions(max_boxes: int, max_parts: int) -> list[tuple[int, ...]]:
    """Every partition of at most max_boxes boxes into at most max_parts
    parts, the empty one first."""
    out = [()]

    def extend(prefix, remaining, largest):
        for part in range(min(remaining, largest), 0, -1):
            a = prefix + (part,)
            if len(a) <= max_parts:
                out.append(a)
                extend(a, remaining - part, part)

    extend((), max_boxes, max_boxes)
    return out


def two_step_cases() -> list[list]:
    """The criterion-8 sweep: every partition of at most 4 boxes, m <= 4,
    every row pair (i, j) along which two boxes can be added."""

    def addable(a, row, m):
        padded = list(a) + [0] * (m - len(a))
        return row <= m and (row == 1 or padded[row - 1] < padded[row - 2])

    cases = []
    for m in range(1, 5):
        for a in partitions(4, m):
            for i in range(1, m + 1):
                if not addable(a, i, m):
                    continue
                a1 = list(a) + [0] * (m - len(a))
                a1[i - 1] += 1
                for j in range(1, m + 1):
                    if addable(tuple(a1), j, m):
                        cases.append([list(a), [i, j], m])
    return cases


# space spec -> number of seeded (weight, boxes) relation cases per sweep
VERIFY_PLAN = {"gr:1,3": 40, "p:3": 24, "gr:1,4": 8}
VERIFY_MAX_BOXES = 2  # per partition; larger shapes cost up to seconds per case


def pieri_inputs(seed: int) -> dict:
    """The two-step sweep plus a seeded sample of relation cases."""
    rng = rng_for("pieri_sweep", seed)
    verify = []
    for spec, count in VERIFY_PLAN.items():
        space = rootsys.Space(*SPACES[spec])
        for _ in range(count):
            while True:
                w = random_d1_weight(space, rng)
                sh = rootsys.weight_to_shape(space, w)
                if max(sum(sh.alpha), sum(sh.beta)) <= VERIFY_MAX_BOXES:
                    break
            boxes = rng.choice(sorted(quiver.double_additions(space, w)))
            verify.append([space.k, space.n, list(w), [list(b) for b in boxes]])
    return {"twostep": two_step_cases(), "verify": verify}


CLI_REPS = 6  # small reps written to files for the rep commands


def cli_inputs(seed: int) -> dict:
    """A seeded mix of CLI commands; "{rep<i>}" stands for the path of
    the i-th rep file."""
    rng = rng_for("cli_cold", seed)
    reps = []
    for i in range(CLI_REPS):
        spec = ("p:3", "gr:1,3")[i % 2]
        doc = random_rep(rootsys.Space(*SPACES[spec]), rng, 2, 8)
        reps.append(json.dumps(doc, sort_keys=True))
    commands = [["chambers", "--space", "gr:3,7"]]
    for i in range(4):
        commands.append(["cohomology", "--rep", f"{{rep{i}}}"])
        commands.append(["check", "--rep", f"{{rep{i + 2}}}"])
    for i in range(2):
        commands.append(["stability", "tangent", "--rep", f"{{rep{i + 4}}}"])
    for _ in range(4):
        spec = rng.choice(sorted(SPACES))
        space = rootsys.Space(*SPACES[spec])
        w = random_d1_weight(space, rng)
        commands.append(["bott", "--space", spec, "--weight", ",".join(map(str, w))])
    for a, rows, m in rng.sample(two_step_cases(), 4):
        commands.append([
            "oracle", "twostep", "--partition", ",".join(map(str, a)),
            "--m", str(m), "--rows", ",".join(map(str, rows)),
        ])
    rng.shuffle(commands)
    return {"reps": reps, "commands": commands}


def inputs(workload: str, seed: int):
    if workload in REP_PLANS:
        return rep_inputs(workload, seed)
    if workload == "pieri_sweep":
        return pieri_inputs(seed)
    return cli_inputs(seed)
