"""Outside-in tracer: spans around calls into quivercoh's public layer
functions, installed from the benchmark without editing the library.

``from .linalg import matmul`` copies a binding into the importing
module, so a function is wrapped in every ``quivercoh`` module that bound
it; ``missed()`` reports any binding that still points at an original.
Spans are aggregated per name in memory (calls, self time, sizes) and
read once at the end; self time is a span's duration minus the time of
its traced children.
"""

from __future__ import annotations

import sys
import time

# metric name -> (defining module, attribute path)
TARGETS = {
    "bott.bott": ("quivercoh.bott", "bott"),
    "bott.mirrors": ("quivercoh.bott", "mirrors"),
    "bott.chamber_graph": ("quivercoh.bott", "chamber_graph"),
    "cohomology._sign_table": ("quivercoh.cohomology", "_sign_table"),
    "rootsys.check_partition": ("quivercoh.rootsys", "check_partition"),
    "rootsys.require_d1": ("quivercoh.rootsys", "require_d1"),
    "rootsys.make_shape": ("quivercoh.rootsys", "make_shape"),
    "rootsys.weight_to_shape": ("quivercoh.rootsys", "weight_to_shape"),
    "quiver.double_additions": ("quivercoh.quiver", "double_additions"),
    "quiver.relation_system": ("quivercoh.quiver", "relation_system"),
    "quiver.check_relations": ("quivercoh.quiver", "check_relations"),
    "quiver.vertex_index": ("quivercoh.quiver", "QuiverRep.vertex_index"),
    "quiver.arrow_matrix": ("quivercoh.quiver", "QuiverRep.arrow_matrix"),
    "cohomology.build_complex": ("quivercoh.cohomology", "build_complex"),
    "cohomology.graded_cohomology": ("quivercoh.cohomology", "graded_cohomology"),
    "linalg.rank": ("quivercoh.linalg", "rank"),
    "linalg.nullspace": ("quivercoh.linalg", "nullspace"),
    "linalg.rref": ("quivercoh.linalg", "rref"),
    "linalg.solve": ("quivercoh.linalg", "solve"),
    "linalg.matmul": ("quivercoh.linalg", "matmul"),
    "linalg.matvec": ("quivercoh.linalg", "matvec"),
    "linalg.det": ("quivercoh.linalg", "det"),
    "cohomology.cohomology": ("quivercoh.cohomology", "cohomology"),
    "stability.tangent_dim": ("quivercoh.stability", "tangent_dim"),
    "pieri.two_step_coefficients": ("quivercoh.pieri", "two_step_coefficients"),
    "pieri.verify_relation_coefficients": ("quivercoh.pieri", "verify_relation_coefficients"),
    "pieri.realize": ("quivercoh.pieri", "realize"),
}

# size counters kept beside calls and self time
EXTRA = (
    "quiver.relation_system.equations",
    "quiver.relation_system.distinct",
    "quiver.relation_system.calls_per_distinct",
    "cohomology.differentials",
    "cohomology.differential_cells",
    "linalg.rank.cells",
    "linalg.rank.max_cells",
    "linalg.rank.calls_per_differential",
    "stability.tangent_dim.rank_cells",
    "bott.chamber_graph.misses",
    "cohomology._sign_table.misses",
    "pieri.realize.misses",
)


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _in_span(stack, name) -> bool:
    return any(frame[1] == name for frame in stack)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # one [child seconds, name] per open span
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.sizes = dict.fromkeys(
            ("relation_equations", "differentials", "differential_cells",
             "rank_cells", "rank_max_cells", "rank_calls_in_cohomology",
             "tangent_rank_cells"), 0)
        self.misses: dict[str, int] = {}  # lru_cache misses per cached target
        self.relation_keys: set = set()
        self._originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """fn wrapped so that each call is one span named name."""
        clock, stack, calls, self_s = self.clock, self.stack, self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
            if observe is not None:
                observe(self, args, result)
            return result

        if hasattr(fn, "cache_info"):
            info, misses = fn.cache_info, self.misses
            misses[name] = 0

            def cached(*args, **kwargs):
                before = info().misses
                try:
                    return traced(*args, **kwargs)
                finally:
                    misses[name] += info().misses - before

            cached.cache_info = fn.cache_info
            cached.cache_clear = fn.cache_clear
            return cached
        return traced

    def install(self, names=tuple(TARGETS)):
        for name in names:
            module_name, path = TARGETS[name]
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.span(name, original)
            self._originals[name] = original
            if outer:
                self._rebind(owner, attr, wrapper)
                continue
            for module in _quivercoh_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def missed(self) -> list[str]:
        """Places in quivercoh modules, their classes and module-level
        containers that still hold an unwrapped original."""
        originals = {id(f): name for name, f in self._originals.items()}
        out = []
        for module in _quivercoh_modules():
            for key, value in vars(module).items():
                where = f"{module.__name__}.{key}"
                if id(value) in originals:
                    out.append(f"{where} ({originals[id(value)]})")
                elif isinstance(value, type) and value.__module__.startswith("quivercoh"):
                    for ckey, cvalue in vars(value).items():
                        if id(cvalue) in originals:
                            out.append(f"{where}.{ckey} ({originals[id(cvalue)]})")
                elif isinstance(value, (dict, list, tuple, set, frozenset)):
                    items = value.values() if isinstance(value, dict) else value
                    for item in items:
                        if id(item) in originals:
                            out.append(f"{where}[...] ({originals[id(item)]})")
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: <name>.calls, <name>.self_s and the sizes."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        s = self.sizes
        distinct = len(self.relation_keys)
        relation_calls = self.calls["quiver.relation_system"]
        out.update({
            "quiver.relation_system.equations": s["relation_equations"],
            "quiver.relation_system.distinct": distinct,
            "quiver.relation_system.calls_per_distinct": relation_calls / distinct if distinct else 0.0,
            "cohomology.differentials": s["differentials"],
            "cohomology.differential_cells": s["differential_cells"],
            "linalg.rank.cells": s["rank_cells"],
            "linalg.rank.max_cells": s["rank_max_cells"],
            "linalg.rank.calls_per_differential": (
                s["rank_calls_in_cohomology"] / s["differentials"] if s["differentials"] else 0.0
            ),
            "stability.tangent_dim.rank_cells": s["tangent_rank_cells"],
        })
        for name in ("bott.chamber_graph", "cohomology._sign_table", "pieri.realize"):
            out[f"{name}.misses"] = self.misses.get(name, 0)
        return out

    def merge(self, state: dict):
        """Add the raw totals of another tracer (state from ``raw()``)."""
        for name, calls in state["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_s[name] = self.self_s.get(name, 0.0) + state["self_s"][name]
        for key, value in state["sizes"].items():
            if key == "rank_max_cells":
                self.sizes[key] = max(self.sizes[key], value)
            else:
                self.sizes[key] += value
        for key, value in state["misses"].items():
            self.misses[key] = self.misses.get(key, 0) + value
        self.relation_keys.update(tuple(map(_freeze, k)) for k in state["relation_keys"])

    def raw(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "sizes": self.sizes,
            "misses": self.misses,
            "relation_keys": [list(k) for k in self.relation_keys],
        }


def _freeze(x):
    return tuple(map(_freeze, x)) if isinstance(x, list) else x


def _quivercoh_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "quivercoh" or name.startswith("quivercoh."))
    ]


def _observe_relation_system(tracer, args, result):
    space, w, boxes = args
    tracer.sizes["relation_equations"] += len(result)
    tracer.relation_keys.add(((space.k, space.n), tuple(w), tuple(map(tuple, boxes))))


def _observe_build_complex(tracer, args, result):
    for cls in result.classes:
        for matrix in cls.maps.values():
            tracer.sizes["differentials"] += 1
            tracer.sizes["differential_cells"] += _cells(matrix)


def _observe_rank(tracer, args, result):
    cells = _cells(args[0])
    s = tracer.sizes
    s["rank_cells"] += cells
    s["rank_max_cells"] = max(s["rank_max_cells"], cells)
    if _in_span(tracer.stack, "cohomology.cohomology"):
        s["rank_calls_in_cohomology"] += 1
    if _in_span(tracer.stack, "stability.tangent_dim"):
        s["tangent_rank_cells"] += cells


_OBSERVERS = {
    "quiver.relation_system": _observe_relation_system,
    "cohomology.build_complex": _observe_build_complex,
    "linalg.rank": _observe_rank,
}
