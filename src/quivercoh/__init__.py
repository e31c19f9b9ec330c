"""Homogeneous bundles on Grassmannians as quiver representations:
exact cohomology, relation checking, and stability analysis.

The submodules load on first use.  ``import quivercoh`` puts each of
them in ``sys.modules`` and on the package as a lazy module, which is
compiled and run the first time one of its attributes is read; the
re-exported names below are read from their submodule on every access,
so a rebinding there is always seen here.
"""

import importlib.util as _util
import sys as _sys

_EXPORTS = {
    "bott": (
        "BottValue", "Mirror", "cartan_matrix", "chamber_vertices",
        "components_count", "hasse_degree", "mirrors",
    ),
    "cohomology": (
        "CohomologyTable", "build_complex", "graded_cohomology", "graded_table",
        "truncated_complex",
    ),
    "errors": ("DomainError", "InternalCheckError", "ParseError", "QuivercohError"),
    "linalg": (),
    "pieri": (
        "PieriMatrix", "SchurRealization", "p2_matrices", "pieri_map", "realize",
        "two_step_coefficients", "verify_relation_coefficients", "wedge_check",
    ),
    "quiver": (
        "QuiverRep", "arrows_from", "check_relations", "direct_sum", "dual_rep",
        "make_rep", "quotient_arriving_at", "relation_system", "rep_from_json",
        "rep_to_json", "rescale_to_commutative", "submodule_generated",
    ),
    "rootsys": (
        "BundleShape", "Space", "dual_weight", "killing", "module_dim",
        "omega1_weights", "reflect", "shape_to_weight", "slope", "weight_to_shape",
        "weyl_dim",
    ),
    "stability": (
        "Character", "canonical_character", "check_witness", "ex73_invariants",
        "pairing", "path_semistable", "tangent_dim",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
