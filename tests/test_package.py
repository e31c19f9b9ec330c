"""The package loads its submodules on first use: what ``import
quivercoh`` provides, and which submodules a CLI command leaves unloaded.
Each check runs in a fresh interpreter, since this test process has
loaded every submodule already."""

import json
import os
import subprocess
import sys

from quivercoh import quiver

from conftest import P2, dual_euler_rep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SUBMODULES = ("bott", "cohomology", "errors", "linalg", "pieri", "quiver", "rootsys", "stability")

# the package's public names and the submodule defining each, as imported
# eagerly by the package before it loaded its submodules on first use
EXPORTS = {
    "bott": "BottValue Mirror cartan_matrix chamber_vertices components_count hasse_degree mirrors",
    "cohomology": "CohomologyTable build_complex graded_cohomology graded_table truncated_complex",
    "errors": "DomainError InternalCheckError ParseError QuivercohError",
    "pieri": (
        "PieriMatrix SchurRealization p2_matrices pieri_map realize two_step_coefficients"
        " verify_relation_coefficients wedge_check"
    ),
    "quiver": (
        "QuiverRep arrows_from check_relations direct_sum dual_rep make_rep quotient_arriving_at"
        " relation_system rep_from_json rep_to_json rescale_to_commutative submodule_generated"
    ),
    "rootsys": (
        "BundleShape Space dual_weight killing module_dim omega1_weights reflect shape_to_weight"
        " slope weight_to_shape weyl_dim"
    ),
    "stability": (
        "Character canonical_character check_witness ex73_invariants pairing path_semistable"
        " tangent_dim"
    ),
}

# the submodules still unloaded, printed as JSON
UNLOADED = """
import json, sys, types
print(json.dumps(sorted(
    name[len("quivercoh."):] for name, module in sys.modules.items()
    if name.startswith("quivercoh.") and type(module) is not types.ModuleType
)))
"""


def _run(code: str, cwd=ROOT) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _unloaded_after(code: str, cwd=ROOT) -> set[str]:
    return set(json.loads(_run(code + UNLOADED, cwd).splitlines()[-1]))


def test_public_names_resolve_to_their_defining_objects():
    names = {name: module for module, text in EXPORTS.items() for name in text.split()}
    expected = sorted([*SUBMODULES, *names])
    assert len(expected) == 62
    code = f"""
import sys, quivercoh
assert quivercoh.__all__ == {expected!r}, quivercoh.__all__
for name in {SUBMODULES!r}:
    assert getattr(quivercoh, name) is sys.modules["quivercoh." + name], name
for name, module in {names!r}.items():
    value = getattr(sys.modules["quivercoh." + module], name)
    assert getattr(quivercoh, name) is value, name
    assert value.__module__ == "quivercoh." + module, name
namespace = {{}}
exec("from quivercoh import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == quivercoh.__all__
print("ok")
"""
    assert _run(code) == "ok\n"


def test_import_registers_every_submodule_unloaded():
    # Tracer.install() in perfbench looks each target module up in
    # sys.modules, so all of them must be there from the package import on
    code = f"""
import sys, quivercoh
for name in {SUBMODULES!r}:
    assert getattr(quivercoh, name) is sys.modules["quivercoh." + name], name
"""
    assert _unloaded_after(code) == set(SUBMODULES)


def test_unknown_attribute_is_an_attribute_error():
    code = """
import quivercoh
try:
    quivercoh.relation_plan
except AttributeError as exc:
    print(exc)
"""
    assert _run(code) == "module 'quivercoh' has no attribute 'relation_plan'\n"


def test_bott_command_loads_only_what_it_runs():
    code = """
from quivercoh.cli import main
assert main(["bott", "--space", "gr:1,3", "--weight", "0,1,0"]) == 0
"""
    unloaded = _unloaded_after(code)
    assert {"quiver", "cohomology", "pieri", "stability", "linalg"} <= unloaded


def test_check_command_loads_only_what_it_runs(tmp_path):
    (tmp_path / "rep.json").write_text(quiver.rep_to_json(dual_euler_rep(P2)))
    code = """
from quivercoh.cli import main
assert main(["check", "--rep", "rep.json"]) == 0
"""
    unloaded = _unloaded_after(code, cwd=tmp_path)
    assert {"pieri", "stability", "cohomology", "bott"} <= unloaded


def test_tracer_install_and_uninstall_leave_no_wrapper():
    # installing loads every lazy submodule; a module loaded while the
    # tracer is installed must still get back its originals on uninstall
    code = f"""
import sys, types
import quivercoh
sys.path.insert(0, {os.path.join(ROOT, "perfbench")!r})
from tracer import Tracer

tracer = Tracer()
tracer.install()
assert tracer.missed() == [], tracer.missed()
assert quivercoh.relation_system is quivercoh.quiver.relation_system
assert quivercoh.relation_system.__qualname__.startswith("Tracer.span")
tracer.uninstall()
for name, module in list(sys.modules.items()):
    if name.startswith("quivercoh"):
        assert type(module) is types.ModuleType, name
        for key, value in vars(module).items():
            inner = vars(value).values() if isinstance(value, type) else [value]
            for item in inner:
                assert not getattr(item, "__qualname__", "").startswith("Tracer.span"), (name, key)
print("ok")
"""
    assert _run(code) == "ok\n"
