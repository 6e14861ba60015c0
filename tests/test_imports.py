"""The package namespace and what each CLI subcommand loads.

Each check runs in a fresh interpreter, so that no earlier import in the
test session decides which submodules are loaded or in what order."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import voablocks

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(voablocks.__path__))

# the package's re-exports, by defining module, in the order of __all__
EXPORTS = {
    "series": ["TruncSeries", "BivarSeries", "QExpansion", "series_mul", "series_compose",
               "series_comp_inverse", "series_residue"],
    "graded": ["weight_of"],
    "models": ["Module", "HeisenbergVOA", "FockModule", "VirasoroVOA", "DualModule",
               "CapError", "heisenberg_model", "fock_module", "virasoro_model",
               "contragredient", "jacobi_check"],
    "virasoro": ["vir_bracket"],
    "coordchange": ["CoordChange", "extract_coeffs", "U_apply", "U_inverse_apply",
                    "gamma_series", "huang_conjugation_check"],
    "schwarzian": ["schwarzian", "mobius_series", "cocycle_check", "conformal_transition",
                   "uniformize"],
    "blocks": ["INFINITY", "SpherePoints", "RationalFunction", "BlockFunctional",
               "IntertwinerError", "UnderdeterminedCap", "strong_residue_check",
               "rational_glue", "residue_pairing", "hom_block", "identity_hom",
               "three_point_block", "vertex_block", "propagate_eval", "propagate_block",
               "block_property_check"],
    "sewing": ["SewableBlock", "SewnSeries", "sew", "torus_character",
               "normalize_character", "two_sided_identity_check", "sewn_ode_witness",
               "character_block"],
    "odepole": ["PoleODE", "FormalSolution", "ResonanceError", "NumericPath",
                "formal_solve", "radius_estimate", "numeric_continue"],
}


def child(code: str, *argv, cwd=ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def passes(code: str):
    proc = child(code)
    assert proc.returncode == 0, proc.stderr


def test_all_is_the_export_list():
    assert voablocks.__all__ == [n for names in EXPORTS.values() for n in names]


# reads every exported name on the package and on its defining module
SAME_OBJECTS = f"""
import importlib, voablocks
wrong = [(m, n) for m, names in {EXPORTS!r}.items() for n in names
         if getattr(voablocks, n) is not getattr(importlib.import_module("voablocks." + m), n)]
assert not wrong, wrong
assert set(voablocks.__all__) <= set(dir(voablocks))
"""


def test_names_are_their_modules_objects():
    passes(SAME_OBJECTS)


@pytest.mark.parametrize("first", MODULES)
def test_names_after_a_submodule_loads(first):
    passes(f"import voablocks.{first}\n" + SAME_OBJECTS)


@pytest.mark.parametrize("order", [
    ["import voablocks.schwarzian as S", "from voablocks import schwarzian", "import voablocks"],
    ["import voablocks", "from voablocks import schwarzian", "import voablocks.schwarzian as S"],
    ["from voablocks import schwarzian", "import voablocks.schwarzian as S", "import voablocks"],
], ids=["submodule-first", "package-first", "from-import-first"])
def test_schwarzian_is_the_function(order):
    # the submodule ``schwarzian`` and its function share a name; every way
    # of reaching the name gives the function, in every order
    passes("\n".join(order) + """
import sys
f = sys.modules["voablocks.schwarzian"].schwarzian
assert callable(f) and f.__name__ == "schwarzian"
assert S is f and schwarzian is f and voablocks.schwarzian is f
""")


@pytest.mark.parametrize("name", MODULES)
def test_submodule_is_an_attribute(name):
    # as when the package imported its layers eagerly: ``voablocks.models``
    # after a bare ``import voablocks`` (the name ``schwarzian`` is the function)
    want = "m.schwarzian" if name == "schwarzian" else "m"
    passes(f"""
import importlib, voablocks
value = voablocks.{name}
m = importlib.import_module("voablocks.{name}")
assert value is {want}
""")


def test_unknown_name_raises_attribute_error():
    passes("""
import voablocks
try:
    voablocks.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(voablocks, "partitions")  # public in models, not re-exported
""")


# runs one CLI command and prints, after its output, the voablocks modules
# it loaded
RUN_CLI = """
import json, sys
from voablocks.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("voablocks."))
print(json.dumps({"code": code, "loaded": loaded}))
"""

ONE = {"num": "1", "den": "1"}
TAIL = {"var": "t", "floor": 0, "order": 1, "coeffs": [ONE]}
FIXTURES = {
    "glue.json": {"at0": TAIL, "atz0": TAIL, "atinf": {**TAIL, "var": "w"}, "z0": ONE},
    "mat.json": {"entries": [[{"var": "q", "floor": 0, "order": 6,
                               "coeffs": [{"num": "0", "den": "1"}] + [ONE] * 5}]],
                 "seeds": {"0": [ONE]}},
}


@pytest.mark.parametrize("argv, code, needs, not_loaded", [
    (["ode", "solve", "--matrix", "mat.json", "--order", "4"], 0,
     {"odepole", "linalg"}, set(MODULES) - {"cli", "jsonio", "series", "odepole", "linalg"}),
    (["coord", "extract", "--series", "z+z^2", "--order", "6"], 0,
     {"coordchange"}, {"blocks", "sewing", "odepole"}),
    (["blocks", "glue", "--fixture", "glue.json"], 0,
     {"blocks"}, {"sewing", "coordchange", "odepole"}),
    (["character", "--model", "heisenberg", "--cap", "lots"], 2,
     set(), set(MODULES) - {"cli", "jsonio", "series"}),
], ids=["ode-solve", "coord-extract", "blocks-glue", "argparse-rejected"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, code, needs, not_loaded):
    for name, fixture in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(fixture))
    proc = child(RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    loaded = set(run["loaded"])
    assert run["code"] == code and needs <= loaded
    assert not loaded & not_loaded, sorted(loaded & not_loaded)

